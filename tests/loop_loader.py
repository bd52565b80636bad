"""The per-line loader that the columnar reader replaced, the reference for it.

``load_triples`` reads a split file line by line in text mode and builds a
tuple per triple, ``build_vocab`` numbers labels by first occurrence in a
loop, and ``encode_split`` writes the ids one item at a time. ``index_arrays``
builds a triple index's key arrays and pairs with ``np.unique``.
"""

import numpy as np

from kgembed.data import HEAD, TAIL, DataFormatError


def load_triples(path):
    triples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise DataFormatError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}")
            triples.append((fields[0], fields[1], fields[2]))
    if not triples:
        raise DataFormatError(f"{path}: no triples found")
    return triples


def build_vocab(*splits):
    """(entity_to_id, relation_to_id) by first occurrence over the splits in order."""
    entity_to_id, relation_to_id = {}, {}
    for split in splits:
        for h, r, t in split:
            if h not in entity_to_id:
                entity_to_id[h] = len(entity_to_id)
            if r not in relation_to_id:
                relation_to_id[r] = len(relation_to_id)
            if t not in entity_to_id:
                entity_to_id[t] = len(entity_to_id)
    return entity_to_id, relation_to_id


def encode_split(triples, entity_to_id, relation_to_id):
    out = np.empty((len(triples), 3), dtype=np.int64)
    for i, (h, r, t) in enumerate(triples):
        out[i, 0] = entity_to_id[h]
        out[i, 1] = relation_to_id[r]
        out[i, 2] = entity_to_id[t]
    return out


def index_arrays(triples, n_entities, n_relations):
    """``hrt``, ``rth`` and the TAIL and HEAD pairs of the distinct triples, by ``np.unique``."""
    h, r, t = (triples[:, col] for col in range(3))
    hrt = np.unique((h * n_relations + r) * n_entities + t)
    rth = np.unique((r * n_entities + t) * n_entities + h)
    pairs = {
        TAIL: np.stack(np.divmod(np.unique(hrt // n_entities), n_relations), 1),
        HEAD: np.stack(np.divmod(np.unique(rth // n_entities), n_entities), 1),
    }
    return hrt, rth, pairs
