"""The per-line loaders that the columnar reader replaced, the reference for it.

``load_triples`` reads a split file line by line in text mode and builds a
tuple per triple, ``build_vocab`` numbers labels by first occurrence in a
loop, and ``encode_split`` writes the ids one item at a time. ``index_arrays``
builds a triple index's key arrays and pairs with ``np.unique``.
``load_rules`` and ``read_groundings`` parse a rule or groundings file one
line and one field at a time.
"""

import os
import re

import numpy as np

from kgembed.data import HEAD, TAIL, DataFormatError, Groundings, Rule, read_text


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


def _lines(path, kind):
    """``(lineno, fields)`` of each non-blank line: 3 or 4 non-empty tab-separated fields."""
    if not os.path.exists(path):
        raise DataFormatError(f"{kind} file not found: {path}")
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) not in (3, 4):
            raise DataFormatError(
                f"{path}:{lineno}: expected 3 or 4 tab-separated fields, got {len(fields)}"
            )
        if not all(fields):
            raise DataFormatError(f"{path}:{lineno}: empty field")
        yield lineno, fields


_ID = re.compile(r"-?[0-9]+")
_FLOAT = re.compile(r"[0-9A-Za-z.+-]+")


def _confidence(text, where):
    try:
        if not _FLOAT.fullmatch(text):
            raise ValueError
        conf = float(text)
    except ValueError:
        raise DataFormatError(f"{where}: bad confidence {text!r}") from None
    if not 0.0 < conf <= 1.0:
        raise DataFormatError(f"{where}: confidence must be in (0, 1], got {conf}")
    return conf


def _id_triple(text, where):
    ids = text.split(",")
    if len(ids) != 3:
        raise DataFormatError(f"{where}: triples must be h,r,t, got {text!r}")
    if not all(_ID.fullmatch(x) for x in ids):
        raise DataFormatError(f"{where}: bad id in {text!r}")
    return [int(x) for x in ids]


def load_rules(path, vocab):
    rules = []
    r2i = vocab.relation_to_id
    for lineno, fields in _lines(path, "rule"):
        conf = _confidence(fields[0], f"{path}:{lineno}")
        rels = []
        for label in fields[1:]:
            if label not in r2i:
                raise DataFormatError(f"{path}:{lineno}: unknown relation label: {label!r}")
            rels.append(r2i[label])
        rules.append(Rule(body_relations=tuple(rels[1:]), head_relation=rels[0], confidence=conf))
    return rules


def read_groundings(path, kg):
    confidence, atoms, two = [], [], []
    for lineno, fields in _lines(path, "groundings"):
        where = f"{path}:{lineno}"
        conf = _confidence(fields[0], where)
        triples = [_id_triple(f, where) for f in fields[1:]]
        confidence.append(conf)
        atoms.append(triples + [[-1, -1, -1]] * (4 - len(fields)))
        two.append(len(fields) == 4)
    atoms = np.array(atoms, dtype=np.int64).reshape(-1, 3, 3)
    try:
        flags = kg.in_train(np.concatenate([atoms[:, 0], atoms[:, 1], atoms[two, 2]]))[: len(atoms)]
    except ValueError as e:
        raise DataFormatError(f"{path}: {e}") from None
    confidence = np.array(confidence, dtype=np.float64)
    return Groundings(atoms[:, 0], atoms[:, 1:], confidence, flags, kg.n_entities, kg.n_relations)
