"""Triple/rule file loading, vocabularies, the triple index, and rule grounding.

A dataset is a directory with ``train.txt``, ``valid.txt`` and ``test.txt``,
one tab-separated ``head relation tail`` triple per line (the de facto
layout of the public FB15K-237 / WN18RR distributions).

One structure answers "which triples are known": :class:`TripleIndex`,
the distinct triples of an id array as two sorted int64 key arrays,
(h*R + r)*E + t and (r*E + t)*E + h. It serves train membership, the
Bernoulli statistics, the 1-vs-all labels, rule grounding and the lookup
of grounded conclusions, and (over all three splits) evaluation filtering.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

Triple = tuple[str, str, str]

SPLIT_FILES = ("train.txt", "valid.txt", "test.txt")

HEAD, TAIL = 0, 1  # the open slot of a query: the entity to predict

_COLUMNS = ("head entity", "relation", "tail entity")


class DataFormatError(ValueError):
    """Malformed input file (bad line, bad field, missing file)."""


@dataclass(frozen=True)
class Vocab:
    """Bijective label <-> contiguous-id maps for entities and relations.

    Ids are assigned 0..n-1 in first-occurrence order, scanning train,
    then valid, then test, so rebuilding from the same files always
    yields the same assignment.
    """

    entity_to_id: dict[str, int]
    relation_to_id: dict[str, int]
    id_to_entity: list[str] = field(repr=False)
    id_to_relation: list[str] = field(repr=False)

    @property
    def n_entities(self) -> int:
        return len(self.id_to_entity)

    @property
    def n_relations(self) -> int:
        return len(self.id_to_relation)


class TripleIndex:
    """The distinct triples of an [n, 3] id array, as two sorted key arrays.

    ``hrt`` holds (h*R + r)*E + t and ``rth`` holds (r*E + t)*E + h, each
    ascending without repeats. The triples sharing (h, r) form one run of
    ``hrt`` with tails ascending, those sharing (r, t) one run of ``rth``
    with heads ascending. So membership is one ``searchsorted``, and the
    known completions of a batch of queries are two. Every id is checked
    against [0, E) or [0, R) before packing, since an id out of range
    would alias the key of another triple.
    """

    def __init__(self, triples, n_entities: int, n_relations: int):
        self.n_entities, self.n_relations = n_entities, n_relations
        self.hrt = np.unique(self._keys(np.reshape(triples, (-1, 3)), (0, 1, 2)))
        hr, t = np.divmod(self.hrt, n_entities)
        h, r = np.divmod(hr, n_relations)
        self.rth = np.sort((r * n_entities + t) * n_entities + h)

    def _keys(self, triples, cols) -> np.ndarray:
        """Pack columns ``cols`` of [..., 3] id rows into one int64 key per row."""
        triples = np.asarray(triples, dtype=np.int64)
        key = 0
        for col in cols:
            ids = triples[..., col]
            n = self.n_relations if col == 1 else self.n_entities
            if ids.size and (ids.min() < 0 or ids.max() >= n):
                bad = ids[(ids < 0) | (ids >= n)].flat[0]
                raise ValueError(f"{_COLUMNS[col]} id {bad} outside [0, {n})")
            key = key * n + ids
        return key

    def _lookup(self, triples) -> tuple[np.ndarray, np.ndarray]:
        """Each [..., 3] id row's insertion point in ``hrt``, and whether it is there."""
        keys = self._keys(triples, (0, 1, 2))
        if not len(self.hrt):
            return np.zeros(keys.shape, dtype=np.int64), np.zeros(keys.shape, dtype=bool)
        pos = np.minimum(np.searchsorted(self.hrt, keys), len(self.hrt) - 1)
        return pos, self.hrt[pos] == keys

    def contains(self, triples) -> np.ndarray:
        """Whether each [..., 3] id row is an indexed triple."""
        return self._lookup(triples)[1]

    def find(self, triples) -> np.ndarray:
        """Each [..., 3] id row's position in ``hrt``, or -1 where it is not indexed."""
        pos, found = self._lookup(triples)
        return np.where(found, pos, -1)

    def completions(self, queries, slot: int) -> tuple[np.ndarray, np.ndarray]:
        """Indexed completions of each [n, 3] query's open slot, as CSR pairs.

        Returns ``(row, entity)``: for ``slot`` TAIL every indexed tail of
        row i's (h, r), for HEAD every head of its (r, t); rows ascend,
        and each row's entities ascend. The open slot's value is ignored.
        """
        if slot == TAIL:
            keys, prefix = self.hrt, self._keys(queries, (0, 1))
        else:
            keys, prefix = self.rth, self._keys(queries, (1, 2))
        lo = np.searchsorted(keys, prefix * self.n_entities)
        counts = np.searchsorted(keys, (prefix + 1) * self.n_entities) - lo
        rows = np.repeat(np.arange(len(prefix)), counts)
        at = np.arange(len(rows)) + np.repeat(lo - np.cumsum(counts) + counts, counts)
        return rows, keys[at] % self.n_entities

    def pairs(self, slot: int) -> np.ndarray:
        """The distinct fixed pairs with a completion: [m, 2] (h, r) rows for
        ``slot`` TAIL, (r, t) rows for HEAD, ascending."""
        keys = self.hrt if slot == TAIL else self.rth
        prefix = np.unique(keys // self.n_entities)
        return np.stack(np.divmod(prefix, self.n_relations if slot == TAIL else self.n_entities), 1)


@dataclass
class IndexedKG:
    """Integer-encoded splits plus the index of the train split.

    ``train_index``, a :class:`TripleIndex` over the distinct train
    triples, is built on construction. It answers ``in_train`` (the
    samplers' filtering), the Bernoulli statistics, the 1-vs-all labels
    and rule grounding. Evaluation filters against a second index over
    all splits (see :func:`kgembed.evaluate.build_filter_sets`).
    """

    train: np.ndarray  # [n,3] int64 (h, r, t)
    valid: np.ndarray
    test: np.ndarray
    n_entities: int
    n_relations: int
    has_inverses: bool = False
    train_index: TripleIndex = field(init=False, repr=False)

    def __post_init__(self):
        self.train_index = TripleIndex(self.train, self.n_entities, self.n_relations)

    def in_train(self, triples: np.ndarray) -> np.ndarray:
        """Vectorized train-set membership for an array of id triples."""
        return self.train_index.contains(triples)


@dataclass(frozen=True)
class Rule:
    """Horn rule over relations: body (1 or 2 atoms) implies head.

    One-atom rules share the variable pair, r1(x,y) => head(x,y); two-atom
    rules chain, r1(x,y) & r2(y,z) => head(x,z).
    """

    body_relations: tuple[int, ...]
    head_relation: int
    confidence: float

    def __post_init__(self):
        if len(self.body_relations) not in (1, 2):
            raise DataFormatError(f"rule body must have 1 or 2 atoms, got {len(self.body_relations)}")
        if not 0.0 < self.confidence <= 1.0:
            raise DataFormatError(f"rule confidence must be in (0, 1], got {self.confidence}")


@dataclass(frozen=True, eq=False)
class Groundings:
    """Rule groundings as one table of arrays, in grounding order.

    Row g concludes ``conclusions[g]`` from ``bodies[g]`` (a one-atom body's
    second atom is all -1) with ``confidence[g]``; ``in_train[g]`` marks one in train.
    """

    conclusions: np.ndarray  # [G, 3] int64
    bodies: np.ndarray  # [G, 2, 3] int64
    confidence: np.ndarray  # [G] float64
    in_train: np.ndarray  # [G] bool
    n_entities: int
    n_relations: int
    # built on construction: an index over the distinct conclusions, and
    # each row's position in its ``hrt``
    index: TripleIndex = field(init=False, repr=False)
    slot: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        index = TripleIndex(self.conclusions, self.n_entities, self.n_relations)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "slot", index.find(self.conclusions))

    def __len__(self) -> int:
        return len(self.conclusions)


def load_triples(path: str) -> list[Triple]:
    """Read tab-separated label triples, in file order, duplicates kept.

    Raises :class:`DataFormatError` for a missing file, an empty file, or
    any line without exactly three fields (the error names the line).
    """
    if not os.path.exists(path):
        raise DataFormatError(f"triple file not found: {path}")
    triples: list[Triple] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise DataFormatError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
                )
            triples.append((fields[0], fields[1], fields[2]))
    if not triples:
        raise DataFormatError(f"{path}: no triples found")
    return triples


def build_vocab(train: list[Triple], valid: list[Triple] = (), test: list[Triple] = ()) -> Vocab:
    """Assign contiguous ids by first occurrence, scanning train/valid/test.

    Entity and relation label spaces are independent; the same label may
    appear in both without clashing.
    """
    entity_to_id: dict[str, int] = {}
    relation_to_id: dict[str, int] = {}
    for split in (train, valid, test):
        for h, r, t in split:
            if h not in entity_to_id:
                entity_to_id[h] = len(entity_to_id)
            if r not in relation_to_id:
                relation_to_id[r] = len(relation_to_id)
            if t not in entity_to_id:
                entity_to_id[t] = len(entity_to_id)
    return Vocab(
        entity_to_id=entity_to_id,
        relation_to_id=relation_to_id,
        id_to_entity=list(entity_to_id),
        id_to_relation=list(relation_to_id),
    )


def _encode_split(triples: list[Triple], vocab: Vocab) -> np.ndarray:
    out = np.empty((len(triples), 3), dtype=np.int64)
    e2i, r2i = vocab.entity_to_id, vocab.relation_to_id
    for i, (h, r, t) in enumerate(triples):
        try:
            out[i, 0] = e2i[h]
        except KeyError:
            raise DataFormatError(f"unknown entity label: {h!r}") from None
        try:
            out[i, 1] = r2i[r]
        except KeyError:
            raise DataFormatError(f"unknown relation label: {r!r}") from None
        try:
            out[i, 2] = e2i[t]
        except KeyError:
            raise DataFormatError(f"unknown entity label: {t!r}") from None
    return out


def index_kg(
    train: list[Triple],
    valid: list[Triple],
    test: list[Triple],
    vocab: Vocab,
) -> IndexedKG:
    """Encode splits to id arrays and index the train split."""
    return IndexedKG(
        train=_encode_split(train, vocab),
        valid=_encode_split(valid, vocab),
        test=_encode_split(test, vocab),
        n_entities=vocab.n_entities,
        n_relations=vocab.n_relations,
    )


def add_inverse_relations(kg: IndexedKG) -> IndexedKG:
    """Return a new KG with an inverse triple (t, r+n_relations, h) per train triple.

    Doubles ``n_relations`` and re-indexes the train split. Refuses to
    run on a KG that already carries inverses.
    """
    if kg.has_inverses:
        raise ValueError("inverse relations already added")
    n_rel = kg.n_relations
    inv = kg.train[:, [2, 1, 0]].copy()
    inv[:, 1] += n_rel
    return IndexedKG(
        train=np.concatenate([kg.train, inv], axis=0),
        valid=kg.valid.copy(),
        test=kg.test.copy(),
        n_entities=kg.n_entities,
        n_relations=2 * n_rel,
        has_inverses=True,
    )


def load_rules(path: str, vocab: Vocab) -> list[Rule]:
    """Read rules, one per line: ``confidence<TAB>head_rel<TAB>body_rel_1[<TAB>body_rel_2]``.

    Relation labels are resolved through ``vocab``; unknown labels and
    confidences outside (0, 1] raise :class:`DataFormatError`.
    """
    if not os.path.exists(path):
        raise DataFormatError(f"rule file not found: {path}")
    rules: list[Rule] = []
    r2i = vocab.relation_to_id
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) not in (3, 4):
                raise DataFormatError(
                    f"{path}:{lineno}: expected 3 or 4 tab-separated fields, got {len(fields)}"
                )
            try:
                conf = float(fields[0])
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: bad confidence {fields[0]!r}") from None
            if not 0.0 < conf <= 1.0:
                raise DataFormatError(f"{path}:{lineno}: confidence must be in (0, 1], got {conf}")
            rels = []
            for label in fields[1:]:
                if label not in r2i:
                    raise DataFormatError(f"{path}:{lineno}: unknown relation label: {label!r}")
                rels.append(r2i[label])
            rules.append(Rule(body_relations=tuple(rels[1:]), head_relation=rels[0], confidence=conf))
    return rules


def ground_rules(rules: list[Rule], kg: IndexedKG) -> Groundings:
    """Instantiate every rule against the train split, in rule order.

    One-atom rules yield one grounding per train triple of the body
    relation; chain rules yield one grounding per joinable triple pair.
    Conclusions already present in train are kept, flagged ``in_train``.
    """
    parts = [(np.zeros((0, 3), np.int64), np.zeros((0, 2, 3), np.int64), np.zeros(0))]
    for rule in rules:
        first = kg.train[kg.train[:, 1] == rule.body_relations[0]]  # train order, duplicates kept
        if len(rule.body_relations) == 1:
            last, body = first, np.stack([first, np.full_like(first, -1)], axis=1)
        else:  # join r1(x, y) with every train r2(y, z), z ascending
            probe = first[:, [2, 1, 0]]
            probe[:, 1] = rule.body_relations[1]
            rows, z = kg.train_index.completions(probe, TAIL)
            last = np.stack([first[rows, 2], probe[rows, 1], z], axis=1)
            body = np.stack([first[rows], last], axis=1)
        concl = np.stack([body[:, 0, 0], np.full(len(body), rule.head_relation), last[:, 2]], 1)
        parts.append((concl, body, np.full(len(body), rule.confidence)))
    conclusions, bodies, confidence = (np.concatenate(column) for column in zip(*parts))
    flags = kg.in_train(conclusions)
    return Groundings(conclusions, bodies, confidence, flags, kg.n_entities, kg.n_relations)


def write_groundings(groundings: Groundings, path: str) -> None:
    """Write groundings, one per line: ``conf<TAB>h,r,t<TAB>body1[<TAB>body2]`` (id triples)."""
    g = groundings
    rows = zip(g.confidence.tolist(), g.conclusions.tolist(), g.bodies.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        for conf, concl, body in rows:
            atoms = [concl] + [atom for atom in body if atom[0] >= 0]
            # repr is the shortest text that reads back as the same float
            fh.write("\t".join([repr(conf)] + [",".join(map(str, t)) for t in atoms]) + "\n")


def read_groundings(path: str, kg: IndexedKG) -> Groundings:
    """Read a groundings file written by :func:`write_groundings`.

    The ``in_train`` flag is recomputed against ``kg`` rather than stored; a
    confidence outside (0, 1] or an id outside ``kg`` raises :class:`DataFormatError`.
    """
    if not os.path.exists(path):
        raise DataFormatError(f"groundings file not found: {path}")
    confidence, atoms, two = [], [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) not in (3, 4):
                raise DataFormatError(f"{path}:{lineno}: expected 3 or 4 fields, got {len(fields)}")
            try:
                conf = float(fields[0])
                triples = [[int(x) for x in f.split(",")] for f in fields[1:]]
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: malformed grounding line") from None
            if any(len(t) != 3 for t in triples):
                raise DataFormatError(f"{path}:{lineno}: triples must be h,r,t")
            if not 0.0 < conf <= 1.0:
                raise DataFormatError(f"{path}:{lineno}: confidence must be in (0, 1], got {conf}")
            confidence.append(conf)
            atoms.append(triples + [[-1, -1, -1]] * (4 - len(fields)))
            two.append(len(fields) == 4)
    atoms = np.array(atoms, dtype=np.int64).reshape(-1, 3, 3)
    try:  # one lookup range-checks every triple; only the conclusions' flags are kept
        flags = kg.in_train(np.concatenate([atoms[:, 0], atoms[:, 1], atoms[two, 2]]))[: len(atoms)]
    except ValueError as e:
        raise DataFormatError(f"{path}: {e}") from None
    confidence = np.array(confidence, dtype=np.float64)
    return Groundings(atoms[:, 0], atoms[:, 1:], confidence, flags, kg.n_entities, kg.n_relations)


def write_vocab(vocab: Vocab, directory: str) -> None:
    """Dump ``entities.tsv`` and ``relations.tsv`` (``label<TAB>id``) into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "entities.tsv"), "w", encoding="utf-8") as fh:
        for label, idx in vocab.entity_to_id.items():
            fh.write(f"{label}\t{idx}\n")
    with open(os.path.join(directory, "relations.tsv"), "w", encoding="utf-8") as fh:
        for label, idx in vocab.relation_to_id.items():
            fh.write(f"{label}\t{idx}\n")


def load_kg(dataset_dir: str) -> tuple[Vocab, IndexedKG]:
    """Load a train/valid/test dataset directory into a vocab and indexed KG."""
    splits = []
    for name in SPLIT_FILES:
        path = os.path.join(dataset_dir, name)
        if not os.path.exists(path):
            raise DataFormatError(f"missing dataset file: {path}")
        splits.append(load_triples(path))
    vocab = build_vocab(*splits)
    return vocab, index_kg(*splits, vocab)
