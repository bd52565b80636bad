"""Seeded synthetic knowledge graphs with the shapes of the public benchmarks.

Every generator is a pure function of its seed and returns label triples
split into train / valid / test. Three invariants hold for every output
(the self-tests check them):

* every entity and every relation of the vocabulary occurs in train, so
  the vocabulary has exactly the requested size (a plain zipf draw leaves
  the rarest ids unused and silently shrinks it);
* no triple occurs twice, within a split or across splits;
* valid and test are disjoint from train.

Degrees are zipf-skewed: a cover of the vocabulary pairs every entity
once, and the rest of the triples draw head, relation and tail from
zipf weights over a seed-shuffled id order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

SPLIT_FILES = ("train.txt", "valid.txt", "test.txt")
ZIPF_EXPONENT = 1.0


@dataclass(frozen=True)
class Shape:
    """Vocabulary and split sizes of a KG."""

    n_entities: int
    n_relations: int
    n_train: int
    n_valid: int
    n_test: int


FB15K237 = Shape(14541, 237, 272115, 17535, 20466)
WN18RR = Shape(40943, 11, 86835, 3034, 3134)


@dataclass
class LabelKG:
    train: list[tuple[str, str, str]]
    valid: list[tuple[str, str, str]]
    test: list[tuple[str, str, str]]
    rules: list[str]  # rule-file lines, empty when the KG carries no rules


def _zipf_weights(n: int, rng: np.random.Generator) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** ZIPF_EXPONENT
    w = w[rng.permutation(n)]  # the heavy ids are spread over the id range
    return w / w.sum()


def _pack(h, r, t, n_e: int, n_r: int) -> np.ndarray:
    return (np.asarray(h, np.int64) * n_r + r) * n_e + t


def zipf_kg(shape: Shape, seed: int, entity_fmt: str, relation_fmt: str) -> LabelKG:
    """A KG of exactly ``shape``, its splits drawn from one zipf pool."""
    n_e, n_r = shape.n_entities, shape.n_relations
    n_cover = (n_e + 1) // 2
    if n_cover < n_r or n_cover > shape.n_train:
        raise ValueError(f"{shape}: the vocabulary cover needs {n_cover} train triples")
    rng = np.random.default_rng(seed)

    # cover: entities paired along a random order, relations cycled over the pairs
    order = rng.permutation(n_e)
    heads = order[0::2][:n_cover]
    tails = np.concatenate([order[1::2], order[:1]])[:n_cover]
    rels = np.resize(rng.permutation(n_r), n_cover)
    cover = _pack(heads, rels, tails, n_e, n_r)
    if len(np.unique(cover)) != n_cover:
        raise AssertionError("cover triples must be distinct")

    need = shape.n_train - n_cover + shape.n_valid + shape.n_test
    ent_w = _zipf_weights(n_e, rng)
    rel_w = _zipf_weights(n_r, rng)
    taken = set(cover.tolist())
    rest: list[int] = []
    while len(rest) < need:
        m = 2 * (need - len(rest)) + 1024
        h = rng.choice(n_e, size=m, p=ent_w)
        r = rng.choice(n_r, size=m, p=rel_w)
        t = rng.choice(n_e, size=m, p=ent_w)
        for key in _pack(h, r, t, n_e, n_r)[h != t].tolist():
            if key not in taken:
                taken.add(key)
                rest.append(key)
                if len(rest) == need:
                    break
    rest_arr = np.array(rest, dtype=np.int64)
    valid = rest_arr[: shape.n_valid]
    test = rest_arr[shape.n_valid : shape.n_valid + shape.n_test]
    train = np.concatenate([cover, rest_arr[shape.n_valid + shape.n_test :]])
    train = train[rng.permutation(len(train))]

    def labels(keys):
        h, rt = np.divmod(keys, n_r * n_e)
        r, t = np.divmod(rt, n_e)
        return [
            (entity_fmt.format(a), relation_fmt.format(b), entity_fmt.format(c))
            for a, b, c in zip(h.tolist(), r.tolist(), t.tolist())
        ]

    return LabelKG(train=labels(train), valid=labels(valid), test=labels(test), rules=[])


def fb15k237_kg(seed: int, n_train: int = FB15K237.n_train, n_valid: int = FB15K237.n_valid,
                n_test: int = FB15K237.n_test) -> LabelKG:
    """FB15K-237 shape (always its full vocabulary), Freebase-like MID labels."""
    shape = Shape(FB15K237.n_entities, FB15K237.n_relations, n_train, n_valid, n_test)
    return zipf_kg(shape, seed, "/m/0{:05x}", "/rel/{:03d}")


def wn18rr_kg(seed: int, n_valid: int = WN18RR.n_valid, n_test: int = WN18RR.n_test) -> LabelKG:
    """WN18RR shape (full vocabulary and train split), synset-offset labels."""
    shape = Shape(WN18RR.n_entities, WN18RR.n_relations, WN18RR.n_train, n_valid, n_test)
    return zipf_kg(shape, seed, "{:08d}", "_rel{:02d}")


CHAIN_OUT_DEGREE = 2  # r0 / r1 edges per a- / b-entity
CHAIN_HELD_OUT = 0.2  # share of the r2 conclusions left out of train


def chain_kg(seed: int, groups: int, n_valid: int, n_test: int) -> LabelKG:
    """Chain-rule KG: r2(a, c) holds exactly when r0(a, b) and r1(b, c).

    Each of ``groups`` a- and b-entities has two r0 / r1 edges, so the
    rule grounds about ``4 * groups`` times. A fifth of the r2
    conclusions leaves train; test and valid are drawn from those
    held-out conclusions, so only the rule can recover them. r3 adds
    ``groups`` noise edges between a- and c-entities that no rule explains.
    The rule file holds ``0.9  r2 <= r0, r1``.
    """
    rng = np.random.default_rng(seed)
    r0 = {(i, int(b)) for i in range(groups)
          for b in rng.choice(groups, CHAIN_OUT_DEGREE, replace=False)}
    r1 = {(i, int(c)) for i in range(groups)
          for c in rng.choice(groups, CHAIN_OUT_DEGREE, replace=False)}
    succ: dict[int, list[int]] = {}
    for b, c in sorted(r1):
        succ.setdefault(b, []).append(c)
    r2 = sorted({(a, c) for a, b in r0 for c in succ.get(b, ())})
    r2 = [r2[i] for i in rng.permutation(len(r2))]
    n_held = int(round(CHAIN_HELD_OUT * len(r2)))
    if n_held < n_valid + n_test:
        raise ValueError(f"{n_held} held-out conclusions cannot fill valid + test")
    held, train_r2 = r2[:n_held], r2[n_held:]
    r2_pairs = set(r2)
    r3: set[tuple[int, int]] = set()
    while len(r3) < groups:
        a, c = (int(x) for x in rng.integers(groups, size=2))
        if (a, c) not in r2_pairs:
            r3.add((a, c))

    def lab(prefix_h, rel, prefix_t, pairs):
        return [(f"{prefix_h}{h}", rel, f"{prefix_t}{t}") for h, t in pairs]

    train = (lab("a", "r0", "b", sorted(r0)) + lab("b", "r1", "c", sorted(r1))
             + lab("a", "r2", "c", train_r2) + lab("a", "r3", "c", sorted(r3)))
    train = [train[i] for i in rng.permutation(len(train))]
    test = lab("a", "r2", "c", held[:n_test])
    valid = lab("a", "r2", "c", held[n_test : n_test + n_valid])
    return LabelKG(train=train, valid=valid, test=test, rules=["0.9\tr2\tr0\tr1"])


def write_kg(kg: LabelKG, directory: str) -> None:
    """Write the standard tab-separated split files (and ``rules.txt`` if any)."""
    os.makedirs(directory, exist_ok=True)
    for name, split in zip(SPLIT_FILES, (kg.train, kg.valid, kg.test)):
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.writelines(f"{h}\t{r}\t{t}\n" for h, r, t in split)
    if kg.rules:
        with open(os.path.join(directory, "rules.txt"), "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in kg.rules)
