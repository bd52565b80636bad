import os

import numpy as np
import pytest

from kgembed.data import Groundings, build_vocab, index_kg


def make_kg(train, valid=None, test=None):
    """Index label triples; valid/test default to the first train triple."""
    valid = valid if valid is not None else [train[0]]
    test = test if test is not None else [train[-1]]
    vocab = build_vocab(train, valid, test)
    return vocab, index_kg(train, valid, test, vocab)


def random_label_triples(rng, n_entities, n_relations, n_triples):
    return [
        (f"e{rng.integers(n_entities)}", f"r{rng.integers(n_relations)}", f"e{rng.integers(n_entities)}")
        for _ in range(n_triples)
    ]


def rule_groundings(kg):
    """Groundings saying relation 1 follows relation 0 on the same pair."""
    body = np.unique(kg.train[kg.train[:, 1] == 0], axis=0)  # distinct, ascending
    conclusions = body.copy()
    conclusions[:, 1] = 1
    return Groundings(
        conclusions=conclusions,
        bodies=np.stack([body, np.full_like(body, -1)], axis=1),
        confidence=np.full(len(body), 0.9),
        in_train=kg.in_train(conclusions),
        n_entities=kg.n_entities,
        n_relations=kg.n_relations,
    )


@pytest.fixture
def toy_kg():
    """Ten fixed triples over 6 entities / 3 relations, for statistics oracles."""
    train = [
        ("a", "r1", "b"),
        ("a", "r1", "c"),
        ("b", "r2", "c"),
        ("c", "r1", "d"),
        ("d", "r3", "a"),
        ("d", "r3", "e"),
        ("e", "r2", "f"),
        ("f", "r1", "a"),
        ("a", "r2", "d"),
        ("b", "r3", "f"),
    ]
    return make_kg(train, valid=[("a", "r1", "d")], test=[("b", "r2", "f")])


@pytest.fixture
def matching_kg():
    """Perfectly learnable pattern: fwd maps a_i -> b_i, rev maps back."""
    pairs = [(f"a{i}", f"b{i}") for i in range(4)]
    train = [(a, "fwd", b) for a, b in pairs] + [(b, "rev", a) for a, b in pairs]
    return make_kg(train, valid=list(train), test=list(train))


def write_dataset(directory, train, valid, test):
    os.makedirs(directory, exist_ok=True)
    for name, rows in (("train.txt", train), ("valid.txt", valid), ("test.txt", test)):
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            for h, r, t in rows:
                fh.write(f"{h}\t{r}\t{t}\n")
    return directory


@pytest.fixture
def toy_dataset_dir(tmp_path):
    pairs = [(f"a{i}", f"b{i}") for i in range(4)]
    train = [(a, "fwd", b) for a, b in pairs] + [(b, "rev", a) for a, b in pairs]
    return write_dataset(tmp_path / "toy", train, train[:4], train[4:])
