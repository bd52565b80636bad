import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgembed.data import (
    HEAD,
    TAIL,
    DataFormatError,
    Rule,
    TripleIndex,
    add_inverse_relations,
    build_vocab,
    ground_rules,
    index_kg,
    load_kg,
    load_rules,
    load_triples,
    SPLIT_FILES,
    read_groundings,
    write_groundings,
    write_vocab,
)

from kgembed import data as data_module
from kgembed.evaluate import build_filter_sets

import loop_loader
from conftest import make_kg, random_label_triples


# --- load_triples ----------------------------------------------------------


def test_load_single_line(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("a\tr\tb\n")
    assert load_triples(str(p)) == [("a", "r", "b")]


def test_load_malformed_line_reports_lineno(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("a\tr\n")
    with pytest.raises(DataFormatError, match=r":1:"):
        load_triples(str(p))


def test_load_empty_file_errors(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("")
    with pytest.raises(DataFormatError):
        load_triples(str(p))


def test_load_missing_file_errors(tmp_path):
    with pytest.raises(DataFormatError, match="not found"):
        load_triples(str(tmp_path / "nope.txt"))


def test_load_keeps_order_and_duplicates(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("a\tr\tb\na\tr\tb\nc\tr\td\n")
    assert load_triples(str(p)) == [("a", "r", "b")] * 2 + [("c", "r", "d")]


def test_load_rejects_bytes_that_are_not_utf8(tmp_path):
    p = tmp_path / "t.txt"
    p.write_bytes("a\tr\tb\n\nc\tr\td\ne\tr\t".encode() + b"\xff\n")
    with pytest.raises(DataFormatError, match=r"t\.txt:4: not UTF-8"):
        load_triples(str(p))
    p.write_bytes("a\tr\tb\r\nc\tr\t".encode() + "é".encode()[:1])  # cut inside a character
    with pytest.raises(DataFormatError, match=r"t\.txt:2: not UTF-8"):
        load_triples(str(p))


@pytest.mark.parametrize("col", [0, 1, 2])
def test_load_rejects_an_empty_field(tmp_path, col):
    fields = ["a", "r", "b"]
    fields[col] = ""
    p = tmp_path / "t.txt"
    p.write_text("a\tr\tb\n" + "\t".join(fields) + "\nc\tr\td\n")
    message = rf"t\.txt:2: empty {data_module._COLUMNS[col]} field"
    with pytest.raises(DataFormatError, match=message):
        load_triples(str(p))
    for name in SPLIT_FILES:
        (tmp_path / name).write_text("a\tr\tb\n")
    (tmp_path / "valid.txt").write_text("a\tr\tb\n" + "\t".join(fields) + "\n")
    with pytest.raises(DataFormatError, match=r"valid\.txt:2: empty"):
        load_kg(str(tmp_path))


def reader_contract(text, counts=(3,)):
    """The reader's result, one line at a time, or the first bad line's message.

    For a split file (``counts`` (3,)) the result is the triples; for a rule or
    groundings file it is a (lineno, four fields) row per line, "" padding a
    three-field line.
    """
    rows = []
    for lineno, line in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) not in counts:
            expect = " or ".join(map(str, counts))
            return f":{lineno}: expected {expect} tab-separated fields, got {len(fields)}"
        if "" in fields:
            column = f"{data_module._COLUMNS[fields.index('')]} " if counts == (3,) else ""
            return f":{lineno}: empty {column}field"
        rows.append((lineno, *fields, *[""] * (max(counts) - len(fields))))
    if counts != (3,):
        return rows
    return [row[1:] for row in rows] or ": no triples found"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ab\u00e9\t\n\r ", max_size=40))
def test_reader_keeps_the_line_contract(tmp_path_factory, text):
    """Any mix of tabs, line ends and blank lines: the lines the loop read, or the first bad line."""
    path = tmp_path_factory.mktemp("reader") / "t.txt"
    path.write_bytes(text.encode())
    expect = reader_contract(text)
    if isinstance(expect, str):
        with pytest.raises(DataFormatError) as err:
            load_triples(str(path))
        assert str(err.value) == f"{path}{expect}"
    else:
        assert load_triples(str(path)) == expect == loop_loader.load_triples(str(path))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ab\u00e9\t\t\n\r ", max_size=40))
def test_reader_keeps_the_line_contract_of_rule_and_groundings_files(tmp_path_factory, text):
    """The same, with 3 or 4 fields a line: the padded rows and their line numbers."""
    path = tmp_path_factory.mktemp("reader") / "rules.tsv"
    path.write_bytes(text.encode())
    expect = reader_contract(text, (3, 4))
    if isinstance(expect, str):
        with pytest.raises(DataFormatError) as err:
            data_module._read_fields(str(path), "rule", (3, 4))
        assert str(err.value) == f"{path}{expect}"
    else:
        fields, linenos = data_module._read_fields(str(path), "rule", (3, 4))
        assert list(zip(linenos.tolist(), *(fields[c::4] for c in range(4)))) == expect
        assert len(fields) == 4 * len(linenos)


def write_messy_dataset(directory, seed):
    """Seeded splits with blank lines, CRLF and CR line ends, no newline after the last
    line, repeated triples, non-ASCII labels and labels that name both an entity and a
    relation."""
    rng = np.random.default_rng(seed)
    entities = [f"/m/{i:03x}" for i in range(60)] + ["München", "東京", "r1", "a b"]
    relations = ["r0", "r1", "rél/ø", "München"]
    for name, n in zip(SPLIT_FILES, (400, 60, 60)):
        rows = [
            (entities[h], relations[r], entities[t])
            for h, r, t in zip(rng.integers(len(entities), size=n), rng.integers(len(relations), size=n),
                               rng.integers(len(entities), size=n))
        ]
        rows += [rows[i] for i in rng.integers(len(rows), size=n // 4)]  # repeats
        ends = rng.choice(["\n", "\r\n", "\r", "\n\n", "\r\n\r\n"], size=len(rows))
        text = "\n" + "".join("\t".join(row) + end for row, end in zip(rows, ends))
        (directory / name).write_bytes(text.rstrip("\r\n").encode("utf-8"))
    return directory


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_columnar_loader_matches_the_loop(tmp_path, seed):
    """Vocab order, id arrays and both indexes equal the per-line loop's, byte for byte."""
    write_messy_dataset(tmp_path, seed)
    vocab, kg = load_kg(str(tmp_path))
    splits = [loop_loader.load_triples(str(tmp_path / name)) for name in SPLIT_FILES]
    assert all(b"\r" in (tmp_path / name).read_bytes() for name in SPLIT_FILES)
    entity_to_id, relation_to_id = loop_loader.build_vocab(*splits)
    assert list(vocab.entity_to_id.items()) == list(entity_to_id.items())
    assert list(vocab.relation_to_id.items()) == list(relation_to_id.items())
    assert vocab.id_to_entity == list(entity_to_id) and vocab.id_to_relation == list(relation_to_id)
    assert set(vocab.entity_to_id) & set(vocab.relation_to_id) == {"r1", "München"}
    expect = [loop_loader.encode_split(split, entity_to_id, relation_to_id) for split in splits]
    for got, ref in zip((kg.train, kg.valid, kg.test), expect):
        assert got.dtype == ref.dtype and got.shape == ref.shape and got.tobytes() == ref.tobytes()
    assert len(np.unique(expect[0], axis=0)) < len(expect[0])  # the train split repeats triples
    for index, triples in ((kg.train_index, expect[0]), (build_filter_sets(kg), np.concatenate(expect))):
        hrt, rth, pairs = loop_loader.index_arrays(triples, vocab.n_entities, vocab.n_relations)
        assert index.hrt.dtype == hrt.dtype and index.hrt.tobytes() == hrt.tobytes()
        assert index.rth.dtype == rth.dtype and index.rth.tobytes() == rth.tobytes()
        for slot in (HEAD, TAIL):
            assert index.pairs(slot).tobytes() == pairs[slot].tobytes()
    # the tuple-list functions agree with the loop as well
    assert [load_triples(str(tmp_path / name)) for name in SPLIT_FILES] == splits
    tuple_vocab = build_vocab(*splits)
    assert list(tuple_vocab.entity_to_id.items()) == list(entity_to_id.items())
    assert list(tuple_vocab.relation_to_id.items()) == list(relation_to_id.items())
    tuple_kg = index_kg(*splits, tuple_vocab)
    for got, ref in zip((tuple_kg.train, tuple_kg.valid, tuple_kg.test), expect):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "keys",
    [[], [7], [5, 5, 5, 5], [3, 1, 3, 2, 1, 0, 2**40, 3]],
    ids=["empty", "single", "all-duplicate", "mixed"],
)
def test_sort_dedupe_equals_unique(keys):
    keys = np.array(keys, dtype=np.int64)
    got = data_module._drop_repeats(np.sort(keys))
    assert got.dtype == np.int64 and got.tobytes() == np.unique(keys).tobytes()


# --- build_vocab -----------------------------------------------------------


def test_vocab_first_occurrence_order():
    vocab = build_vocab([("a", "r", "b")])
    assert vocab.entity_to_id == {"a": 0, "b": 1}
    assert vocab.relation_to_id == {"r": 0}


def test_vocab_entity_relation_spaces_independent():
    vocab = build_vocab([("x", "x", "y")])
    assert vocab.entity_to_id["x"] == 0 and vocab.relation_to_id["x"] == 0


def test_vocab_covers_all_splits():
    vocab = build_vocab([("a", "r", "b")], [("c", "s", "a")], [("d", "r", "c")])
    assert vocab.n_entities == 4 and vocab.n_relations == 2
    assert vocab.entity_to_id["c"] == 2  # valid scanned after train


@given(
    st.lists(
        st.tuples(st.text("ab", min_size=1, max_size=3), st.sampled_from(["p", "q"]),
                  st.text("cd", min_size=1, max_size=3)),
        min_size=1,
        max_size=30,
    )
)
def test_vocab_round_trip(triples):
    vocab = build_vocab(triples)
    for label, idx in vocab.entity_to_id.items():
        assert vocab.id_to_entity[idx] == label
    for label, idx in vocab.relation_to_id.items():
        assert vocab.id_to_relation[idx] == label
    assert sorted(vocab.entity_to_id.values()) == list(range(vocab.n_entities))


# --- index_kg --------------------------------------------------------------


def completion_sets(index, n_entities, n_relations, slot):
    """{fixed pair: completions} read from ``index`` over every possible pair."""
    pairs = [(a, b) for a in range(n_entities if slot == TAIL else n_relations)
             for b in range(n_relations if slot == TAIL else n_entities)]
    queries = np.array([(a, b, 0) if slot == TAIL else (0, a, b) for a, b in pairs], dtype=np.int64)
    rows, ents = index.completions(queries, slot)
    out = {}
    for i, e in zip(rows.tolist(), ents.tolist()):
        out.setdefault(pairs[i], set()).add(e)
    return out


def test_index_statistics_example():
    vocab, kg = make_kg([("a", "r", "b"), ("a", "r", "c")])
    a, b, c = (vocab.entity_to_id[x] for x in "abc")
    r = vocab.relation_to_id["r"]
    rows, tails = kg.train_index.completions(np.array([[a, r, 0]]), TAIL)
    assert rows.tolist() == [0, 0] and tails.tolist() == sorted([b, c])
    rows, heads = kg.train_index.completions(np.array([[0, r, b]]), HEAD)
    assert rows.tolist() == [0] and heads.tolist() == [a]


def test_index_unknown_label_errors():
    vocab = build_vocab([("a", "r", "b")])
    with pytest.raises(DataFormatError, match="zzz"):
        index_kg([("a", "r", "b")], [("zzz", "r", "b")], [], vocab)


def test_index_matches_bruteforce_scan(toy_kg):
    vocab, kg = toy_kg
    # independent nested-loop oracle over the encoded train array
    hr2t, rt2h = {}, {}
    for h, r, t in kg.train:
        h, r, t = int(h), int(r), int(t)
        hr2t.setdefault((h, r), set()).add(t)
        rt2h.setdefault((r, t), set()).add(h)
    assert completion_sets(kg.train_index, kg.n_entities, kg.n_relations, TAIL) == hr2t
    assert completion_sets(kg.train_index, kg.n_entities, kg.n_relations, HEAD) == rt2h


def test_index_statistics_soundness(toy_kg):
    _, kg = toy_kg
    rows, tails = kg.train_index.completions(kg.train, TAIL)
    for i, (h, r, t) in enumerate(kg.train.tolist()):
        assert t in tails[rows == i]
    rows, heads = kg.train_index.completions(kg.train, HEAD)
    for i, (h, r, t) in enumerate(kg.train.tolist()):
        assert h in heads[rows == i]
    # distinct train triples partition across the (h, r) completion lists
    distinct = {tuple(x) for x in kg.train.tolist()}
    pairs = kg.train_index.pairs(TAIL)
    _, tails = kg.train_index.completions(np.column_stack([pairs, pairs[:, 0]]), TAIL)
    assert len(tails) == len(distinct)
    assert sorted(map(tuple, pairs.tolist())) == sorted({(h, r) for h, r, _ in distinct})


def test_in_train_membership(toy_kg):
    _, kg = toy_kg
    assert kg.in_train(kg.train).all()
    absent = np.array([[0, 0, 0]])
    expect = (0, 0, 0) in {tuple(x) for x in kg.train.tolist()}
    assert kg.in_train(absent)[0] == expect


def test_membership_rejects_out_of_range_ids():
    # E = 3, R = 2: the key of (0, 0, 5) equals the key of (0, 1, 2)
    _, kg = make_kg([("a", "p", "b"), ("a", "q", "c")])
    assert (kg.n_entities, kg.n_relations) == (3, 2)
    with pytest.raises(ValueError, match="tail entity id 5 outside"):
        kg.in_train([[0, 0, 5]])
    with pytest.raises(ValueError, match="head entity id -1 outside"):
        kg.in_train([[-1, 0, 1]])
    with pytest.raises(ValueError, match="relation id 2 outside"):
        kg.in_train([[0, 2, 1]])
    with pytest.raises(ValueError, match="relation id 7 outside"):
        kg.train_index.completions(np.array([[0, 7, 0]]), TAIL)


def searched(index, triples):
    """Membership by one ``searchsorted`` over ``hrt``, with no bit table."""
    keys = index._keys(triples, (0, 1, 2))
    pos = np.minimum(np.searchsorted(index.hrt, keys), len(index.hrt) - 1)
    return index.hrt[pos] == keys


@pytest.mark.parametrize(
    "n_e,n_r,n_triples",
    [(14541, 237, 50_000), (30, 2, 1500)],
    ids=["sparse", "dense"],
)
def test_contains_matches_a_plain_search(n_e, n_r, n_triples):
    """Present and absent keys, on a sparse KG and a dense one (most possible triples known)."""
    rng = np.random.default_rng(8)
    triples = np.stack(
        [rng.integers(0, n_e, n_triples), rng.integers(0, n_r, n_triples), rng.integers(0, n_e, n_triples)],
        axis=1,
    )
    index = TripleIndex(triples, n_e, n_r)
    queries = np.stack(
        [rng.integers(0, n_e, (400, 64)), rng.integers(0, n_r, (400, 64)), rng.integers(0, n_e, (400, 64))],
        axis=-1,
    )
    queries[:100, :10] = triples[:1000].reshape(100, 10, 3)
    got = index.contains(queries)
    assert got.shape == (400, 64)
    assert np.array_equal(got, searched(index, queries))
    assert got.any() and (~got).any()
    if n_e > 30:  # among 50,000 triples some absent keys find their bit set
        at = data_module._hash(index._keys(queries, (0, 1, 2)))
        assert (((index.bits[at >> 3] >> (at & 7)) & 1).astype(bool) & ~got).any()
    assert index.bits.nbytes == 512 * 1024


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_index_matches_set_scan(data):
    n_e = data.draw(st.integers(1, 6))
    n_r = data.draw(st.integers(1, 3))
    triple = st.tuples(st.integers(0, n_e - 1), st.integers(0, n_r - 1), st.integers(0, n_e - 1))
    rows = data.draw(st.lists(triple, max_size=40))
    if rows:  # repeat some rows: the index keeps distinct triples
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=10))
    index = TripleIndex(np.array(rows, dtype=np.int64).reshape(-1, 3), n_e, n_r)
    known = set(rows)
    every = [(h, r, t) for h in range(n_e) for r in range(n_r) for t in range(n_e)]
    assert index.contains(np.array(every)).tolist() == [x in known for x in every]
    # hrt ascends as (h, r, t) does, so a known triple's position is its sorted rank
    rank = {x: i for i, x in enumerate(sorted(known))}
    assert index.find(np.array(every)).tolist() == [rank.get(x, -1) for x in every]
    for slot in (HEAD, TAIL):
        # every possible pair is queried, those with no completion included
        expect = {}
        for h, r, t in known:
            key, e = ((h, r), t) if slot == TAIL else ((r, t), h)
            expect.setdefault(key, set()).add(e)
        assert completion_sets(index, n_e, n_r, slot) == expect
        rows_, ents = index.completions(np.array(every), slot)
        listed = list(zip(rows_.tolist(), ents.tolist()))
        assert listed == sorted(set(listed))  # rows ascend, entities ascend within a row
        per_query = [len(expect.get((h, r) if slot == TAIL else (r, t), ())) for h, r, t in every]
        assert len(ents) == sum(per_query)


# --- add_inverse_relations -------------------------------------------------


def test_inverse_example():
    vocab, kg = make_kg([("a", "r", "b")])
    aug = add_inverse_relations(kg)
    assert aug.n_relations == 2
    assert sorted(map(tuple, aug.train.tolist())) == sorted([(0, 0, 1), (1, 1, 0)])


def test_inverse_doubles_train(toy_kg):
    _, kg = toy_kg
    aug = add_inverse_relations(kg)
    assert len(aug.train) == 2 * len(kg.train)


def test_inverse_twice_errors(toy_kg):
    _, kg = toy_kg
    with pytest.raises(ValueError, match="already"):
        add_inverse_relations(add_inverse_relations(kg))


@settings(max_examples=25)
@given(st.data())
def test_inverse_bijection(data):
    rng_triples = data.draw(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 5)),
            min_size=1,
            max_size=40,
        )
    )
    labels = [(f"e{h}", f"r{r}", f"e{t}") for h, r, t in rng_triples]
    _, kg = make_kg(labels)
    aug = add_inverse_relations(kg)
    n = kg.n_relations
    fwd = {tuple(x) for x in kg.train.tolist()}
    for h, r, t in fwd:
        assert (t, r + n, h) in {tuple(x) for x in aug.train.tolist()}
    inv = {tuple(x) for x in aug.train.tolist() if x[1] >= n}
    assert inv == {(t, r + n, h) for h, r, t in fwd}


def test_inverse_rebuilds_statistics(toy_kg):
    _, kg = toy_kg
    aug = add_inverse_relations(kg)
    rows, tails = aug.train_index.completions(aug.train, TAIL)
    for i, (h, r, t) in enumerate(aug.train.tolist()):
        assert t in tails[rows == i]
    assert aug.in_train(aug.train).all()


# --- rules and grounding ---------------------------------------------------


def test_load_rules_single_atom(tmp_path, toy_kg):
    vocab, _ = toy_kg
    p = tmp_path / "rules.txt"
    p.write_text("0.9\tr2\tr1\n")
    (rule,) = load_rules(str(p), vocab)
    assert rule.body_relations == (vocab.relation_to_id["r1"],)
    assert rule.head_relation == vocab.relation_to_id["r2"]
    assert rule.confidence == 0.9


def test_load_rules_chain(tmp_path, toy_kg):
    vocab, _ = toy_kg
    p = tmp_path / "rules.txt"
    p.write_text("0.8\tr3\tr1\tr2\n")
    (rule,) = load_rules(str(p), vocab)
    assert rule.body_relations == (
        vocab.relation_to_id["r1"],
        vocab.relation_to_id["r2"],
    )


def test_load_rules_bad_confidence(tmp_path, toy_kg):
    vocab, _ = toy_kg
    p = tmp_path / "rules.txt"
    p.write_text("1.5\tr2\tr1\n")
    with pytest.raises(DataFormatError, match="confidence"):
        load_rules(str(p), vocab)


def test_load_rules_unknown_relation(tmp_path, toy_kg):
    vocab, _ = toy_kg
    p = tmp_path / "rules.txt"
    p.write_text("0.5\tr2\tnope\n")
    with pytest.raises(DataFormatError, match="nope"):
        load_rules(str(p), vocab)


def test_rule_invariants():
    with pytest.raises(DataFormatError):
        Rule(body_relations=(), head_relation=0, confidence=0.5)
    with pytest.raises(DataFormatError):
        Rule(body_relations=(0,), head_relation=1, confidence=0.0)


def grounding_rows(groundings):
    """(body atoms, conclusion, confidence, in_train) per grounding, as tuples."""
    return [
        (tuple(tuple(atom) for atom in body if atom[0] >= 0), tuple(conclusion), conf, flag)
        for body, conclusion, conf, flag in zip(
            groundings.bodies.tolist(),
            groundings.conclusions.tolist(),
            groundings.confidence.tolist(),
            groundings.in_train.tolist(),
        )
    ]


def test_ground_single_atom():
    vocab, kg = make_kg([("a", "r1", "b"), ("x", "r2", "y")])
    rule = Rule(
        body_relations=(vocab.relation_to_id["r1"],),
        head_relation=vocab.relation_to_id["r2"],
        confidence=0.9,
    )
    groundings = ground_rules([rule], kg)
    a, b = vocab.entity_to_id["a"], vocab.entity_to_id["b"]
    r1, r2 = vocab.relation_to_id["r1"], vocab.relation_to_id["r2"]
    assert groundings.bodies[:, 1].tolist() == [[-1, -1, -1]] * len(groundings)
    assert any(
        body == ((a, r1, b),) and conclusion == (a, r2, b)
        for body, conclusion, _, _ in grounding_rows(groundings)
    )


def test_ground_chain_rule():
    vocab, kg = make_kg([("a", "r1", "b"), ("b", "r2", "c"), ("q", "r3", "q")])
    rule = Rule(
        body_relations=(vocab.relation_to_id["r1"], vocab.relation_to_id["r2"]),
        head_relation=vocab.relation_to_id["r3"],
        confidence=0.8,
    )
    groundings = ground_rules([rule], kg)
    a, c = vocab.entity_to_id["a"], vocab.entity_to_id["c"]
    r3 = vocab.relation_to_id["r3"]
    assert groundings.conclusions.tolist() == [[a, r3, c]]


def test_ground_in_train_flag():
    vocab, kg = make_kg([("a", "r1", "b"), ("a", "r2", "b")])
    rule = Rule(
        body_relations=(vocab.relation_to_id["r1"],),
        head_relation=vocab.relation_to_id["r2"],
        confidence=1.0,
    )
    assert ground_rules([rule], kg).in_train.tolist() == [True]


def test_ground_count_matches_join_oracle(toy_kg):
    vocab, kg = toy_kg
    r1, r2, r3 = (vocab.relation_to_id[f"r{i}"] for i in (1, 2, 3))
    rule = Rule(body_relations=(r1, r2), head_relation=r3, confidence=0.7)
    groundings = ground_rules([rule], kg)
    # exhaustive nested-loop join
    expected = set()
    train = [tuple(map(int, x)) for x in kg.train]
    for h1, rr1, t1 in train:
        if rr1 != r1:
            continue
        for h2, rr2, t2 in train:
            if rr2 == r2 and h2 == t1:
                expected.add(((h1, r1, t1), (h2, r2, t2), (h1, r3, t2)))
    got = {(body[0], body[1], conclusion) for body, conclusion, _, _ in grounding_rows(groundings)}
    assert got == expected


def test_ground_empty_result_ok():
    vocab, kg = make_kg([("a", "r1", "b"), ("x", "r2", "y")])
    rule = Rule(
        body_relations=(vocab.relation_to_id["r2"], vocab.relation_to_id["r2"]),
        head_relation=vocab.relation_to_id["r1"],
        confidence=0.5,
    )
    groundings = ground_rules([rule], kg)
    assert len(groundings) == 0
    assert groundings.conclusions.shape == (0, 3) and groundings.bodies.shape == (0, 2, 3)


def test_groundings_bodies_in_train(toy_kg):
    vocab, kg = toy_kg
    r1, r2 = vocab.relation_to_id["r1"], vocab.relation_to_id["r2"]
    rule = Rule(body_relations=(r1, r2), head_relation=r1, confidence=0.6)
    train = {tuple(map(int, x)) for x in kg.train}
    for body, _, _, _ in grounding_rows(ground_rules([rule], kg)):
        for atom in body:
            assert atom in train


def test_groundings_file_round_trip(tmp_path, toy_kg):
    vocab, kg = toy_kg
    r1, r2 = vocab.relation_to_id["r1"], vocab.relation_to_id["r2"]
    rules = [
        Rule(body_relations=(r1, r2), head_relation=r1, confidence=0.6),
        Rule(body_relations=(r2,), head_relation=r1, confidence=0.25),
        Rule(body_relations=(r1,), head_relation=r2, confidence=0.123456789),  # > 6 digits
    ]
    groundings = ground_rules(rules, kg)
    assert sorted(set(groundings.confidence.tolist())) == [0.123456789, 0.25, 0.6]
    path = tmp_path / "g.tsv"
    write_groundings(groundings, str(path))
    back = read_groundings(str(path), kg)
    for name in ("conclusions", "bodies", "confidence", "in_train"):
        got, want = getattr(back, name), getattr(groundings, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("conf", ["nan", "5", "-1", "0"])
def test_groundings_file_rejects_a_confidence_outside_unit_interval(tmp_path, toy_kg, conf):
    _, kg = toy_kg
    path = tmp_path / "g.tsv"
    path.write_text(f"0.9\t0,1,1\t0,0,1\n{conf}\t0,1,2\t0,0,2\n")
    with pytest.raises(DataFormatError, match=r"g\.tsv:2: confidence must be in \(0, 1\]"):
        read_groundings(str(path), kg)


def parent_ground_rules(rules, kg):
    """The object-building grounding loop that preceded the table: one
    (body atoms, conclusion, confidence, in_train) tuple per grounding."""
    parts = []
    for rule in rules:
        first = kg.train[kg.train[:, 1] == rule.body_relations[0]]
        if len(rule.body_relations) == 1:
            body = first[:, None]
        else:
            probe = first[:, [2, 1, 0]]
            probe[:, 1] = rule.body_relations[1]
            rows, z = kg.train_index.completions(probe, TAIL)
            second = np.stack([first[rows, 2], probe[rows, 1], z], axis=1)
            body = np.stack([first[rows], second], axis=1)
        concl = np.stack([body[:, 0, 0], np.full(len(body), rule.head_relation), body[:, -1, 2]], 1)
        parts.append((rule.confidence, body.tolist(), concl))
    concls = np.concatenate([c for _, _, c in parts]) if parts else np.zeros((0, 3), np.int64)
    flags = iter(kg.in_train(concls).tolist())
    return [
        (tuple(map(tuple, b)), tuple(c), conf, next(flags))
        for conf, bodies, concl in parts
        for b, c in zip(bodies, concl.tolist())
    ]


@pytest.mark.parametrize("seed", range(4))
def test_ground_rules_table_equals_the_object_loop(seed):
    """1- and 2-atom rules over a KG with duplicate train lines, field by field."""
    rng = np.random.default_rng(seed)
    labels = random_label_triples(rng, 8, 3, 40)
    labels += [labels[i] for i in rng.integers(0, len(labels), 10)]  # duplicate lines
    _, kg = make_kg(labels)
    assert len(np.unique(kg.train, axis=0)) < len(kg.train)
    rules = [
        Rule(body_relations=(0,), head_relation=1, confidence=0.9),
        Rule(body_relations=(0, 1), head_relation=2, confidence=0.5),
        Rule(body_relations=(2, 2), head_relation=0, confidence=1.0),
        Rule(body_relations=(1,), head_relation=1, confidence=0.3),
    ]
    groundings = ground_rules(rules, kg)
    expected = parent_ground_rules(rules, kg)
    assert len(groundings) == len(expected) > 0
    assert groundings.in_train.any() and not groundings.in_train.all()
    bodies = [[list(a) for a in b] + [[-1, -1, -1]] * (2 - len(b)) for b, _, _, _ in expected]
    assert groundings.bodies.tolist() == bodies
    assert groundings.conclusions.tolist() == [list(c) for _, c, _, _ in expected]
    assert groundings.confidence.tolist() == [conf for _, _, conf, _ in expected]
    assert groundings.in_train.tolist() == [flag for _, _, _, flag in expected]


def load_rule_or_groundings_file(kind, path, toy_kg):
    vocab, kg = toy_kg
    return load_rules(path, vocab) if kind == "rules" else read_groundings(path, kg)


# one good line per file kind, and the same line with a byte that is not UTF-8
GOOD_LINES = {"rules": b"0.5\tr1\tr2\n", "groundings": b"0.5\t0,0,1\t0,1,1\n"}
BAD_BYTE_LINES = {"rules": b"0.5\tr\xff\tr2\n", "groundings": b"0.5\t0,0,1\t0,\xff,1\n"}


@pytest.mark.parametrize("kind", ["rules", "groundings"])
def test_rule_and_groundings_files_reject_bytes_that_are_not_utf8(tmp_path, toy_kg, kind):
    path = tmp_path / f"{kind}.tsv"
    path.write_bytes(GOOD_LINES[kind] + b"\r\n" + BAD_BYTE_LINES[kind])
    with pytest.raises(DataFormatError, match=rf"{kind}\.tsv:3: not UTF-8"):
        load_rule_or_groundings_file(kind, str(path), toy_kg)


@pytest.mark.parametrize("kind", ["rules", "groundings"])
@pytest.mark.parametrize("col", [0, 1, 2])
def test_rule_and_groundings_files_reject_an_empty_field(tmp_path, toy_kg, kind, col):
    fields = GOOD_LINES[kind].decode().rstrip("\n").split("\t")
    fields[col] = ""
    path = tmp_path / f"{kind}.tsv"
    path.write_bytes(GOOD_LINES[kind] + "\t".join(fields).encode() + b"\n")
    with pytest.raises(DataFormatError, match=rf"^\S*{kind}\.tsv:2: empty field$"):
        load_rule_or_groundings_file(kind, str(path), toy_kg)


@pytest.mark.parametrize("kind", ["rules", "groundings"])
def test_rule_and_groundings_files_read_crlf_and_blank_lines(tmp_path, toy_kg, kind):
    path = tmp_path / f"{kind}.tsv"
    path.write_bytes(GOOD_LINES[kind])
    want = load_rule_or_groundings_file(kind, str(path), toy_kg)
    line = GOOD_LINES[kind].rstrip(b"\n")
    path.write_bytes(b"\r\n" + line + b"\r\n\r" + line + b"\r")
    got = load_rule_or_groundings_file(kind, str(path), toy_kg)
    assert len(got) == 2
    if kind == "rules":
        assert got == [want[0]] * 2
    else:
        assert got.conclusions.tolist() == want.conclusions.tolist() * 2


def test_groundings_file_rejects_out_of_range_conclusion(tmp_path, toy_kg):
    _, kg = toy_kg
    path = tmp_path / "g.tsv"
    path.write_text("0.9\t0,0,99\t0,0,1\n")
    with pytest.raises(DataFormatError, match=r"g\.tsv: tail entity id 99 outside"):
        read_groundings(str(path), kg)


def test_groundings_file_rejects_out_of_range_body(tmp_path, toy_kg):
    _, kg = toy_kg
    path = tmp_path / "g.tsv"
    for line, message in (
        ("0.9\t0,1,1\t0,0,-1\t-1,0,1\n", r"g\.tsv: head entity id -1 outside"),
        ("0.9\t0,1,1\t0,7,1\n", r"g\.tsv: relation id 7 outside"),
    ):
        path.write_text(line)
        with pytest.raises(DataFormatError, match=message):
            read_groundings(str(path), kg)


# --- dataset dir / vocab dumps --------------------------------------------


def test_load_kg_dataset_dir(toy_dataset_dir):
    vocab, kg = load_kg(str(toy_dataset_dir))
    assert kg.n_entities == 8 and kg.n_relations == 2
    assert len(kg.train) == 8 and len(kg.valid) == 4 and len(kg.test) == 4


def test_load_kg_missing_file(tmp_path):
    (tmp_path / "train.txt").write_text("a\tr\tb\n")
    with pytest.raises(DataFormatError, match="valid.txt"):
        load_kg(str(tmp_path))


def test_write_vocab_dumps(tmp_path, toy_kg):
    vocab, _ = toy_kg
    write_vocab(vocab, str(tmp_path))
    ents = (tmp_path / "entities.tsv").read_text().splitlines()
    assert ents[0] == "a\t0"
    rels = (tmp_path / "relations.tsv").read_text().splitlines()
    assert len(rels) == vocab.n_relations


# text that float() or int() reads but the writers never write
LENIENT_FLOATS = [" 0.5", "0.5 ", "0.5_0", "٠.٥", "0.5\x0b"]
LENIENT_IDS = [" 0", "1 ", "0_0", "+1", "١"]


@pytest.mark.parametrize("kind", ["rules", "groundings"])
@pytest.mark.parametrize("conf", LENIENT_FLOATS)
def test_rule_and_groundings_files_reject_a_lenient_confidence(tmp_path, toy_kg, kind, conf):
    assert 0.0 < float(conf) <= 1.0
    fields = GOOD_LINES[kind].decode().rstrip("\n").split("\t")
    path = tmp_path / f"{kind}.tsv"
    path.write_text(GOOD_LINES[kind].decode() + "\t".join([conf] + fields[1:]) + "\n")
    with pytest.raises(DataFormatError, match=rf"{kind}\.tsv:2: bad confidence"):
        load_rule_or_groundings_file(kind, str(path), toy_kg)


@pytest.mark.parametrize("field", [1, 2, 3], ids=["conclusion", "body1", "body2"])
@pytest.mark.parametrize("col", [0, 1, 2])
@pytest.mark.parametrize("text", LENIENT_IDS)
def test_groundings_file_rejects_a_lenient_id(tmp_path, toy_kg, field, col, text):
    assert int(text) in (0, 1)
    triples = [["0", "1", "1"], ["0", "0", "1"], ["1", "0", "1"]]
    triples[field - 1][col] = text
    path = tmp_path / "g.tsv"
    line = "\t".join(["0.9"] + [",".join(t) for t in triples])
    path.write_text("0.9\t0,1,1\t0,0,1\n" + line + "\n")
    with pytest.raises(DataFormatError, match=r"g\.tsv:2: bad id in"):
        read_groundings(str(path), toy_kg[1])


def test_groundings_file_names_the_line_of_a_triple_without_three_ids(tmp_path, toy_kg):
    path = tmp_path / "g.tsv"
    path.write_text("0.9\t0,1,1\t0,0,1\n0.9\t0,1\t0,0,1\n")
    with pytest.raises(DataFormatError, match=r"g\.tsv:2: triples must be h,r,t"):
        read_groundings(str(path), toy_kg[1])


# --- the columnar rule and groundings loaders against the per-line loop --------


COUNTRIES = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "data", "countries")


def assert_groundings_equal(got, want):
    for name in ("conclusions", "bodies", "confidence", "in_train"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def messy(path, seed):
    """Rewrite a file with CRLF and CR line ends, blank lines and no final newline."""
    rng = np.random.default_rng(seed)
    lines = open(path, encoding="utf-8").read().splitlines()
    ends = rng.choice(["\n", "\r\n", "\r", "\n\n", "\r\n\r\n"], size=len(lines))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n" + "".join(line + end for line, end in zip(lines, ends)).rstrip("\r\n"))


def test_countries_rules_and_groundings_load_as_the_loop_loads_them(tmp_path):
    vocab, kg = load_kg(COUNTRIES)
    path = os.path.join(COUNTRIES, "rules.txt")
    rules = load_rules(path, vocab)
    assert rules == loop_loader.load_rules(path, vocab) and len(rules[0].body_relations) == 2
    groundings = ground_rules(rules, kg)
    assert len(groundings)
    gpath = str(tmp_path / "g.tsv")
    write_groundings(groundings, gpath)
    assert_groundings_equal(read_groundings(gpath, kg), loop_loader.read_groundings(gpath, kg))


@pytest.mark.parametrize("seed", range(3))
def test_rule_and_groundings_loaders_match_the_loop(tmp_path, seed):
    """1- and 2-atom rules and their written groundings, with messy line ends, field by field."""
    rng = np.random.default_rng(seed)
    vocab, kg = make_kg(random_label_triples(rng, 10, 4, 60))
    labels = vocab.id_to_relation
    rules_path = str(tmp_path / "rules.tsv")
    with open(rules_path, "w", encoding="utf-8") as fh:
        for _ in range(8):
            atoms = rng.choice(labels, size=rng.integers(2, 4)).tolist()
            fh.write("\t".join([repr(float(rng.uniform(0.01, 1.0)))] + atoms) + "\n")
    messy(rules_path, seed)
    rules = load_rules(rules_path, vocab)
    assert rules == loop_loader.load_rules(rules_path, vocab)
    assert {len(rule.body_relations) for rule in rules} == {1, 2}
    gpath = str(tmp_path / "g.tsv")
    write_groundings(ground_rules(rules, kg), gpath)
    messy(gpath, seed)
    got = read_groundings(gpath, kg)
    assert len(got) and set(got.in_train.tolist()) == {True, False}
    assert_groundings_equal(got, loop_loader.read_groundings(gpath, kg))


# a fault on line 3 and one on line 5: both loaders report the same one, line 3's
# unless it is an id outside the KG, which is checked once every line has parsed
LINE_3_FAULTS = [
    (0, "1.5"), (0, "0.5_0"), (1, "0,1"), (2, "0,x,1"), (3, "0,1,1,1"), (1, "0,0,99"), (3, "-1,0,1"),
    (3, ""),
]


@pytest.mark.parametrize("later", [(0, "nan"), (2, "0,+1,1")])
@pytest.mark.parametrize("fault", LINE_3_FAULTS)
def test_groundings_errors_match_the_loop(tmp_path, toy_kg, fault, later):
    _, kg = toy_kg
    lines = [["0.5", "0,0,1", "0,1,1", "1,0,1"] for _ in range(6)]
    for lineno, (col, text) in ((3, fault), (5, later)):
        lines[lineno - 1][col] = text
    path = tmp_path / "g.tsv"
    path.write_text("".join("\t".join(line) + "\n" for line in lines))
    with pytest.raises(DataFormatError) as want:
        loop_loader.read_groundings(str(path), kg)
    with pytest.raises(DataFormatError) as got:
        read_groundings(str(path), kg)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("bad", [(2, 0, "0"), (2, 2, "nope"), (2, 3, "nope"), (2, 2, "")])
def test_rule_errors_match_the_loop(tmp_path, toy_kg, bad):
    vocab, _ = toy_kg
    lines = [["0.5", "r1", "r2", "r3"], ["0.5", "r1", "r2"], ["1e-3", "r2", "r1"], ["2", "r1", "zzz"]]
    lineno, col, text = bad
    lines[lineno - 1][col:col + 1] = [text]
    path = tmp_path / "rules.tsv"
    path.write_text("".join("\t".join(line) + "\n" for line in lines))
    with pytest.raises(DataFormatError) as want:
        loop_loader.load_rules(str(path), vocab)
    with pytest.raises(DataFormatError) as got:
        load_rules(str(path), vocab)
    assert str(got.value) == str(want.value)
