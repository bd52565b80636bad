import numpy as np
import pytest

from kgembed import sampling
from kgembed.sampling import (
    HEAD,
    RETRY_CAP,
    TAIL,
    all_negatives,
    bern_negatives,
    bernoulli_table,
    filter_known,
    full_graph,
    mask_edges,
    sample_graph,
    uniform_negatives,
)

from conftest import make_kg, random_label_triples


@pytest.fixture
def bern_fixture():
    """The 3-triple statistics fixture: tph = hpt = 1.5, p_head = 0.5."""
    return make_kg([("a", "r", "b"), ("a", "r", "c"), ("d", "r", "b")])


# --- filter_known ----------------------------------------------------------


def test_filter_removes_train_triple(toy_kg):
    _, kg = toy_kg
    known = tuple(int(x) for x in kg.train[0])
    assert filter_known([known], kg) == []


def test_filter_keeps_unknown(toy_kg):
    _, kg = toy_kg
    cand = (0, 0, 0)
    expected = [] if cand in {tuple(x) for x in kg.train.tolist()} else [cand]
    assert filter_known([cand], kg) == expected


def test_filter_matches_set_difference_oracle(toy_kg):
    _, kg = toy_kg
    rng = np.random.default_rng(7)
    cands = [
        (int(a), int(b), int(c))
        for a, b, c in zip(
            rng.integers(0, kg.n_entities, 1000),
            rng.integers(0, kg.n_relations, 1000),
            rng.integers(0, kg.n_entities, 1000),
        )
    ]
    train_set = {tuple(map(int, x)) for x in kg.train}
    expected = [c for c in cands if c not in train_set]
    assert filter_known(cands, kg) == expected


# --- uniform negatives -----------------------------------------------------


def test_uniform_degenerate_single_entity():
    _, kg = make_kg([("only", "r", "only")])
    nb = uniform_negatives(kg, kg.train, 4, seed=0)
    # every resample collides with the lone train triple: flagged fallback
    assert nb.fallback.all()
    assert (nb.negatives == kg.train[0]).all()


def test_uniform_slot_ratio(toy_kg):
    _, kg = toy_kg
    pos = np.repeat(kg.train, 10, axis=0)
    nb = uniform_negatives(kg, pos, 1000, seed=3)
    ratio = (nb.slot == HEAD).mean()
    assert abs(ratio - 0.5) < 0.01


def test_uniform_deterministic(toy_kg):
    _, kg = toy_kg
    a = uniform_negatives(kg, kg.train, 8, seed=11)
    b = uniform_negatives(kg, kg.train, 8, seed=11)
    assert (a.negatives == b.negatives).all() and (a.slot == b.slot).all()
    assert a.negatives.tobytes() == b.negatives.tobytes()
    c = uniform_negatives(kg, kg.train, 8, seed=12)
    assert (a.negatives != c.negatives).any()


def test_uniform_corrupts_exactly_flagged_slot(toy_kg):
    _, kg = toy_kg
    nb = uniform_negatives(kg, kg.train, 16, seed=5)
    b, n = nb.slot.shape
    for i in range(b):
        for j in range(n):
            pos, neg = nb.positives[i], nb.negatives[i, j]
            if nb.slot[i, j] == HEAD:
                assert neg[1] == pos[1] and neg[2] == pos[2]
            else:
                assert neg[0] == pos[0] and neg[1] == pos[1]


def test_uniform_filtered_against_train(toy_kg):
    _, kg = toy_kg
    nb = uniform_negatives(kg, np.repeat(kg.train, 20, axis=0), 50, seed=9)
    in_train = kg.in_train(nb.negatives)
    assert not in_train[~nb.fallback].any()


def test_uniform_rejects_zero_negatives(toy_kg):
    _, kg = toy_kg
    with pytest.raises(ValueError, match="n_neg"):
        uniform_negatives(kg, kg.train, 0, seed=0)


def corrupt_rechecking_everything(kg, positives, n_neg, head_prob, rng, node_ids=None):
    """The corruption loop as it was when every round re-checked all B x N negatives.

    Returns the batch and the number of redraw rounds that ran.
    """
    b = positives.shape[0]
    m = kg.n_entities if node_ids is None else len(node_ids)
    slot = np.where(rng.random((b, n_neg)) < head_prob, HEAD, TAIL).astype(np.uint8)
    negatives = np.repeat(positives[:, None, :], n_neg, axis=1)
    cols = np.where(slot == HEAD, 0, 2)
    rows = np.arange(b)[:, None]
    negs = np.arange(n_neg)[None, :]

    def in_train(tr):
        if node_ids is not None:
            tr = tr.copy()
            tr[..., 0] = node_ids[tr[..., 0]]
            tr[..., 2] = node_ids[tr[..., 2]]
        return kg.in_train(tr)

    negatives[rows, negs, cols] = rng.integers(0, m, size=(b, n_neg), dtype=np.int64)
    bad = in_train(negatives)
    rounds = 0
    for _ in range(RETRY_CAP):
        if not bad.any():
            break
        bi, bj = bad.nonzero()
        redraw = rng.integers(0, m, size=len(bi), dtype=np.int64)
        negatives[bi, bj, cols[bi, bj]] = redraw
        bad = in_train(negatives)
        rounds += 1
    return (negatives, slot, bad), rounds


@pytest.mark.parametrize("local", [False, True], ids=["plain", "node_ids"])
def test_corrupt_rechecking_redraws_only_equals_rechecking_everything(local):
    """On a dense KG, where negatives collide for 6 to 10 rounds, the draws are the same."""
    rng = np.random.default_rng(41)
    _, kg = make_kg(random_label_triples(rng, 20, 2, 300))
    node_ids = np.arange(2, kg.n_entities) if local else None
    positives = kg.train[:60]
    if local:  # positives as indices into node_ids
        positives = positives[(positives[:, [0, 2]] >= 2).all(axis=1)].copy()
        positives[:, [0, 2]] -= 2
    head_prob = np.linspace(0.1, 0.9, len(positives))[:, None]
    rounds_run = []
    for seed in range(5):
        got = sampling._corrupt(
            kg, positives, 16, head_prob, np.random.default_rng(seed), node_ids
        )
        (negatives, slot, bad), rounds = corrupt_rechecking_everything(
            kg, positives, 16, head_prob, np.random.default_rng(seed), node_ids
        )
        rounds_run.append(rounds)
        assert got.negatives.tobytes() == negatives.tobytes()
        assert got.slot.tobytes() == slot.tobytes()
        assert got.fallback.tobytes() == bad.tobytes()
    assert min(rounds_run) >= 3 and min(rounds_run) < RETRY_CAP  # some runs end before the cap


# --- Bernoulli -------------------------------------------------------------


def test_bernoulli_table_fixture_values(bern_fixture):
    _, kg = bern_fixture
    table = bernoulli_table(kg)
    assert table.tph[0] == pytest.approx(1.5)
    assert table.hpt[0] == pytest.approx(1.5)
    assert table.p_head[0] == pytest.approx(0.5)


def test_bernoulli_one_to_one_relation():
    _, kg = make_kg([("a", "r", "b"), ("c", "r", "d")])
    table = bernoulli_table(kg)
    assert table.p_head[0] == pytest.approx(0.5)


def test_bernoulli_table_bounds(toy_kg):
    _, kg = toy_kg
    table = bernoulli_table(kg)
    present = ~np.isnan(table.p_head)
    assert ((table.p_head[present] >= 0) & (table.p_head[present] <= 1)).all()
    assert (table.tph[present] >= 1).all() and (table.hpt[present] >= 1).all()
    p_tail = 1.0 - table.p_head[present]
    assert np.allclose(table.p_head[present] + p_tail, 1.0)


def bernoulli_oracle(kg):
    """tph / hpt / p_head by set counting over the raw train rows."""
    counts = np.zeros(kg.n_relations)
    heads = [set() for _ in range(kg.n_relations)]
    tails = [set() for _ in range(kg.n_relations)]
    for h, r, t in kg.train.tolist():
        counts[r] += 1
        heads[r].add(h)
        tails[r].add(t)
    tph = np.full(kg.n_relations, np.nan)
    hpt = np.full(kg.n_relations, np.nan)
    for r in range(kg.n_relations):
        if counts[r] > 0:
            tph[r] = counts[r] / len(heads[r])
            hpt[r] = counts[r] / len(tails[r])
    with np.errstate(invalid="ignore"):
        return tph, hpt, tph / (tph + hpt)


@pytest.mark.parametrize("seed", range(6))
def test_bernoulli_table_matches_set_counting(seed):
    rng = np.random.default_rng(seed)
    labels = random_label_triples(rng, 12, 5, 80)
    labels += labels[:15]  # duplicate lines each count
    _, kg = make_kg(labels, valid=[("e0", "ghost", "e1")])  # a relation absent from train
    table = bernoulli_table(kg)
    for got, expect in zip((table.tph, table.hpt, table.p_head), bernoulli_oracle(kg)):
        assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()


def test_bern_empirical_frequency(bern_fixture):
    _, kg = bern_fixture
    table = bernoulli_table(kg)
    pos = np.repeat(kg.train[:1], 1000, axis=0)
    nb = bern_negatives(kg, pos, 100, table, seed=21)
    freq = (nb.slot == HEAD).mean()
    assert abs(freq - table.p_head[0]) < 0.01


def test_bern_missing_relation_errors(bern_fixture):
    vocab, kg = bern_fixture
    # relation id present in vocab but absent from train: extend vocab via valid
    vocab2, kg2 = make_kg(
        [("a", "r", "b"), ("a", "r", "c"), ("d", "r", "b")],
        valid=[("a", "s", "b")],
    )
    table = bernoulli_table(kg2)
    ghost = np.array([[0, vocab2.relation_to_id["s"], 1]])
    with pytest.raises(ValueError, match="does not occur"):
        bern_negatives(kg2, ghost, 2, table, seed=0)


def test_bern_deterministic(bern_fixture):
    _, kg = bern_fixture
    table = bernoulli_table(kg)
    a = bern_negatives(kg, kg.train, 6, table, seed=2)
    b = bern_negatives(kg, kg.train, 6, table, seed=2)
    assert a.negatives.tobytes() == b.negatives.tobytes()


# --- all_negatives ---------------------------------------------------------


def test_all_negatives_counts():
    _, kg = make_kg([("a", "r", "b"), ("c", "r", "a")])
    cands = all_negatives((0, 0, 1), TAIL, kg)
    assert len(cands) == kg.n_entities == 3


def test_all_negatives_contains_positive():
    _, kg = make_kg([("a", "r", "b"), ("c", "r", "a")])
    triple = (0, 0, 1)
    cands = all_negatives(triple, TAIL, kg)
    assert tuple(cands[1]) == triple
    cands = all_negatives(triple, HEAD, kg)
    assert tuple(cands[0]) == triple


def test_all_negatives_bad_slot(toy_kg):
    _, kg = toy_kg
    with pytest.raises(ValueError, match="slot"):
        all_negatives((0, 0, 0), 2, kg)


# --- graph sampling --------------------------------------------------------


def test_sample_graph_single_edge(toy_kg):
    _, kg = toy_kg
    g = sample_graph(kg, 1, 1, seed=0)
    assert len(g.edges) == 1
    assert g.edge_norm[0] == 1.0


def test_sample_graph_shared_dst_rel_norm():
    _, kg = make_kg([("a", "r", "c"), ("b", "r", "c"), ("x", "s", "y")])
    g = sample_graph(kg, 3, 1, seed=1)
    shared = [
        e
        for e, (s, r, d) in enumerate(g.edges)
        if r == 0 and g.node_ids[d] != g.node_ids[g.edges[0, 0]]
    ]
    key = {}
    for e, (s, r, d) in enumerate(g.edges):
        key.setdefault((int(r), int(d)), []).append(e)
    for (_, _), es in key.items():
        for e in es:
            assert g.edge_norm[e] == pytest.approx(1.0 / len(es))


def test_sample_graph_norms_match_recount(toy_kg):
    _, kg = toy_kg
    rng = np.random.default_rng(0)
    big = [
        (f"e{rng.integers(20)}", f"r{rng.integers(4)}", f"e{rng.integers(20)}")
        for _ in range(150)
    ]
    _, big_kg = make_kg(big)
    g = sample_graph(big_kg, 100, 2, seed=8)
    # recount by full scan of the batch
    for e, (s, r, d) in enumerate(g.edges):
        same = sum(1 for (s2, r2, d2) in g.edges if r2 == r and d2 == d)
        assert g.edge_norm[e] == pytest.approx(1.0 / same)


def test_sample_graph_group_norms_sum_to_one(toy_kg):
    _, kg = toy_kg
    g = sample_graph(kg, len(kg.train), 1, seed=4)
    sums = {}
    for e, (s, r, d) in enumerate(g.edges):
        sums[(int(r), int(d))] = sums.get((int(r), int(d)), 0.0) + g.edge_norm[e]
    assert all(abs(v - 1.0) < 1e-12 for v in sums.values())


def test_sample_graph_node_set(toy_kg):
    _, kg = toy_kg
    g = sample_graph(kg, 5, 1, seed=3)
    local_used = set(g.edges[:, 0].tolist()) | set(g.edges[:, 2].tolist())
    assert local_used == set(range(len(g.node_ids)))
    assert (g.edges[:, [0, 2]] < len(g.node_ids)).all()


def test_sample_graph_too_many_edges(toy_kg):
    _, kg = toy_kg
    with pytest.raises(ValueError, match="exceeds"):
        sample_graph(kg, len(kg.train) + 1, 1, seed=0)


def test_sample_graph_deterministic(toy_kg):
    _, kg = toy_kg
    a = sample_graph(kg, 6, 2, seed=13)
    b = sample_graph(kg, 6, 2, seed=13)
    assert (a.edges == b.edges).all()
    assert (a.negatives.negatives == b.negatives.negatives).all()


def test_mask_edges_recomputes_norms(toy_kg):
    _, kg = toy_kg
    g = full_graph(kg, n_neg=1, seed=0)
    masked = mask_edges(g, 0.5, seed=5)
    assert len(masked.edges) <= len(g.edges)
    sums = {}
    for e, (s, r, d) in enumerate(masked.edges):
        sums[(int(r), int(d))] = sums.get((int(r), int(d)), 0.0) + masked.edge_norm[e]
    assert all(abs(v - 1.0) < 1e-12 for v in sums.values())
    assert masked.negatives is g.negatives


def test_full_graph_covers_entities(toy_kg):
    _, kg = toy_kg
    g = full_graph(kg)
    assert (g.node_ids == np.arange(kg.n_entities)).all()
    assert len(g.edges) == len(kg.train)


def test_full_graph_without_negatives(toy_kg):
    _, kg = toy_kg
    plain, bare = full_graph(kg), full_graph(kg, n_neg=0)
    assert np.array_equal(bare.edges, plain.edges)
    assert np.array_equal(bare.edge_norm, plain.edge_norm)
    assert bare.negatives.negatives.shape == (len(kg.train), 0, 3)


def test_full_graph_without_negatives_makes_no_membership_query():
    _, kg = make_kg([("a", "r", "b"), ("b", "r", "c"), ("a", "s", "c")])
    negatives = full_graph(kg, n_neg=0).negatives
    assert "bits" not in vars(kg.train_index)  # the membership table was never built
    assert negatives.positives.shape == (3, 3)
    for name, dtype in (("replaced", np.int64), ("slot", np.uint8), ("fallback", bool)):
        array = getattr(negatives, name)
        assert (array.dtype, array.shape) == (dtype, (3, 0)), name


def lexsort_graph(kg, picked):
    """The graph construction that preceded the packed-key sort: ``lexsort``
    by (dst, rel, src), and norms from ``np.unique`` counts."""
    picked = picked[np.lexsort((picked[:, 0], picked[:, 1], picked[:, 2]))]
    node_ids = np.unique(picked[:, [0, 2]])
    src = np.searchsorted(node_ids, picked[:, 0])
    dst = np.searchsorted(node_ids, picked[:, 2])
    edges = np.stack([src, picked[:, 1], dst], axis=1).astype(np.int64)
    group = edges[:, 2] * (edges[:, 1].max() + 1) + edges[:, 1]
    _, inverse, counts = np.unique(group, return_inverse=True, return_counts=True)
    return node_ids, edges, 1.0 / counts[inverse]


@pytest.mark.parametrize("seed", range(3))
def test_graphs_equal_the_lexsort_reference_bytewise(seed):
    rng = np.random.default_rng(seed)
    labels = random_label_triples(rng, 15, 4, 80)
    labels += [labels[i] for i in rng.integers(0, len(labels), 20)]  # duplicate lines
    _, kg = make_kg(labels)
    assert len(np.unique(kg.train, axis=0)) < len(kg.train)
    assert (np.diff(kg.train[:, 2]) < 0).any()  # train is not in (dst, rel, src) order

    full = full_graph(kg, n_neg=0)
    _, edges, norm = lexsort_graph(kg, kg.train)
    graphs = [(full, (np.arange(kg.n_entities), edges, norm))]  # full_graph keeps every entity
    for n_edges in (1, 30, len(kg.train)):
        picked = kg.train[np.random.default_rng(seed).choice(len(kg.train), n_edges, replace=False)]
        graphs.append((sample_graph(kg, n_edges, 1, seed=seed), lexsort_graph(kg, picked)))
    for graph, (node_ids, edges, norm) in graphs:
        got_arrays = (graph.node_ids, graph.edges, graph.edge_norm)
        for got, want in zip(got_arrays, (node_ids, edges, norm)):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
