import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgembed.evaluate import (
    CKGEScorer,
    RankingReport,
    build_filter_sets,
    evaluate,
    ranks_for_queries,
)
from kgembed.models import init_params, score
from kgembed.sampling import HEAD, TAIL

from conftest import make_kg, random_label_triples


class MatrixScorer:
    """Fixed score matrices per direction, for controlled rank tests."""

    def __init__(self, head_matrix, tail_matrix):
        self.matrices = {HEAD: np.asarray(head_matrix, float), TAIL: np.asarray(tail_matrix, float)}

    def score_candidates(self, queries, slot):
        return self.matrices[slot][: len(queries)].copy()


def known_completions(kg, h, r, t, slot):
    """Entities completing the open slot in any split, scanned from the raw id arrays."""
    every = np.concatenate([kg.train, kg.valid, kg.test]).tolist()
    if slot == TAIL:
        return {c for a, b, c in every if (a, b) == (h, r)}
    return {a for a, b, c in every if (b, c) == (r, t)}


def bruteforce_report(params, kg, queries, filters, ks=(1, 3, 10)):
    """Independent oracle: per-candidate score() calls, explicit filtering
    from a scan of the raw splits (``filters`` is not read), explicit
    greater/equal counting with the published mid-rank rule."""
    out = {}
    for name, slot in (("head", HEAD), ("tail", TAIL)):
        ranks = []
        for h, r, t in queries:
            h, r, t = int(h), int(r), int(t)
            target = t if slot == TAIL else h
            known = known_completions(kg, h, r, t, slot)
            cand_scores = {}
            for e in range(kg.n_entities):
                triple = [h, r, e] if slot == TAIL else [e, r, t]
                cand_scores[e] = float(score(params, np.array([triple]))[0])
            target_score = cand_scores[target]
            greater = equal = 0
            for e, s in cand_scores.items():
                if e != target and e in known:
                    continue  # filtered
                if s > target_score:
                    greater += 1
                elif s == target_score:
                    equal += 1
            ranks.append(1 + greater + equal // 2)
        # exactly-rounded sum, as in the library's aggregation
        import math

        mrr = math.fsum(1.0 / r for r in ranks) / len(ranks)
        hits = {k: sum(r <= k for r in ranks) / len(ranks) for k in ks}
        out[name] = (mrr, hits)
    return out


def test_rank_one_when_target_strictly_highest():
    _, kg = make_kg([("a", "r", "b"), ("c", "r", "a")])
    filters = build_filter_sets(kg)
    m = np.full((1, kg.n_entities), -5.0)
    m[0, 1] = 10.0  # entity b
    scorer = MatrixScorer(m, m)
    ranks = ranks_for_queries(scorer, np.array([[0, 0, 1]]), TAIL, filters)
    assert ranks[0] == 1


def test_mrr_arithmetic_two_queries():
    # ranks {1, 2} -> MRR 0.75, Hits@1 0.5
    _, kg = make_kg([("a", "r", "b"), ("c", "r", "d")])
    filters = build_filter_sets(kg)
    m = np.zeros((2, kg.n_entities))
    m[0, 1] = 3.0  # query 0 target b=1 ranked 1
    m[1, 0] = 5.0
    m[1, 3] = 4.0  # query 1 target d=3 ranked 2
    scorer = MatrixScorer(m, m)
    report = evaluate(scorer, kg, np.array([[0, 0, 1], [2, 0, 3]]), filters)
    assert report.tail.mrr == pytest.approx((1.0 + 0.5) / 2)
    assert report.tail.hits[1] == pytest.approx(0.5)


def test_filtering_removes_other_true_completions():
    # two true tails for the same (h, r); the other one must not outrank
    _, kg = make_kg([("a", "r", "b"), ("a", "r", "c")])
    filters = build_filter_sets(kg)
    m = np.zeros((1, kg.n_entities))
    m[0, 2] = 9.0  # c scores higher
    m[0, 1] = 5.0  # target b second-highest raw
    scorer = MatrixScorer(m, m)
    ranks = ranks_for_queries(scorer, np.array([[0, 0, 1]]), TAIL, filters)
    assert ranks[0] == 1  # c filtered out


def test_constant_scores_mid_rank():
    _, kg = make_kg([(f"e{i}", "r", f"e{i+1}") for i in range(9)])
    filters = build_filter_sets(kg)
    n = kg.n_entities
    scorer = MatrixScorer(np.zeros((1, n)), np.zeros((1, n)))
    query = kg.train[:1]
    ranks = ranks_for_queries(scorer, query, TAIL, filters)
    # all candidates tie: filtered ones removed, remaining m tie -> rank ~ m/2
    h, r, t = (int(x) for x in query[0])
    m = n - (len(known_completions(kg, h, r, t, TAIL)) - 1)
    assert ranks[0] == 1 + 0 + m // 2


def test_rank_monotone_in_target_score():
    _, kg = make_kg([("a", "r", "b"), ("c", "r", "d"), ("e", "r", "f")])
    filters = build_filter_sets(kg)
    base = np.linspace(0, 1, kg.n_entities)[None, :].copy()
    prev_rank = None
    for target_score in (-1.0, 0.4, 0.7, 2.0):
        m = base.copy()
        m[0, 1] = target_score
        scorer = MatrixScorer(m, m)
        rank = ranks_for_queries(scorer, np.array([[0, 0, 1]]), TAIL, filters)[0]
        if prev_rank is not None:
            assert rank <= prev_rank
        prev_rank = rank


def test_empty_split_errors(toy_kg):
    _, kg = toy_kg
    filters = build_filter_sets(kg)
    params = init_params("distmult", kg.n_entities, kg.n_relations, 4, seed=0)
    with pytest.raises(ValueError, match="empty"):
        evaluate(CKGEScorer(params), kg, np.zeros((0, 3), dtype=np.int64), filters)


def test_metric_bounds_and_direction_average(toy_kg):
    _, kg = toy_kg
    filters = build_filter_sets(kg)
    params = init_params("complex", kg.n_entities, kg.n_relations, 4, seed=1)
    report = evaluate(CKGEScorer(params), kg, "valid", filters)
    assert 0 < report.mrr <= 1
    assert report.hits(1) <= report.hits(3) <= report.hits(10) <= 1
    assert report.mrr == pytest.approx(0.5 * (report.head.mrr + report.tail.mrr))


@pytest.mark.parametrize("model", ["transe", "distmult", "rotate"])
def test_matches_bruteforce_oracle_spot(model, toy_kg):
    _, kg = toy_kg
    filters = build_filter_sets(kg)
    params = init_params(model, kg.n_entities, kg.n_relations, 4, seed=2)
    report = evaluate(CKGEScorer(params), kg, "test", filters)
    oracle = bruteforce_report(params, kg, kg.test, filters)
    assert report.head.mrr == pytest.approx(oracle["head"][0], abs=0)
    assert report.tail.mrr == pytest.approx(oracle["tail"][0], abs=0)
    for k in (1, 3, 10):
        assert report.head.hits[k] == oracle["head"][1][k]
        assert report.tail.hits[k] == oracle["tail"][1][k]


def test_limit_fraction_prefix_deterministic(toy_kg):
    _, kg = toy_kg
    filters = build_filter_sets(kg)
    params = init_params("distmult", kg.n_entities, kg.n_relations, 4, seed=3)
    scorer = CKGEScorer(params)
    a = evaluate(scorer, kg, "train", filters, limit_fraction=0.5, seed=9)
    b = evaluate(scorer, kg, "train", filters, limit_fraction=0.5, seed=9)
    assert a.mrr == b.mrr and a.n_queries == b.n_queries
    assert a.n_queries == int(np.ceil(0.5 * len(kg.train)))
    with pytest.raises(ValueError, match="limit_fraction"):
        evaluate(scorer, kg, "train", filters, limit_fraction=0.0)


def test_threads_do_not_change_results(toy_kg):
    _, kg = toy_kg
    filters = build_filter_sets(kg)
    params = init_params("rotate", kg.n_entities, kg.n_relations, 4, seed=4)
    scorer = CKGEScorer(params)
    queries = np.tile(kg.train, (80, 1))  # 800 queries: exercises multi-chunk path
    serial = evaluate(scorer, kg, queries, filters, threads=1)
    threaded = evaluate(scorer, kg, queries, filters, threads=4)
    assert serial.mrr == threaded.mrr
    assert serial.head.hits == threaded.head.hits


# --- fast kernels with a certified tie band --------------------------------

BAND_MODELS = [("transe", 1), ("transe", 2), ("transh", 1), ("transr", 1), ("distmult", 1),
               ("complex", 1), ("rotate", 1), ("simple", 1)]
ENTITY_TABLES = ("ent", "ent_h", "ent_t")


def band_kg():
    rng = np.random.default_rng(20)
    return make_kg(random_label_triples(rng, 12, 2, 30))[1]


def band_params(model, p, kg, seed=0):
    params = init_params(model, kg.n_entities, kg.n_relations, 12, seed=seed)
    params.transe_p = p
    if model == "transr":
        rng = np.random.default_rng(seed)
        params.tables["proj"] += rng.normal(0, 0.3, params.tables["proj"].shape).astype(np.float32)
    return params


def dup_rows(params):
    for name in ENTITY_TABLES:
        if name in params.tables:
            t = params.tables[name]
            t[1:4] = t[0]
            t[5:7] = t[4]


def ulp_rows(params):
    for name in ENTITY_TABLES:
        if name in params.tables:
            t = params.tables[name]
            t[1] = t[0]
            t[1, 0] = np.nextafter(t[0, 0], np.float32(np.inf))
            t[2] = t[0]
            t[2, -1] = np.nextafter(t[0, -1], np.float32(-np.inf))
            t[5] = t[4]
            t[5, 1] = np.nextafter(t[4, 1], np.float32(np.inf))


def zero_tables(params):
    for t in params.tables.values():
        t[...] = 0.0


def scaled_rows(params):
    ulp_rows(params)
    for name in ENTITY_TABLES:
        if name in params.tables:
            params.tables[name] *= np.float32(1e6)


def permuted_rows(params):
    """Candidates whose real-number tail scores tie and whose float scores differ in the
    last bits: entities 4.. permute one vector, entities 0-3 and every relation are
    constant (per half for the 2d-wide tables), TransH normals and TransR maps are
    permutation-equivariant."""
    rng = np.random.default_rng(21)
    for name in ENTITY_TABLES:
        if name in params.tables:
            t = params.tables[name]
            halves = 2 if t.shape[1] == 2 * params.dim else 1
            base = rng.normal(size=params.dim).astype(np.float32)
            t[:4] = np.float32(0.3)
            for row in range(4, len(t)):
                t[row] = np.concatenate([rng.permutation(base) for _ in range(halves)])
    params.tables["rel"][...] = np.float32(0.7)
    if "rel_inv" in params.tables:
        params.tables["rel_inv"][...] = np.float32(-0.4)
    if "norm" in params.tables:
        params.tables["norm"][...] = np.float32(1.0 / np.sqrt(params.dim))
    if "proj" in params.tables:
        params.tables["proj"][...] = np.eye(params.dim, dtype=np.float32)


# queries whose open slot is an entity with tied or near-tied copies; heads 0-2 are the
# constant rows of permuted_rows
BAND_QUERIES = np.array([[0, 0, 4], [1, 1, 6], [2, 0, 9], [4, 1, 0], [8, 0, 3], [0, 1, 1]])


def assert_matches_oracle(params, kg, queries):
    """Per query (so MRR is the reciprocal rank) and direction, exactly."""
    filters = build_filter_sets(kg)
    scorer = CKGEScorer(params)
    for q in queries:
        report = evaluate(scorer, kg, q[None], filters)
        oracle = bruteforce_report(params, kg, q[None], filters)
        assert report.head.mrr == oracle["head"][0], (q, "head")
        assert report.tail.mrr == oracle["tail"][0], (q, "tail")


@pytest.mark.parametrize(
    "scenario",
    [dup_rows, ulp_rows, zero_tables, scaled_rows, permuted_rows],
    ids=["duplicate-rows", "one-ulp", "all-zero", "scaled-1e6", "permuted-rows"],
)
@pytest.mark.parametrize("model,p", BAND_MODELS)
def test_fast_ranks_match_oracle_on_ties(model, p, scenario):
    kg = band_kg()
    params = band_params(model, p, kg)
    scenario(params)
    assert_matches_oracle(params, kg, BAND_QUERIES)


@settings(max_examples=60, deadline=None)
@given(
    model=st.sampled_from(BAND_MODELS),
    dim=st.integers(1, 9),
    n_entities=st.integers(2, 9),
    log_scale=st.floats(-8, 8),
    sparsity=st.floats(0.0, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_fast_scores_within_bound(model, dim, n_entities, log_scale, sparsity, seed):
    """|fast - score()| <= bound for every entry, under random parameters."""
    kind, p = model
    rng = np.random.default_rng(seed)
    params = init_params(kind, n_entities, 3, dim, seed=seed)
    params.transe_p = p
    for name, t in params.tables.items():
        values = rng.normal(size=t.shape) * 10.0**log_scale * (rng.random(t.shape) >= sparsity)
        if kind == "rotate" and name == "rel":
            values = rng.uniform(-10, 10, t.shape)
        t[...] = values.astype(np.float32)
    queries = np.stack([rng.integers(0, n_entities, 4), rng.integers(0, 3, 4),
                        rng.integers(0, n_entities, 4)], axis=1)
    for slot in (HEAD, TAIL):
        fast, bounds = CKGEScorer(params).fast_candidates(queries, slot)
        for e in range(n_entities):
            probe = queries.copy()
            probe[:, 0 if slot == HEAD else 2] = e
            assert np.all(np.abs(fast[:, e] - score(params, probe)) <= bounds[:, e]), (slot, e)


def test_rows_holding_both_infinities_rank_without_warnings():
    _, kg = make_kg([("a", "r", "b"), ("c", "r", "d"), ("a", "r", "c")])
    filters = build_filter_sets(kg)
    inf = np.inf
    # query (a, r, b): a above b, c filtered; query (c, r, d): b above, a and c tie with d
    m = np.array([[inf, 5.0, inf, -inf], [-inf, inf, -inf, -inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ranks = ranks_for_queries(MatrixScorer(m, m), kg.train[:2], TAIL, filters)
    assert ranks.tolist() == [2, 3]


def test_non_finite_fast_scores_fall_back_to_exact():
    # float32 L1 accumulation overflows where float64 score() does not
    kg = band_kg()
    params = band_params("transe", 1, kg)
    big = np.float32(3.0e38)
    params.tables["ent"][0] = big
    params.tables["ent"][4] = -big
    params.tables["ent"][7] = big
    params.tables["ent"][7, ::2] = -big
    scores, _ = CKGEScorer(params).fast_candidates(BAND_QUERIES, TAIL)
    assert not np.isfinite(scores).all()
    assert_matches_oracle(params, kg, BAND_QUERIES)

