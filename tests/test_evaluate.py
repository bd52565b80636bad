import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgembed.config import TrainConfig
from kgembed.data import TripleIndex
from kgembed.evaluate import (
    CKGEScorer,
    RankingReport,
    build_filter_sets,
    evaluate,
    ranks_for_queries,
)
from kgembed.gnn import init_rgcn
from kgembed.models import init_params, score
from kgembed.sampling import HEAD, TAIL
from kgembed.train import make_scorer, train

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


@pytest.mark.parametrize("split", ["validation", "Test", "n_entities", ""])
def test_an_unknown_split_name_is_rejected_naming_it(toy_kg, split):
    """Only the three splits are read by name, not any attribute of the KG."""
    _, kg = toy_kg
    filters = build_filter_sets(kg)
    params = init_params("distmult", kg.n_entities, kg.n_relations, 4, seed=0)
    want = f"unknown split {split!r}: expected 'train', 'valid' or 'test'"
    with pytest.raises(ValueError, match=re.escape(want)):
        evaluate(CKGEScorer(params), kg, split, filters)


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
            assert np.all(np.abs(fast[:, e] - score(params, probe)) <= bounds[:, 0]), (slot, e)


def off_circle_phases(n):
    """The n float32 phases of a seeded scan whose float64 cos c and sin s put c^2 + s^2
    farthest from 1, measured exactly."""
    from fractions import Fraction

    theta = np.random.default_rng(22).uniform(-np.pi, np.pi, 4096).astype(np.float32)
    c, s = np.cos(theta.astype(np.float64)), np.sin(theta.astype(np.float64))
    off = [abs(Fraction(x) ** 2 + Fraction(y) ** 2 - 1) for x, y in zip(c.tolist(), s.tolist())]
    return theta[np.argsort(off)[-n:]]


@pytest.mark.parametrize(
    "odd_scale", [1e-4, 1e4], ids=["candidates-far-larger", "candidates-far-smaller"]
)
def test_rotate_bound_holds_where_cos_and_sin_leave_the_unit_circle(odd_scale):
    """The head slot ranks by ||e - R^T t||, which differs from ``score``'s ||R e - t|| by
    sum_k (c_k^2 + s_k^2 - 1)(|e_k|^2 - |t_k|^2): largest with these phases and with entity
    norms far from the query entity's. Entities 0 and 1 are scaled by ``odd_scale``."""
    kg = band_kg()
    params = init_params("rotate", kg.n_entities, kg.n_relations, 8, seed=3)
    params.tables["rel"][...] = off_circle_phases(params.tables["rel"].size).reshape(-1, 8)
    params.tables["ent"][:2] *= np.float32(odd_scale)
    queries = np.array([[0, 0, 1], [1, 1, 0], [0, 1, 5], [7, 0, 1], [3, 0, 0], [6, 1, 9]])
    for slot in (HEAD, TAIL):
        fast, bounds = CKGEScorer(params).fast_candidates(queries, slot)
        for e in range(kg.n_entities):
            probe = queries.copy()
            probe[:, 0 if slot == HEAD else 2] = e
            assert np.all(np.abs(fast[:, e] - score(params, probe)) <= bounds[:, 0]), (slot, e)
    assert_matches_oracle(params, kg, queries)


def test_rotate_ranks_both_slots_from_one_cached_distance_gemm():
    """Both slots read the one [e, 1, ||e||^2] entity array that TransE-L2 uses."""
    from kgembed import models

    params = init_params("rotate", 12, 2, 4, seed=0)
    cache = {}
    for slot in (HEAD, TAIL):
        models.fast_candidates(params, BAND_QUERIES, slot, cache)
        assert sorted(map(str, cache)) == ["ent", "terms"], slot
    assert cache["terms"].shape == (12, 2 * 4 + 2)


@pytest.mark.parametrize("model,p", BAND_MODELS + [("rgcn", 1)])
def test_fast_candidates_return_one_bound_per_query(model, p):
    kg = band_kg()
    if model == "rgcn":
        scorer = make_scorer(init_rgcn(kg.n_entities, kg.n_relations, 4, n_bases=2, seed=0), kg)
    else:
        scorer = CKGEScorer(band_params(model, p, kg))
    for slot in (HEAD, TAIL):
        scores, bounds = scorer.fast_candidates(BAND_QUERIES, slot, {})
        assert (scores.shape, scores.dtype) == ((len(BAND_QUERIES), kg.n_entities), np.float64)
        assert (bounds.shape, bounds.dtype) == ((len(BAND_QUERIES), 1), np.float64)


@pytest.mark.parametrize("slot", [HEAD, TAIL])
@pytest.mark.parametrize("model,p", BAND_MODELS + [("rgcn", 1)])
def test_fast_candidates_of_no_queries_are_empty(model, p, slot):
    """No query is [0, E] scores and [0, 1] bounds, TransR's per-relation entity norms too."""
    kg = band_kg()
    if model == "rgcn":
        scorer = make_scorer(init_rgcn(kg.n_entities, kg.n_relations, 4, n_bases=2, seed=0), kg)
    else:
        scorer = CKGEScorer(band_params(model, p, kg))
    scores, bounds = scorer.fast_candidates(np.zeros((0, 3), dtype=np.int64), slot, {})
    assert (scores.shape, scores.dtype) == ((0, kg.n_entities), np.float64)
    assert (bounds.shape, bounds.dtype) == ((0, 1), np.float64)


@pytest.mark.parametrize("model,p", BAND_MODELS)
def test_ranking_a_chunk_holds_no_bound_per_candidate(model, p):
    """One 32-query chunk over 20,000 entities peaks below 2.75 [32, E] float64 arrays.

    The scores take one; a [32, E] bound array, or a copy of the scores for
    the band test, would take the peak past the limit.
    """
    import tracemalloc

    n_e, n_r = 20_000, 3
    rng = np.random.default_rng(0)
    queries = np.stack([rng.integers(0, n_e, 32), rng.integers(0, n_r, 32),
                        rng.integers(0, n_e, 32)], axis=1)
    filters = TripleIndex(queries, n_e, n_r)
    params = init_params(model, n_e, n_r, 4, seed=0)
    params.transe_p = p
    for slot in (HEAD, TAIL):
        tracemalloc.start()
        try:
            ranks_for_queries(CKGEScorer(params), queries, slot, filters)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.75 * 32 * n_e * 8, (slot, peak)


class CountingScorer:
    """A scorer that counts the triples it is asked to score exactly."""

    def __init__(self, scorer):
        self.scorer, self.rescored = scorer, 0

    def fast_candidates(self, queries, slot, cache):
        return self.scorer.fast_candidates(queries, slot, cache)

    def score_triples(self, triples):
        self.rescored += len(triples)
        return self.scorer.score_triples(triples)


@pytest.fixture(scope="module")
def trained_band_kg():
    rng = np.random.default_rng(5)
    return make_kg(random_label_triples(rng, 1000, 4, 2000))[1]


@pytest.mark.parametrize("model,p", BAND_MODELS + [("rgcn", 1)])
def test_band_stays_small_on_trained_parameters(model, p, trained_band_kg):
    """Few candidates besides the target are re-scored exactly.

    Parameters trained three epochs (d 16, 1,000 entities) put at most
    0.015 candidates per query in the band (TransE-L1, float32); the limit
    leaves a margin of about 7x.
    """
    kg = trained_band_kg
    config = TrainConfig(model=model, transe_p=p, dim=16, n_bases=2, lr=0.05,
                         loss="bce" if model == "rgcn" else "self_adversarial", margin=4.0,
                         n_neg=4, batch_size=64, max_epochs=3, check_per_epoch=3, seed=1)
    scorer = CountingScorer(make_scorer(train(config, kg).last.params, kg))
    filters = build_filter_sets(kg)
    queries = kg.train[:200]
    for slot in (HEAD, TAIL):
        scorer.rescored = 0
        ranks_for_queries(scorer, queries, slot, filters)
        # each target is scored twice: in its band and as the reference
        band = (scorer.rescored - 2 * len(queries)) / len(queries)
        assert band <= 0.1, (slot, band)


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


def test_all_nan_tables_do_not_rank_every_target_first():
    """A NaN target would rank 1: nothing is above it or equal to it."""
    _, kg = make_kg([("a", "r", "b"), ("c", "r", "d"), ("a", "r", "c")])
    params = init_params("distmult", kg.n_entities, kg.n_relations, 4, seed=0)
    for table in params.tables.values():
        table[...] = np.nan
    with pytest.raises(ValueError, match=r"^query row 0 \(0, 0, 1\): NaN exact score$"):
        evaluate(CKGEScorer(params), kg, "train", build_filter_sets(kg))


@pytest.mark.parametrize("slot", [HEAD, TAIL])
def test_a_nan_candidate_names_its_query_row_and_triple(monkeypatch, slot):
    """Relation 1 is NaN: query row 2 is the first to score it, in the second chunk of two."""
    import importlib

    _, kg = make_kg([("a", "r", "b"), ("c", "r", "d"), ("a", "s", "c"), ("b", "s", "d")])
    params = init_params("distmult", kg.n_entities, kg.n_relations, 4, seed=0)
    params.tables["rel"][1] = np.nan
    monkeypatch.setattr(importlib.import_module("kgembed.evaluate"), "_CHUNK_QUERIES", 2)
    with pytest.raises(ValueError, match=r"^query row 2 \(0, 1, 2\): NaN exact score$"):
        ranks_for_queries(CKGEScorer(params), kg.train, slot, build_filter_sets(kg))


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



def test_score_triples_of_no_triples_is_empty():
    params = init_params("transe", 5, 2, 4, seed=0)
    scores = CKGEScorer(params).score_triples(np.zeros((0, 3), dtype=np.int64))
    assert scores.shape == (0,) and scores.dtype == np.float64
