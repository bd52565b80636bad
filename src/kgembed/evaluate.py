"""Filtered link-prediction evaluation: MRR and Hits@K, per direction.

Protocol: for each query triple and each prediction direction, score every
entity in the open slot, drop all *other* known-true completions, and
rank the target with the mid-rank tie rule

    rank = 1 + |{s > s_target}| + floor(|{s == s_target}| / 2)

(the equal set includes the target itself). Mid-ranking keeps a
constant-output model at chance level instead of MRR ~ 1. The known
completions come from one :class:`kgembed.data.TripleIndex` over train +
valid + test (:func:`build_filter_sets`); a chunk of queries reads them as
CSR (row, entity) pairs from one lookup.

Ranks are exact: each equals the rank from per-triple float64 ``score``
values, bit for bit, ties included (an RGCN scorer is DistMult over the
encoded entities, so its scores are ``rgcn_score``'s). A scorer offers

- ``fast_candidates(queries, slot, cache) -> (scores, bounds)``: [B, E]
  fast scores and a [B, 1] a-priori bound per query on every candidate's
  distance from its exact score (the gamma_n * sum |a_k b_k| dot-product
  bound at the largest entity norm, see :mod:`kgembed.models`). ``cache``
  is a dict that lives for one ranking pass, where the scorer may keep
  entity-side work between chunks;
- ``score_triples(triples)``: exact scores of explicit triples.

A candidate whose fast score differs from the target's by more than
twice the query's bound is certainly above or below it. Only the band in
between, and the target, are re-scored exactly; so the kernels never
decide a comparison their rounding could flip. A query with any
non-finite fast score or bound takes zero scores and a zero bound, so
every unfiltered candidate ties its target and falls in the band: the
query ranks from exact scores of all its candidates. A scorer that has
only ``score_candidates(queries, slot)``, an exact [B, E] matrix, takes
the same path with bound zero. A NaN exact score of an unfiltered
candidate or of the target has no rank: it raises ``ValueError`` naming
the query's row and triple. Infinite scores rank as any others.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import models
from .data import HEAD, TAIL, IndexedKG, TripleIndex

DEFAULT_KS = (1, 3, 10)


@dataclass(frozen=True)
class DirectionReport:
    mrr: float
    hits: dict[int, float]
    n_queries: int


@dataclass(frozen=True)
class RankingReport:
    """Per-direction metrics plus their average."""

    head: DirectionReport
    tail: DirectionReport

    @property
    def n_queries(self) -> int:
        return self.head.n_queries

    @property
    def mrr(self) -> float:
        return 0.5 * (self.head.mrr + self.tail.mrr)

    def hits(self, k: int) -> float:
        return 0.5 * (self.head.hits[k] + self.tail.hits[k])


def build_filter_sets(kg: IndexedKG) -> TripleIndex:
    """Index every known triple, over train, valid and test."""
    every = np.concatenate([kg.train, kg.valid, kg.test])
    return TripleIndex(every, kg.n_entities, kg.n_relations)


# Queries ranked together: a chunk's [chunk, E] float64 arrays stay near
# cache size at the FB15K-237 entity count.
_CHUNK_QUERIES = 32

# Relative slack on the doubled bounds, covering the rounding of the
# difference in the band test.
_BAND_SLACK = 1.0 + 2.0**-40


def ranks_for_queries(
    scorer, queries: np.ndarray, slot: int, filters: TripleIndex, threads: int = 1
) -> np.ndarray:
    """Filtered rank of the true entity for each query, one direction."""
    queries = np.asarray(queries, dtype=np.int64)
    col = 2 if slot == TAIL else 0
    cache: dict = {}

    def run_chunk(lo: int) -> np.ndarray:
        chunk = queries[lo : lo + _CHUNK_QUERIES]
        n = len(chunk)
        rows = np.arange(n)
        target = chunk[:, col]
        if hasattr(scorer, "fast_candidates"):
            scores, bounds = scorer.fast_candidates(chunk, slot, cache)

            def exact(i, e):
                triples = chunk[i]
                triples[:, col] = e
                return scorer.score_triples(triples)

        else:
            matrix = scorer.score_candidates(chunk, slot)
            scores, bounds = matrix.copy(), np.zeros((n, 1))

            def exact(i, e):
                return matrix[i, e]

        known_rows, known = filters.completions(chunk, slot)
        with np.errstate(invalid="ignore", over="ignore"):
            # a row sum is finite only if every entry is (an overflow only costs exact ranking)
            finite = np.isfinite(scores.sum(axis=1) + bounds[:, 0])
            # a non-finite query ties every candidate with its target: all are scored exactly
            scores[~finite] = 0.0
            bounds = np.where(finite[:, None], bounds, 0.0)
            target_scores = scores[rows, target]
            scores[known_rows, known] = -np.inf  # filtered: certainly below the band
            scores[rows, target] = target_scores
            scores -= target_scores[:, None]
            bounds = (bounds + bounds) * _BAND_SLACK  # the candidate's and the target's
            greater = np.count_nonzero(scores > bounds, axis=1)
            band = np.abs(scores, out=scores) <= bounds

        bi, be = band.nonzero()
        band_scores = exact(bi, be)
        exact_targets = exact(rows, target)[bi]
        nan = bi[np.isnan(band_scores) | np.isnan(exact_targets)]  # NaN is neither above nor equal
        if len(nan):
            i = nan[0]
            raise ValueError(f"query row {lo + i} {tuple(chunk[i].tolist())}: NaN exact score")
        greater += np.bincount(bi[band_scores > exact_targets], minlength=n)
        equal = np.bincount(bi[band_scores == exact_targets], minlength=n)
        return 1 + greater + equal // 2

    starts = range(0, len(queries), _CHUNK_QUERIES)
    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run_chunk, starts))
    else:
        parts = [run_chunk(lo) for lo in starts]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def evaluate(
    scorer,
    kg: IndexedKG,
    split,
    filters: TripleIndex,
    ks: tuple[int, ...] = DEFAULT_KS,
    limit_fraction: float | None = None,
    seed: int = 0,
    threads: int = 1,
) -> RankingReport:
    """Filtered MRR / Hits@K over a split, head and tail directions.

    ``split`` is "valid", "test", "train", or an explicit [n, 3] array.
    ``limit_fraction`` evaluates a deterministic prefix of the
    seed-shuffled query list (debugging aid; final evaluation passes None).
    """
    if isinstance(split, str):
        queries = getattr(kg, split)
    else:
        queries = np.asarray(split, dtype=np.int64)
    if len(queries) == 0:
        raise ValueError("cannot evaluate an empty split")
    if limit_fraction is not None:
        if not 0.0 < limit_fraction <= 1.0:
            raise ValueError(f"limit_fraction must be in (0, 1], got {limit_fraction}")
        if limit_fraction < 1.0:
            order = np.random.default_rng(seed).permutation(len(queries))
            queries = queries[order[: math.ceil(limit_fraction * len(queries))]]

    reports = {}
    for name, slot in (("head", HEAD), ("tail", TAIL)):
        ranks = ranks_for_queries(scorer, queries, slot, filters, threads=threads)
        # exactly-rounded sum: the aggregate is independent of summation order
        mrr = math.fsum(1.0 / r for r in ranks) / len(ranks)
        hits = {k: int((ranks <= k).sum()) / len(ranks) for k in ks}
        reports[name] = DirectionReport(mrr=mrr, hits=hits, n_queries=len(queries))
    return RankingReport(head=reports["head"], tail=reports["tail"])


class CKGEScorer:
    """Conventional KGE params behind the ranking interface."""

    def __init__(self, params):
        self.params = params

    def fast_candidates(
        self, queries: np.ndarray, slot: int, cache: dict | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        return models.fast_candidates(self.params, queries, slot, cache)

    def score_triples(self, triples: np.ndarray) -> np.ndarray:
        return models.score(self.params, triples)

    def score_candidates(self, queries: np.ndarray, slot: int) -> np.ndarray:
        """Exact [B, E] candidate matrix (the reference path, not used for ranking)."""
        return models.score_candidates(self.params, queries, slot)
