"""Conventional KGE models: parameter tables, scoring, and hand-derived gradients.

Seven models share one convention: ``score`` returns float64, higher =
more plausible (distance models negate the distance). Parameters are
stored float32; all score/loss/gradient arithmetic upcasts to float64.

Gradients are derived by hand per model and composed with the loss
derivatives from :mod:`kgembed.losses`; correctness is pinned by the
finite-difference test suite rather than an autodiff dependency. Each
model is one formula, which reads a triple's head, relation and tail rows
through an accessor, builds the forward once and returns the scores. When
the accessor has a coefficient callback, the formula asks it for the
coefficients of those scores and hands each row's derivative, with the
coefficient that scales it, back to the accessor from the same
temporaries.

There is one accessor, :class:`_Query`, and every score and gradient runs
in its query form: b positives and the entities that replace one slot of
each, a [b, N] batch of queries. A :class:`NegBatch` is that form as the
sampler draws it (``positives``, ``replaced``, ``slot``), so a negative
keeps its positive's relation and the entity its slot left alone (the
anchor) by construction. The relation rows (TransR's projections too) are
gathered once per positive and broadcast over its corruptions, and the
entity rows once per corruption. Explicit triples (``score``, and in
:func:`grad` a :class:`NegBatch`'s positives or a :class:`LabeledBatch`'s
triples, with any soft-labeled triples after them) are [n, 1] queries,
each triple its own tail corruption; a candidate sweep
(``score_candidates``) is a [B, n_entities] batch over every entity. The
formulas see each corruption's rows in the order of its own triple, so
every score is the same bit for bit whichever batch it comes in.

:func:`grad` runs each chunk of queries once. Every loss is a mean whose
normalizer is known before any score is (margin divides by B·N, bce by
B·(N+1), self-adversarial by B after a softmax over each positive's own
negatives), so a chunk's coefficients follow from its own scores: in a
:class:`NegBatch` each positive leads its negatives in one [B, 1 + N]
query group, as the tail corruption by its own tail. The formula takes the
coefficients as soon as the chunk is scored and writes its derivatives
through one :class:`GradAccumulator`, which holds a zero row for every id
the queries can reach, scatters into it in place, and keeps only the rows
that were reached. A replaced entity gets coefficient * d(score)/d(row),
and an anchor the sum of those over the corruptions that use it, once per
positive. Corruptions with a zero coefficient reach no row. The loss is
taken once over the whole score arrays, so it is the same bit for bit as
over unchunked scores. Chunks hold about ``_GRAD_CHUNK_ELEMS`` float64
elements per table, so a call's memory grows by a few ids and scores per
triple, not by its gathered rows.

Candidate scoring (one slot swept over every entity) has two paths.

- ``fast_candidates`` is what ranking uses. Each model has one kernel:
  a GEMM ``q @ E.T`` for DistMult, ComplEx and SimplE; the
  ||a||^2 + ||e||^2 - 2 a.e GEMM for TransE-L2, TransH and RotatE; for
  TransR the same GEMM on M_r^T a, with ||M_r e||^2 computed once per
  relation; and a float32 per-dimension accumulation for TransE-L1.
  With the [B, E] scores it returns a per-entry bound on their distance
  from the float64 value ``score`` returns for that triple, ``score``'s
  own rounding included. The bound is the a-priori forward-error bound
  of a dot product, gamma_n * sum_k |a_k b_k| with
  gamma_n = n u / (1 - n u) (Higham, *Accuracy and Stability of
  Numerical Algorithms*, sec. 3.1), for the kernel and for ``score``.
  The sum of magnitudes is majorized by norms: ||p_b|| ||e|| for the
  bilinear models (Cauchy-Schwarz), N^2 with N = ||query side|| +
  f_b ||e|| for squared distances. n is at least twice the longest chain
  of roundings in either evaluation, so the slack also covers the
  rounding of the bound's own arithmetic. For -sqrt distance scores the
  bound on the squared distance is carried through the square root; for
  TransE-L1 float32's unit roundoff enters the bound. The bound assumes
  float32 parameters, whose products neither overflow nor underflow in
  float64; a non-finite score or bound voids it (ranking then scores
  that query exactly).
- ``score_candidates`` is the query-form sweep above, so it equals
  per-triple scores bit for bit by construction. It is the exact
  reference the candidate tests compare against and the path for scorers
  without ``fast_candidates``; ranking calls ``fast_candidates`` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .losses import (
    LossSpec,
    bce_loss,
    bce_loss_grads,
    margin_loss,
    margin_loss_grads,
    self_adversarial_loss,
    self_adversarial_loss_grads,
)
from .sampling import HEAD, TAIL, LabeledBatch, NegBatch

MODEL_KINDS = ("transe", "transh", "transr", "distmult", "complex", "rotate", "simple")

# tables indexed by entity id; the others are indexed by relation id
_ENTITY_TABLES = ("ent", "ent_h", "ent_t")

# sparse gradient: table name -> (sorted unique row ids, per-row grads, float64)
SparseGrad = dict[str, tuple[np.ndarray, np.ndarray]]


@dataclass
class ModelParams:
    """Embedding tables plus model-specific extras, float32.

    Table layout per model kind:
      transe/distmult: ent [nE, d], rel [nR, d]
      transh: + norm [nR, d] (hyperplane normals, unit rows)
      transr: + proj [nR, d, d] (per-relation projection, identity init)
      complex: ent [nE, 2d], rel [nR, 2d] (real halves then imaginary)
      rotate: ent [nE, 2d], rel [nR, d] (relation phases)
      simple: ent_h/ent_t [nE, d], rel/rel_inv [nR, d]

    ``version`` counts optimizer steps; consumers that cache derived
    quantities (e.g. soft labels) check it for staleness.
    """

    model: str
    dim: int
    tables: dict[str, np.ndarray]
    transe_p: int = 1
    version: int = 0

    @property
    def n_entities(self) -> int:
        name = "ent_h" if self.model == "simple" else "ent"
        return self.tables[name].shape[0]

    @property
    def n_relations(self) -> int:
        return self.tables["rel"].shape[0]

    def copy(self) -> "ModelParams":
        return replace(self, tables={k: v.copy() for k, v in self.tables.items()})


def init_params(model: str, n_entities: int, n_relations: int, dim: int, seed) -> ModelParams:
    """Seeded uniform init in [-6/sqrt(d), 6/sqrt(d)] per entry.

    Exceptions to the uniform bound: rotate phases are uniform in
    [-pi, pi), transr projections start at the identity, and transh
    normals are normalized to unit rows after drawing.
    """
    if model not in MODEL_KINDS:
        raise ValueError(f"unknown model kind: {model!r}")
    if dim < 1:
        raise ValueError(f"embedding dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    bound = 6.0 / np.sqrt(dim)

    def uni(shape):
        return rng.uniform(-bound, bound, size=shape).astype(np.float32)

    tables: dict[str, np.ndarray] = {}
    if model in ("transe", "transh", "transr", "distmult"):
        tables["ent"] = uni((n_entities, dim))
        tables["rel"] = uni((n_relations, dim))
        if model == "transh":
            w = uni((n_relations, dim)).astype(np.float64)
            w /= np.linalg.norm(w, axis=1, keepdims=True)
            tables["norm"] = w.astype(np.float32)
        elif model == "transr":
            tables["proj"] = np.broadcast_to(
                np.eye(dim, dtype=np.float32), (n_relations, dim, dim)
            ).copy()
    elif model == "complex":
        tables["ent"] = uni((n_entities, 2 * dim))
        tables["rel"] = uni((n_relations, 2 * dim))
    elif model == "rotate":
        tables["ent"] = uni((n_entities, 2 * dim))
        tables["rel"] = rng.uniform(-np.pi, np.pi, size=(n_relations, dim)).astype(np.float32)
    elif model == "simple":
        tables["ent_h"] = uni((n_entities, dim))
        tables["ent_t"] = uni((n_entities, dim))
        tables["rel"] = uni((n_relations, dim))
        tables["rel_inv"] = uni((n_relations, dim))
    return ModelParams(model=model, dim=dim, tables=tables)


def renormalize_entities(params: ModelParams) -> None:
    """Project entity rows onto the unit L2 sphere (epoch-start constraint)."""
    for name in _ENTITY_TABLES:
        if name in params.tables:
            t = params.tables[name]
            norms = np.linalg.norm(t.astype(np.float64), axis=1, keepdims=True)
            np.divide(t, np.maximum(norms, 1e-12), out=t, casting="unsafe")


def renormalize_normals(params: ModelParams) -> None:
    """Re-unit the transh hyperplane normals (after each optimizer step)."""
    if params.model != "transh":
        return
    t = params.tables["norm"]
    norms = np.linalg.norm(t.astype(np.float64), axis=1, keepdims=True)
    np.divide(t, np.maximum(norms, 1e-12), out=t, casting="unsafe")


def _check_ids(params: ModelParams, triples: np.ndarray) -> np.ndarray:
    triples = np.asarray(triples, dtype=np.int64)
    if triples.ndim != 2 or triples.shape[1] != 3:
        raise ValueError("triples must be an [n, 3] array")
    if triples.size:
        if triples.min() < 0:
            raise ValueError("negative id in triples")
        if triples[:, [0, 2]].max() >= params.n_entities:
            raise ValueError(
                f"entity id {triples[:, [0, 2]].max()} out of range ({params.n_entities} entities)"
            )
        if triples[:, 1].max() >= params.n_relations:
            raise ValueError(
                f"relation id {triples[:, 1].max()} out of range ({params.n_relations} relations)"
            )
    return triples


def _check_slot(slot: int) -> None:
    if slot not in (HEAD, TAIL):
        raise ValueError(f"slot must be HEAD (0) or TAIL (1), got {slot}")


def _rows(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    # ``take`` gathers rows faster than fancy indexing; the gather is already a
    # copy, so a float64 table (RGCN's encoded rows) needs no second one
    return table.take(ids, axis=0).astype(np.float64, copy=False)


# ---------------------------------------------------------------------------
# scoring


def score(params: ModelParams, triples: np.ndarray) -> np.ndarray:
    """Score triples under ``params.model``; returns float64 [n]."""
    triples = _check_ids(params, triples)
    return _query_scores(params, *_as_queries(triples))[:, 0]


# Each formula reads a triple's rows through the accessor ``x``, builds the
# forward once and returns the scores. Before returning it asks
# ``x.coef(scores)`` for the coefficients of those scores; unless that is
# None (scores only, or no coefficient is nonzero) it hands every row it
# read, with d(score)/d(row) and the coefficient that scales it, to
# ``x.add_h``, ``x.add_r`` or ``x.add_t``, built from the same temporaries.


def _transe(params, x):
    d = (x.h("ent") + x.r("rel")) - x.t("ent")
    if params.transe_p == 1:
        s = -np.abs(d).sum(axis=-1)
    else:
        nrm = np.sqrt((d * d).sum(axis=-1, keepdims=True))
        s = -nrm[..., 0]
    c = x.coef(s)
    if c is None:
        return s
    u = np.sign(d) if params.transe_p == 1 else d / np.where(nrm > 0, nrm, 1.0)
    x.add_h("ent", u, -c)
    x.add_r("rel", u, -c)
    x.add_t("ent", u, c)
    return s


def _transh_project(e, w):
    return e - (e * w).sum(axis=-1, keepdims=True) * w


def _transh(params, x):
    w = x.r("norm")
    he = x.h("ent")
    te = x.t("ent")
    d = (_transh_project(he, w) + x.r("rel")) - _transh_project(te, w)
    s = -(d * d).sum(axis=-1)
    c = x.coef(s)
    if c is None:
        return s
    dw = (d * w).sum(axis=-1, keepdims=True)
    v = d - dw * w
    c2 = 2.0 * c
    x.add_h("ent", v, -c2)
    x.add_t("ent", v, c2)
    x.add_r("rel", d, -c2)
    a = te - he
    aw = (a * w).sum(axis=-1, keepdims=True)
    x.add_r("norm", dw * a + aw * d, -c2)
    return s


def _project(m, e):
    """M e for each triple: ``m`` [..., d, d] broadcasts against ``e`` [..., d]."""
    return np.einsum("...ij,...j->...i", m, e)


def _transr(params, x):
    m = x.r("proj")  # [..., d, d]
    he = x.h("ent")
    te = x.t("ent")
    d = (_project(m, he) + x.r("rel")) - _project(m, te)
    s = -(d * d).sum(axis=-1)
    c = x.coef(s)
    if c is None:
        return s
    c2 = 2.0 * c
    mtd = np.einsum("...ij,...i->...j", m, d)  # M^T d
    x.add_h("ent", mtd, -c2)
    x.add_t("ent", mtd, c2)
    x.add_r("rel", d, -c2)
    # dF/dM = -2c * outer(d, h - t)
    x.add_r("proj", (d, he - te), -2.0 * c)
    return s


def _distmult(params, x):
    he = x.h("ent")
    re = x.r("rel")
    te = x.t("ent")
    hr = he * re
    s = (hr * te).sum(axis=-1)
    c = x.coef(s)
    if c is None:
        return s
    x.add_h("ent", re * te, c)
    x.add_r("rel", he * te, c)
    x.add_t("ent", hr, c)
    return s


def _split(x, d):
    return x[..., :d], x[..., d:]


def _complex(params, x):
    d = params.dim
    hre, him = _split(x.h("ent"), d)
    rre, rim = _split(x.r("rel"), d)
    tre, tim = _split(x.t("ent"), d)
    re = hre * rre - him * rim
    im = hre * rim + him * rre
    s = (re * tre + im * tim).sum(axis=-1)
    c = x.coef(s)
    if c is None:
        return s
    gh = np.concatenate([rre * tre + rim * tim, rre * tim - rim * tre], axis=-1)
    gr = np.concatenate([hre * tre + him * tim, hre * tim - him * tre], axis=-1)
    x.add_h("ent", gh, c)
    x.add_r("rel", gr, c)
    x.add_t("ent", np.concatenate([re, im], axis=-1), c)
    return s


def _rotate(params, x):
    d = params.dim
    hre, him = _split(x.h("ent"), d)
    tre, tim = _split(x.t("ent"), d)
    theta = x.r("rel")
    cos, sin = np.cos(theta), np.sin(theta)
    hr_re = hre * cos - him * sin
    hr_im = hre * sin + him * cos
    ure = hr_re - tre
    uim = hr_im - tim
    nrm = np.sqrt((ure * ure + uim * uim).sum(axis=-1))
    s = -nrm
    c = x.coef(s)
    if c is None:
        return s
    fac = c / np.where(nrm > 0, nrm, 1.0)
    gh = np.concatenate([-(ure * cos + uim * sin), -(-ure * sin + uim * cos)], axis=-1)
    x.add_h("ent", gh, fac)
    x.add_t("ent", np.concatenate([ure, uim], axis=-1), fac)
    x.add_r("rel", ure * hr_im - uim * hr_re, fac)
    return s


def _simple(params, x):
    eh_h = x.h("ent_h")
    et_t = x.t("ent_t")
    eh_t = x.t("ent_h")
    et_h = x.h("ent_t")
    rr = x.r("rel")
    ri = x.r("rel_inv")
    hr = eh_h * rr
    tri = eh_t * ri
    s = 0.5 * ((hr * et_t).sum(axis=-1) + (tri * et_h).sum(axis=-1))
    c = x.coef(s)
    if c is None:
        return s
    half = 0.5 * c
    x.add_h("ent_h", rr * et_t, half)
    x.add_r("rel", eh_h * et_t, half)
    x.add_t("ent_t", hr, half)
    x.add_t("ent_h", ri * et_h, half)
    x.add_r("rel_inv", eh_t * et_h, half)
    x.add_h("ent_t", tri, half)
    return s


_FORMULA = {
    "transe": _transe,
    "transh": _transh,
    "transr": _transr,
    "distmult": _distmult,
    "complex": _complex,
    "rotate": _rotate,
    "simple": _simple,
}


# ---------------------------------------------------------------------------
# candidate scoring (one slot swept over all entities)


def score_candidates(params: ModelParams, queries: np.ndarray, slot: int) -> np.ndarray:
    """Score every entity in ``slot`` of each query; returns float64 [B, n_entities].

    Row i column e is ``score`` of query i with entity e substituted into
    the head (slot=0) or tail (slot=1) position, bit for bit: the queries
    run as a [B, n_entities] batch of corruptions.
    """
    _check_slot(slot)
    queries = _check_ids(params, queries)
    shape = (len(queries), params.n_entities)
    replaced = np.broadcast_to(np.arange(shape[1]), shape)
    return _query_scores(params, queries, replaced, np.broadcast_to(slot == HEAD, shape))


# ---------------------------------------------------------------------------
# fast candidate scoring with an a-priori error bound


def _gamma(n: int, u: float = 2.0**-53) -> float:
    """gamma_n = n u / (1 - n u): the relative error of n chained roundings."""
    return n * u / (1 - n * u)


def _slack(width: int) -> float:
    """Bound coefficient for kernels whose dot products have ``width`` terms.

    Neither a kernel nor ``score`` rounds more than 8 (width + 4) times
    along any chain; doubling that covers the computed norms and products
    the bound itself is made of.
    """
    return _gamma(16 * (width + 4))


def _norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt((x * x).sum(axis=1))


def _memo(cache: dict, key, make):
    """``cache[key]``, made on first use.

    Threads ranking different chunks may both make a missing entry; they
    store equal arrays.
    """
    if key not in cache:
        cache[key] = make()
    return cache[key]


def _entities(params: ModelParams, cache: dict, name: str = "ent"):
    """An entity table in float64 and its row norms."""

    def make():
        ent = params.tables[name].astype(np.float64)
        return ent, _norms(ent)

    return _memo(cache, name, make)


def fast_candidates(
    params: ModelParams, queries: np.ndarray, slot: int, cache: dict | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Score every entity in ``slot`` of each query, with an error bound.

    Returns float64 [B, n_entities] scores and bounds such that
    ``|scores[i, e] - score(params, [query i with e in slot])| <= bounds[i, e]``
    wherever both are finite. ``cache`` keeps the entity-side work
    (float64 tables, norms, TransR's projected entity norms) between
    calls; it is valid only while the parameters are unchanged.
    """
    _check_slot(slot)
    queries = _check_ids(params, queries)
    fixed = queries[:, 0] if slot == TAIL else queries[:, 2]
    fn = _FAST[params.model]
    return fn(params, fixed, queries[:, 1], slot, {} if cache is None else cache)


def _bilinear_candidates(
    q: np.ndarray, ent: np.ndarray, ent_norms: np.ndarray, width: int, mag: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``q @ ent.T`` and its bound, for scores sum_k q_k e_k.

    Row b of ``q`` holds what the score multiplies a candidate row by.
    ``mag`` (default ``|q|``) majorizes the magnitudes of the products
    each entry is made of, up to a rounding the slack covers; it differs
    from ``|q|`` where forming ``q`` cancels.
    """
    mag = np.abs(q) if mag is None else mag
    bound = np.multiply.outer(_slack(width) * _norms(mag), ent_norms)
    return q @ ent.T, bound


def _distance_terms(ent: np.ndarray) -> np.ndarray:
    """[e, 1, ||e||^2] rows: with [2a, -||a||^2, -1] one GEMM gives -||a - e||^2."""
    return np.concatenate([ent, np.ones((len(ent), 1)), (ent * ent).sum(axis=1)[:, None]], axis=1)


def _neg_sq_distances(
    a: np.ndarray, terms: np.ndarray, linear: np.ndarray | None = None
) -> np.ndarray:
    """-||a_b - e||^2 for every query row and entity, as one GEMM.

    ``linear`` replaces ``a`` in the cross term 2 a.e (TransH's projection).
    """
    linear = a if linear is None else linear
    lhs = np.concatenate(
        [2.0 * linear, -(a * a).sum(axis=1)[:, None], -np.ones((len(a), 1))], axis=1
    )
    return lhs @ terms.T


def _distance_root_bound(query_part, ent_factor, ent_norms, width: int) -> np.ndarray:
    """sqrt(beta) for a squared distance whose terms are majorized by N^2.

    N[b, e] = query_part[b] + ent_factor * ||e|| (``ent_factor`` a scalar
    or a [B, 1] column) is the norm of a vector that bounds, coordinate by
    coordinate, the difference and every magnitude its rounding errors
    are relative to; beta = slack * N^2 bounds the squared distance's
    error. The tiny floor keeps the root positive.
    """
    c = np.sqrt(_slack(width))
    return (c * ent_factor) * ent_norms + (c * query_part + 2.0**-500)[:, None]


def _sqrt_scores(
    neg_d2: np.ndarray, floor: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """-sqrt scores from negated squared distances within floor^2 of ``score``'s.

    With x, y >= 0 and |x - y| <= beta = floor^2,
    |sqrt(x) - sqrt(y)| <= beta / max(sqrt(x), floor). Both square roots
    round by at most 2u (root + floor) <= kappa * floor, since
    root <= N + floor and N <= floor / sqrt(slack).
    """
    kappa = 2.0**-50 * (1.0 / np.sqrt(_slack(width)) + 2.0)
    score = np.minimum(neg_d2, 0.0, out=neg_d2)
    score *= -1.0
    np.sqrt(score, out=score)
    bound = np.maximum(score, floor)
    np.divide(floor, bound, out=bound)
    bound += kappa
    bound *= floor
    score *= -1.0
    return score, bound


def _fast_transe(params, x, r, slot, cache):
    if params.transe_p == 1:
        return _fast_transe_l1(params, x, r, slot, cache)
    ent, ent_norms = _entities(params, cache)
    xe, rr = _rows(params.tables["ent"], x), _rows(params.tables["rel"], r)
    a = xe + rr if slot == TAIL else xe - rr
    neg_d2 = _neg_sq_distances(a, _memo(cache, "terms", lambda: _distance_terms(ent)))
    floor = _distance_root_bound(_norms(xe) + _norms(rr), 1.0, ent_norms, params.dim)
    return _sqrt_scores(neg_d2, floor, params.dim)


# queries per block of the L1 loop: its [block, E] float32 arrays stay in cache
_L1_BLOCK = 16


def _fast_transe_l1(params, x, r, slot, cache):
    ent = params.tables["ent"]
    cols = _memo(cache, "cols", lambda: np.ascontiguousarray(ent.T))
    ent_l1 = _memo(cache, "l1", lambda: np.abs(ent).sum(axis=1, dtype=np.float64))
    xe, rr = _rows(ent, x), _rows(params.tables["rel"], r)
    # the candidate-free part of the difference: h + r - e, or e - (t - r)
    a = (xe + rr if slot == TAIL else xe - rr).astype(np.float32)
    scores = np.empty((len(a), ent.shape[0]))
    for lo in range(0, len(a), _L1_BLOCK):
        block = a[lo : lo + _L1_BLOCK]
        acc = np.zeros((len(block), ent.shape[0]), dtype=np.float32)
        tmp = np.empty_like(acc)
        with np.errstate(over="ignore"):  # an overflow makes the query rank exactly
            for k in range(params.dim):
                np.subtract(block[:, k : k + 1], cols[k], out=tmp)
                np.abs(tmp, out=tmp)
                acc += tmp
        np.negative(acc, out=scores[lo : lo + _L1_BLOCK])
    # float32 rounds every term and partial sum, float64 ``score`` likewise;
    # the constant covers float32's absolute rounding of subnormal values
    n = 2 * (params.dim + 4)
    c = _gamma(n, 2.0**-24) + _gamma(n)
    query_l1 = np.abs(xe).sum(axis=1) + np.abs(rr).sum(axis=1)
    bound = np.add.outer(c * query_l1 + n * 2.0**-149, c * ent_l1)
    return scores, bound


def _fast_transh(params, x, r, slot, cache):
    ent, ent_norms = _entities(params, cache)
    w = _rows(params.tables["norm"], r)
    xe, rr = _rows(params.tables["ent"], x), _rows(params.tables["rel"], r)
    xp = _transh_project(xe, w)
    a = xp + rr if slot == TAIL else xp - rr
    # -||a - P e||^2 = 2 (P a).e - ||a||^2 - ||e||^2 + (2 - ||w||^2) (w.e)^2,  P = I - w w^T
    terms = _memo(cache, "terms", lambda: _distance_terms(ent))
    neg_d2 = _neg_sq_distances(a, terms, linear=_transh_project(a, w))
    we = w @ ent.T
    we *= we
    ww = (w * w).sum(axis=1)
    we *= (2.0 - ww)[:, None]
    neg_d2 += we
    # a projection scales a vector by at most 1 + ||w||^2
    f = 1.0 + ww
    floor = _distance_root_bound(f * _norms(xe) + _norms(rr), f[:, None], ent_norms, params.dim)
    floor *= floor
    return neg_d2, floor


def _fast_transr(params, x, r, slot, cache):
    ent, ent_norms = _entities(params, cache)
    m = _rows(params.tables["proj"], r)
    xe, rr = _rows(params.tables["ent"], x), _rows(params.tables["rel"], r)
    xm = np.einsum("nij,nj->ni", m, xe)
    a = xm + rr if slot == TAIL else xm - rr
    # -||a - M e||^2 = 2 (M^T a).e - ||a||^2 - ||M e||^2, ||M e||^2 made once per relation
    def projected_sq_norms(rel):
        pe = ent @ params.tables["proj"][rel].astype(np.float64).T
        return (pe * pe).sum(axis=1)

    neg_d2 = (2.0 * np.einsum("nij,ni->nj", m, a)) @ ent.T
    neg_d2 -= (a * a).sum(axis=1)[:, None]
    neg_d2 -= np.stack(
        [_memo(cache, ("proj", int(rel)), lambda: projected_sq_norms(rel)) for rel in r]
    )
    f = np.sqrt((m * m).sum(axis=(1, 2)))  # ||M||_F bounds the projection's gain
    floor = _distance_root_bound(f * _norms(xe) + _norms(rr), f[:, None], ent_norms, params.dim)
    floor *= floor
    return neg_d2, floor


def _fast_rotate(params, x, r, slot, cache):
    d = params.dim
    ent, ent_norms = _entities(params, cache)
    xe = _rows(params.tables["ent"], x)
    xre, xim = _split(xe, d)
    theta = _rows(params.tables["rel"], r)
    cos, sin = np.cos(theta), np.sin(theta)
    if slot == TAIL:
        a = np.concatenate([xre * cos - xim * sin, xre * sin + xim * cos], axis=1)
        neg_d2 = _neg_sq_distances(a, _memo(cache, "terms", lambda: _distance_terms(ent)))
        # |rotated h_k| <= |h_re,k| + |h_im,k|, whose norm over both halves is <= 2 ||h||
        width, floor = 2 * d, _distance_root_bound(2.0 * _norms(xe), 1.0, ent_norms, 2 * d)
    else:
        # ||rot(e) - t||^2 = sum_k (c_k^2 + s_k^2)(e_re,k^2 + e_im,k^2) - 2 e.rot^T(t) + ||t||^2
        # holds for the rounded cos/sin too, which need not satisfy c^2 + s^2 = 1
        def make_terms():
            ere, eim = _split(ent, d)
            return np.concatenate([ere * ere + eim * eim, ere, eim, np.ones((len(ent), 1))], axis=1)

        lhs = np.concatenate(
            [
                -(cos * cos + sin * sin),
                2.0 * (cos * xre + sin * xim),
                2.0 * (cos * xim - sin * xre),
                -(xe * xe).sum(axis=1)[:, None],
            ],
            axis=1,
        )
        neg_d2 = lhs @ _memo(cache, "rotated_terms", make_terms).T
        width, floor = 3 * d, _distance_root_bound(_norms(xe), 2.0, ent_norms, 3 * d)
    return _sqrt_scores(neg_d2, floor, width)


def _fast_distmult(params, x, r, slot, cache):
    q = _rows(params.tables["ent"], x) * _rows(params.tables["rel"], r)
    return _bilinear_candidates(q, *_entities(params, cache), params.dim)


def _fast_complex(params, x, r, slot, cache):
    d = params.dim
    xre, xim = _split(_rows(params.tables["ent"], x), d)
    rre, rim = _split(_rows(params.tables["rel"], r), d)
    if slot == TAIL:  # Re(<h, r, conj(e)>) = (h r)_re . e_re + (h r)_im . e_im
        q = [xre * rre - xim * rim, xre * rim + xim * rre]
    else:  # the same sum regrouped by the candidate's halves
        q = [rre * xre + rim * xim, rre * xim - rim * xre]
    # forming q may cancel: bound by the magnitudes of its products
    mag = [np.abs(xre * rre) + np.abs(xim * rim), np.abs(xre * rim) + np.abs(xim * rre)]
    return _bilinear_candidates(
        np.concatenate(q, axis=1), *_entities(params, cache), 2 * d, mag=np.concatenate(mag, axis=1)
    )


def _fast_simple(params, x, r, slot, cache):
    rr, ri = _rows(params.tables["rel"], r), _rows(params.tables["rel_inv"], r)
    if slot == TAIL:  # h_h r e_t + e_h r_inv t_h
        q = [_rows(params.tables["ent_h"], x) * rr, ri * _rows(params.tables["ent_t"], x)]
        names = ("ent_t", "ent_h")
    else:  # e_h r t_t + t_h r_inv e_t
        q = [rr * _rows(params.tables["ent_t"], x), _rows(params.tables["ent_h"], x) * ri]
        names = ("ent_h", "ent_t")

    def make():
        cand = np.concatenate([params.tables[n].astype(np.float64) for n in names], axis=1)
        return cand, _norms(cand)

    cand, cand_norms = _memo(cache, names, make)
    return _bilinear_candidates(0.5 * np.concatenate(q, axis=1), cand, cand_norms, 2 * params.dim)


_FAST = {
    "transe": _fast_transe,
    "transh": _fast_transh,
    "transr": _fast_transr,
    "distmult": _fast_distmult,
    "complex": _fast_complex,
    "rotate": _fast_rotate,
    "simple": _fast_simple,
}


# ---------------------------------------------------------------------------
# gradients


# a chunk of queries gathers about this many float64 elements per table:
# queries per chunk * the most one query gathers from one table
_GRAD_CHUNK_ELEMS = 1 << 17


# elements per np.add.at call of scatter_add, which also sizes its flat index
_SCATTER_CHUNK_ELEMS = 1 << 16


def scatter_add(out: np.ndarray, index: np.ndarray, rows: np.ndarray) -> None:
    """``np.add.at(out, index, rows)`` for whole rows of a C-contiguous ``out``.

    Rows are scattered element by element through a 1-D flat index, numpy's
    fast path for ``ufunc.at``, a bounded chunk of rows per call. Every
    element receives its additions in the same order as from the 2-D call,
    so the sums are bit for bit the same.
    """
    if not out.flags.c_contiguous:
        raise ValueError("scatter_add needs a C-contiguous output")
    index = np.asarray(index, dtype=np.int64)
    width = math.prod(out.shape[1:])
    flat = out.reshape(-1)
    rows = np.asarray(rows).reshape(len(index), width)
    cols = np.arange(width, dtype=np.int64)
    step = max(1, _SCATTER_CHUNK_ELEMS // width)
    for lo in range(0, len(index), step):
        flat_index = (index[lo : lo + step, None] * width + cols).reshape(-1)
        np.add.at(flat, flat_index, rows[lo : lo + step].reshape(-1))


class GradAccumulator:
    """The sparse gradient of one call, summed in place.

    ``ent`` and ``rel`` are the sorted distinct entity and relation ids
    the contributions may reach. Every entity table gets a zero row per
    ``ent`` id, every other table one per ``rel`` id. ``add`` scatters
    rows into them at once, duplicate ids summing in call order, and marks
    their ids reached. ``finalize`` returns the rows of the reached ids
    only, so a candidate that no contribution reached is no gradient row.
    """

    def __init__(self, params: ModelParams, ent: np.ndarray, rel: np.ndarray) -> None:
        kinds = {}  # entity table or not -> (ids, the gradient row of each id, reached)
        for entity, ids, n in ((True, ent, params.n_entities), (False, rel, params.n_relations)):
            position = np.empty(n, dtype=np.int64)
            position[ids] = np.arange(len(ids))
            kinds[entity] = (ids, position, np.zeros(len(ids), dtype=bool))
        self._grads = {}
        for name, table in params.tables.items():
            kind = kinds[name in _ENTITY_TABLES]
            self._grads[name] = (kind, np.zeros((len(kind[0]),) + table.shape[1:]))

    def add(self, table: str, ids: np.ndarray, rows: np.ndarray) -> None:
        (_, position, reached), out = self._grads[table]
        at = position[ids]
        reached[at] = True
        scatter_add(out, at, rows)

    def finalize(self) -> SparseGrad:
        out = {}
        for name, ((ids, _, reached), rows) in self._grads.items():
            if reached.any():
                out[name] = (ids, rows) if reached.all() else (ids[reached], rows[reached])
        return out


def _scaled(rows, coef: np.ndarray) -> np.ndarray:
    """coef * rows per triple; a pair (u, v) of rows stands for the outer product u v^T."""
    if isinstance(rows, tuple):
        u, v = rows
        return (coef[..., None] * u)[..., :, None] * v[..., None, :]
    return coef[..., None] * rows


# ---------------------------------------------------------------------------
# negative batches in query form


class _Query:
    """A chunk of corruptions as [b, n] queries on their b positives.

    ``replaced`` holds each corruption's new entity and ``head`` whether
    it replaced the head. ``r`` gathers a relation row once per positive
    and broadcasts it over the positive's corruptions; ``h`` and ``t``
    gather each corruption's entity row, the replaced one or the
    positive's.

    ``coef`` maps the chunk's scores to their loss coefficients. Once
    ``coef`` has kept the corruptions whose coefficient is nonzero,
    ``add_*`` write through ``acc``: a replaced entity's row as it is, and
    an anchor's rows summed over the kept corruptions that use it, once
    per positive.
    """

    def __init__(self, params, positives, replaced, head, coef=None, acc=None):
        self.tables = params.tables
        self.positives, self.replaced, self.head = positives, replaced, head
        self._ids = (
            np.where(head, replaced, positives[:, :1]),
            np.where(head, positives[:, 2:], replaced),
        )
        self._coef, self.acc = coef, acc

    def coef(self, scores):
        """The coefficients of ``scores``, or None: scores only, or none is nonzero."""
        if self._coef is None:
            return None
        c = self._coef(scores)
        kept = c != 0.0
        if not kept.any():
            return None
        head = self.head
        # per column: the kept corruptions that replaced it, and those anchored on it
        self._uses = {
            0: (kept & head, kept & ~head),
            1: (None, kept),
            2: (kept & ~head, kept & head),
        }
        return c

    def _gather(self, name, ids):
        return _rows(self.tables[name], ids)

    def h(self, name):
        return self._gather(name, self._ids[0])

    def r(self, name):
        return self._gather(name, self.positives[:, 1])[:, None]

    def t(self, name):
        return self._gather(name, self._ids[1])

    def add_h(self, name, rows, coef):
        self._add(name, rows, coef, 0)

    def add_r(self, name, rows, coef):
        self._add(name, rows, coef, 1)

    def add_t(self, name, rows, coef):
        self._add(name, rows, coef, 2)

    def _add(self, name, rows, coef, col):
        replacing, anchored = self._uses[col]
        used = anchored.any(axis=1)
        if used.any():
            weights = coef * anchored
            if isinstance(rows, tuple):
                summed = np.einsum("bn,bni,bnj->bij", weights, *rows)
            else:
                summed = np.einsum("bn,bn...->b...", weights, rows)
            self.acc.add(name, self.positives[used, col], summed[used])
        if replacing is not None:
            rows = _scaled(rows[replacing], coef[replacing])
            self.acc.add(name, self.replaced[replacing], rows)


def _as_queries(triples: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Explicit triples as [n, 1] queries, each triple its own tail corruption."""
    return triples, triples[:, 2:], np.zeros((len(triples), 1), dtype=bool)


def _chunks(params: ModelParams, b: int, n: int) -> list[slice]:
    """Slices of positives whose [chunk, n] rows keep the temporaries bounded.

    A positive gathers n rows of each entity table and one row of each
    relation table (TransR's [d, d] projection), and is sized by the widest.
    """
    tables = params.tables.items()
    ent = max(t[0].size for name, t in tables if name in _ENTITY_TABLES)
    rel = max(t[0].size for name, t in tables if name not in _ENTITY_TABLES)
    step = max(1, _GRAD_CHUNK_ELEMS // max(n * ent, rel))
    return [slice(lo, lo + step) for lo in range(0, b, step)]


def _query_scores(params, positives, replaced, head, coef=None, acc=None) -> np.ndarray:
    """The [b, n] scores of queries, chunk by chunk.

    With ``coef`` and ``acc`` each chunk is differentiated in the same
    pass: ``coef(sl, scores)`` returns the loss coefficients of the chunk
    of positives ``sl`` from its scores, and the gradient goes into ``acc``.
    """
    out = np.empty(replaced.shape)
    formula = _FORMULA[params.model]
    for sl in _chunks(params, *replaced.shape):
        chunk_coef = None if coef is None else partial(coef, sl)
        query = _Query(params, positives[sl], replaced[sl], head[sl], chunk_coef, acc)
        out[sl] = formula(params, query)
    return out


def _check_negatives(params: ModelParams, batch: NegBatch, b: int):
    replaced, slot = np.asarray(batch.replaced, dtype=np.int64), np.asarray(batch.slot)
    ok = replaced.ndim == 2 and len(replaced) == b and replaced.shape[1] > 0
    if not ok or slot.shape != replaced.shape:
        raise ValueError(
            f"a negative batch needs [{b}, N] replaced ids and slots with N >= 1, "
            f"got replaced of shape {replaced.shape} and slot of shape {slot.shape}"
        )
    if b == 0:
        raise ValueError("a negative batch needs at least one positive, got 0")
    bad = (slot != HEAD) & (slot != TAIL)
    if bad.any():
        raise ValueError(f"negative slot must be HEAD (0) or TAIL (1), got {slot[bad][0]}")
    if replaced.min() < 0 or replaced.max() >= params.n_entities:
        raise ValueError(f"replaced entity id out of range ({params.n_entities} entities)")
    return replaced, slot == HEAD


def _check_labeled(params: ModelParams, name: str, batch: LabeledBatch) -> np.ndarray:
    triples = _check_ids(params, batch.triples)
    if np.shape(batch.labels) != (len(triples),):
        raise ValueError(
            f"the {name} batch needs one label per triple, got labels of shape "
            f"{np.shape(batch.labels)} for triples of shape {triples.shape}"
        )
    return triples


def _labeled_coef(labels: np.ndarray, smoothing: float):
    """The bce coefficients of a chunk of [n, 1] explicit queries."""
    n = len(labels)
    return lambda sl, s: bce_loss_grads(s[:, 0], labels[sl], smoothing, normalizer=n)[:, None]


def _negatives_coef(loss_spec: LossSpec, b: int, n: int):
    """The coefficients of a chunk of [positive, its n negatives] scores, b positives in all."""
    margin = loss_spec.margin

    def coef(sl, s):
        pos, neg = s[:, 0], s[:, 1:]
        if loss_spec.kind == "margin":
            d_pos, d_neg = margin_loss_grads(pos, neg, margin, normalizer=b * n)
        elif loss_spec.kind == "self_adversarial":
            d_pos, d_neg = self_adversarial_loss_grads(
                pos, neg, margin, loss_spec.adv_temperature, normalizer=b
            )
        else:  # bce: label 1 for the positive, 0 for its negatives
            labels = np.zeros(s.shape)
            labels[:, 0] = 1.0
            return bce_loss_grads(s, labels, loss_spec.label_smoothing, normalizer=b * (n + 1))
        return np.concatenate([d_pos[:, None], d_neg], axis=1)

    return coef


def _distinct(n: int, *ids: np.ndarray) -> np.ndarray:
    """The sorted distinct ids in [0, n) of the arrays ``ids``."""
    seen = np.zeros(n, dtype=bool)
    for i in ids:
        seen[i] = True
    return np.flatnonzero(seen)


def grad(
    params: ModelParams,
    batch: NegBatch | LabeledBatch,
    loss_spec: LossSpec,
    soft: LabeledBatch | None = None,
) -> tuple[float, SparseGrad]:
    """Batch loss and its sparse gradient over every touched table row.

    A :class:`NegBatch` pairs with margin / self_adversarial / bce (labels
    1 for positives, 0 for negatives); a :class:`LabeledBatch` requires bce.
    ``soft`` (bce only) is a second :class:`LabeledBatch`, such as rule
    soft labels, whose mean bce is added to the loss. Every group of
    queries (the negatives led by their positives, or the labeled triples;
    then the soft triples) is scored and differentiated in one pass into
    one :class:`GradAccumulator`; the loss is then taken once over the
    whole score arrays.
    """
    loss_spec.validate()
    labeled = isinstance(batch, LabeledBatch)
    if labeled and loss_spec.kind != "bce":
        raise ValueError(f"labeled batches require the bce loss, got {loss_spec.kind!r}")
    if soft is not None and loss_spec.kind != "bce":
        raise ValueError(f"soft labels require the bce loss, got {loss_spec.kind!r}")
    smoothing = loss_spec.label_smoothing
    if labeled:
        triples = _check_labeled(params, "batch", batch)
        if not len(triples):  # an empty soft batch is skipped below, but the loss needs a triple
            raise ValueError("a labeled batch needs at least one triple, got 0")
        groups = [(*_as_queries(triples), _labeled_coef(batch.labels, smoothing))]
    else:
        triples = _check_ids(params, batch.positives)
        replaced, head = _check_negatives(params, batch, len(triples))
        # each positive leads its negatives, as the tail corruption by its own tail
        groups = [
            (
                triples,
                np.concatenate([triples[:, 2:], replaced], axis=1),
                np.concatenate([np.zeros((len(triples), 1), dtype=bool), head], axis=1),
                _negatives_coef(loss_spec, *replaced.shape),
            )
        ]
    if soft is not None:
        soft_triples = _check_labeled(params, "soft", soft)
        if len(soft_triples):
            groups.append((*_as_queries(soft_triples), _labeled_coef(soft.labels, smoothing)))

    # every query's head and replaced entity (a positive's tail is its first) may be reached
    acc = GradAccumulator(
        params,
        _distinct(params.n_entities, *(ids for g in groups for ids in (g[0][:, 0], g[1]))),
        _distinct(params.n_relations, *(g[0][:, 1] for g in groups)),
    )
    scores = [_query_scores(params, *group, acc=acc) for group in groups]
    if labeled:
        loss = bce_loss(scores[0][:, 0], batch.labels, smoothing)
    else:
        pos, neg = scores[0][:, 0].copy(), scores[0][:, 1:].copy()
        if loss_spec.kind == "margin":
            loss = margin_loss(pos, neg, loss_spec.margin)
        elif loss_spec.kind == "self_adversarial":
            loss = self_adversarial_loss(pos, neg, loss_spec.margin, loss_spec.adv_temperature)
        else:
            labels = np.concatenate([np.ones(len(pos)), np.zeros(neg.size)])
            loss = bce_loss(np.concatenate([pos, neg.reshape(-1)]), labels, smoothing)
    if len(scores) > 1:
        loss += bce_loss(scores[1][:, 0], soft.labels, smoothing)
    return loss, acc.finalize()
