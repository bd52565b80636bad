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
temporaries. Two families are data, not formulas. The translational
models (TransE, TransH, TransR) score -dist((P h + r) - P t) for a
relation's projection P: each is one row of ``_TRANSLATION`` (P's table,
P, P^T, d(dist)/d(P) and a ranking candidate term; TransE's P is the
identity), one formula hands P^T u to the head and tail, u = d(dist)/d(d),
and one kernel ranks all three. The bilinear models (DistMult, ComplEx,
SimplE) are each one row of ``_TRILINEAR``, and one formula scores
and differentiates all three. A row's score is the mean of trilinear
forms T(h, r, t), so d(T)/d(row) is q_h(r, t), q_r(h, t) or q_t(h, r),
each linear in both of its rows; the row holds these partials, a
majorant of their magnitudes and its terms' tables, and the formula
hands the partials to the accessor instead of rows. The accessor takes
an anchor's gradient as one partial of S, the coefficient-weighted sum of
the replaced rows it pairs with, and a replaced row's as its coefficient
times the partial of its positive's anchor rows, so no [b, n] derivative
row is built. Ranking takes its query vectors from the same q_t and q_h.

There is one accessor, :class:`_Query`, and every score and gradient runs
in its query form: b positives and the entities that replace one slot of
each, a [b, N] batch of queries. A :class:`NegBatch` is that form as the
sampler draws it (``positives``, ``replaced``, ``slot``), so a negative
keeps its positive's relation and the entity its slot left alone (the
anchor) by construction. The relation rows (TransR's projections too) are
gathered once per positive and broadcast over its corruptions, and the
entity rows once per corruption. Explicit triples (``score``, a
:class:`LabeledBatch` with [n] labels) are [n, 1] queries, each triple its
own tail corruption; a candidate sweep (``score_candidates``, a
:class:`LabeledBatch` with [n, n_entities] labels) is a broadcast
[B, n_entities] batch over every entity. The formulas see each
corruption's rows in the order of its own triple, so every score is the
same bit for bit whichever batch it comes in.

:func:`grad` runs each chunk of queries once. Every loss is a mean whose
normalizer is known before any score is (margin divides by B·N, bce by
B·(N+1) or by its labels, self-adversarial by B after a softmax over each
positive's own negatives), so a chunk's coefficients follow from its own
scores: in a :class:`NegBatch` each positive leads its negatives in one
[B, 1 + N] query group, as the tail corruption by its own tail, and a
labeled batch (and the soft one) is one group with elementwise bce
coefficients. The formula takes the coefficients as soon as the chunk is
scored and writes its derivatives through one :class:`GradAccumulator`,
which holds a zero row for every id the queries can reach, scatters into
it in place, and keeps only the rows that were reached. A replaced entity
gets coefficient * d(score)/d(row), and an anchor the sum of those over
the corruptions of the chunk that use it, once per positive (for a
bilinear model, the partial of their summed partners). Corruptions
with a zero coefficient reach no row. The call that gives a chunk's
coefficients also writes its loss terms into one buffer per group, laid
out as the whole batch's loss sums them, so no score is kept and the loss
(their mean) is the same bit for bit as over unchunked scores. Chunks hold
about ``_GRAD_CHUNK_ELEMS`` float64 elements per table, so a call's memory
grows by a few ids and one loss term per triple, not by its gathered rows.
A positive whose row alone exceeds that (a [B, n_entities] sweep) is also
cut along its candidates, but a negative batch's row never is: its margin
and self-adversarial coefficients need the positive's score and the
softmax over all its negatives.

Candidate scoring (one slot swept over every entity) has two paths.

- ``fast_candidates`` is what ranking uses. Each model has one kernel:
  for DistMult, ComplEx and SimplE one shared GEMM ``q @ E.T``, built
  from the model's ``_TRILINEAR`` row (q from q_t or q_h of each term, E
  the terms' candidate tables side by side); for TransE, TransH and
  TransR one kernel on a = P h + r (or P t - r for a head candidate) that
  takes -||a - P e||^2 as 2 (P^T a).e - ||a||^2 - ||P e||^2, the last
  term from the model's ``_TRANSLATION`` row: the shared
  [e, 1, ||e||^2] GEMM for TransE-L2 (and RotatE, in both slots: a = R h,
  or R^T t for a head candidate), that GEMM with a (2 - ||w||^2)(w.e)^2
  correction for TransH, ||M_r e||^2 computed once per relation for
  TransR; and a float32 per-dimension accumulation for TransE-L1.
  With the [B, E] scores it returns a [B, 1] bound: one per query, on
  each score's distance from the float64 value ``score`` returns for
  that triple, ``score``'s own rounding included. The bound is the
  a-priori forward-error bound of a dot product, gamma_n * sum_k |a_k b_k|
  with gamma_n = n u / (1 - n u) (Higham, *Accuracy and Stability of
  Numerical Algorithms*, sec. 3.1), for the kernel and for ``score``.
  The sum of magnitudes is majorized by norms, the largest entity norm
  standing for every candidate's: ||p_b|| max ||e|| for the bilinear
  models (Cauchy-Schwarz), N^2 with N = ||query side|| + f_b max ||e||
  for squared distances. n is at least twice the longest chain of
  roundings in either evaluation, so the slack also covers the rounding
  of the bound's own arithmetic. For -sqrt distance scores the bound on
  the squared distance is carried through the square root; for TransE-L1
  float32's unit roundoff enters the bound. The bound assumes
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

from .losses import LossSpec, bce_loss_grads, margin_loss_grads, self_adversarial_loss_grads
from .losses import bce_loss, margin_loss, self_adversarial_loss  # noqa: F401  (re-exported)
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

    def copy(self, array=np.ndarray.copy) -> "ModelParams":
        """A copy whose tables are ``array`` of each (by default a copy of it)."""
        return replace(self, tables={k: array(v) for k, v in self.tables.items()})


def init_params(
    model: str, n_entities: int, n_relations: int, dim: int, seed, shapes_only: bool = False
) -> ModelParams:
    """Seeded uniform init in [-6/sqrt(d), 6/sqrt(d)] per entry.

    Exceptions to the uniform bound: rotate phases are uniform in
    [-pi, pi), transr projections start at the identity, and transh
    normals are normalized to unit rows after drawing. With
    ``shapes_only`` each table is a read-only zero-stride view of its
    shape: nothing is drawn and no table memory is allocated.
    """
    if model not in MODEL_KINDS:
        raise ValueError(f"unknown model kind: {model!r}")
    if dim < 1:
        raise ValueError(f"embedding dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    bound = 6.0 / np.sqrt(dim)

    def uni(shape, bound=bound):
        if shapes_only:
            return np.broadcast_to(np.float32(0.0), shape)
        return rng.uniform(-bound, bound, size=shape).astype(np.float32)

    tables: dict[str, np.ndarray] = {}
    if model in ("transe", "transh", "transr", "distmult"):
        tables["ent"] = uni((n_entities, dim))
        tables["rel"] = uni((n_relations, dim))
        if model == "transh":
            tables["norm"] = uni((n_relations, dim))
            if not shapes_only:
                _unit_rows(tables["norm"])
        elif model == "transr":
            proj = np.broadcast_to(np.eye(dim, dtype=np.float32), (n_relations, dim, dim))
            tables["proj"] = proj if shapes_only else proj.copy()
    elif model == "complex":
        tables["ent"] = uni((n_entities, 2 * dim))
        tables["rel"] = uni((n_relations, 2 * dim))
    elif model == "rotate":
        tables["ent"] = uni((n_entities, 2 * dim))
        tables["rel"] = uni((n_relations, dim), np.pi)
    elif model == "simple":
        tables["ent_h"] = uni((n_entities, dim))
        tables["ent_t"] = uni((n_entities, dim))
        tables["rel"] = uni((n_relations, dim))
        tables["rel_inv"] = uni((n_relations, dim))
    return ModelParams(model=model, dim=dim, tables=tables)


def _unit_rows(t: np.ndarray) -> None:
    """Divide each row of ``t`` in place by its float64 L2 norm (floored at 1e-12)."""
    norms = np.linalg.norm(t.astype(np.float64), axis=1, keepdims=True)
    np.divide(t, np.maximum(norms, 1e-12), out=t, casting="unsafe")


def renormalize_entities(params: ModelParams) -> None:
    """Project entity rows onto the unit L2 sphere (epoch-start constraint)."""
    for name in _ENTITY_TABLES:
        if name in params.tables:
            _unit_rows(params.tables[name])


def renormalize_normals(params: ModelParams) -> None:
    """Re-unit the transh hyperplane normals (after each optimizer step)."""
    if params.model == "transh":
        _unit_rows(params.tables["norm"])


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
# ``x.add_h``, ``x.add_r`` or ``x.add_t``, built from the same temporaries;
# a bilinear formula hands its partials and rows to ``x.add_trilinear``.


# TransE, TransH and TransR score a triple as -dist(d) with d = (P h + r) - P t, P a projection
# the relation selects. A model is one row of ``_TRANSLATION``: P's table (None for TransE, whose
# P is the identity), P e, P^T e, the rows of d(dist)/d(P) from u = d(dist)/d(d), P's rows and the
# head and tail rows, and the ranking kernel's candidate term. TransE's distance is L1 or L2 by
# ``transe_p`` (any value but 1 reads as L2); a projecting row's is the squared L2 distance.


def _identity(p, e):
    return e


def _hyperplane(w, e):
    """TransH's P e = e - (e.w) w, onto the hyperplane of normal w; P is symmetric."""
    return e - (e * w).sum(axis=-1, keepdims=True) * w


def _hyperplane_grad(w, u, h, t):
    """d(dist)/d(w) = (u.w) a + (a.w) u, with a = t - h."""
    a = t - h
    return (u * w).sum(axis=-1, keepdims=True) * a + (a * w).sum(axis=-1, keepdims=True) * u


def _hyperplane_candidates(params, cache, ent, w, r, a, pa):
    """-||a - P e||^2 = 2 (P a).e - ||a||^2 - ||e||^2 + (2 - ||w||^2) (w.e)^2 on the shared
    [e, 1, ||e||^2] GEMM, and P's gain: it scales a vector by at most 1 + ||w||^2."""
    neg_d2 = _neg_sq_distances(a, _memo(cache, "terms", lambda: _distance_terms(ent)), pa)
    we = w @ ent.T
    we *= we
    ww = (w * w).sum(axis=1)
    we *= (2.0 - ww)[:, None]
    neg_d2 += we
    return neg_d2, 1.0 + ww


def _matrix(m, e):
    """TransR's M e: ``m`` [..., d, d] broadcasts against ``e`` [..., d]."""
    return np.einsum("...ij,...j->...i", m, e)


def _matrix_t(m, e):
    """TransR's M^T e."""
    return np.einsum("...ij,...i->...j", m, e)


def _matrix_candidates(params, cache, ent, m, r, a, mta):
    """-||a - M e||^2 = 2 (M^T a).e - ||a||^2 - ||M e||^2, ||M e||^2 made once per relation, and
    P's gain: ||M||_F bounds it."""

    def projected_sq_norms(rel):
        pe = ent @ params.tables["proj"][rel].astype(np.float64).T
        return (pe * pe).sum(axis=1)

    neg_d2 = (2.0 * mta) @ ent.T
    neg_d2 -= (a * a).sum(axis=1)[:, None]
    for row, rel in zip(neg_d2, r):
        row -= _memo(cache, ("proj", int(rel)), lambda: projected_sq_norms(rel))
    return neg_d2, np.sqrt((m * m).sum(axis=(1, 2)))


_TRANSLATION = {
    "transe": (None, _identity, _identity, None, None),
    "transh": ("norm", _hyperplane, _hyperplane, _hyperplane_grad, _hyperplane_candidates),
    # d(dist)/d(M) is the outer product u (h - t)^T
    "transr": ("proj", _matrix, _matrix_t, lambda m, u, h, t: (u, h - t), _matrix_candidates),
}


def _translation(params, x):
    table, project, transpose, p_grad, _ = _TRANSLATION[params.model]
    p = x.r(table) if table else None
    he, te = x.h("ent"), x.t("ent")
    d = (project(p, he) + x.r("rel")) - project(p, te)
    ends = (he, te) if table else ()  # only P's gradient reads them again
    del he, te
    l1 = table is None and params.transe_p == 1
    if l1:
        s = -np.abs(d).sum(axis=-1)
    else:
        nrm = (d * d).sum(axis=-1, keepdims=True)
        nrm = nrm if table else np.sqrt(nrm)  # squared L2 for a projecting row
        s = -nrm[..., 0]
    c = x.coef(s)
    if c is None:
        return s
    # u = d(dist)/d(d): sign(d), d / ||d|| or 2 d, the last in place (d is not read again)
    u = np.sign(d) if l1 else np.add(d, d, out=d) if table else d / np.where(nrm > 0, nrm, 1.0)
    ptu = transpose(p, u)
    x.add_h("ent", ptu, -c)
    x.add_r("rel", u, -c)
    x.add_t("ent", ptu, c)
    if table:
        x.add_r(table, p_grad(p, u, *ends), -c)
    return s


# The bilinear models score a triple as the mean of trilinear forms T(h, r, t) of its rows,
# so each row's derivative is linear in the other two: q_h(r, t), q_r(h, t) and q_t(h, r),
# with T = q_h(r, t).h = q_r(h, t).r = q_t(h, r).t. A model is one row of ``_TRILINEAR``:
# its partials (q_h, q_r, q_t), a majorant m(|x|, |r|) >= |q_t(x, r)| and >= |q_h(r, x)|
# elementwise, and its terms, each (head table, relation table, tail table). Training hands
# the partials to ``x.add_trilinear``; ranking takes its query vectors from q_t and q_h.


def _split(x, d):
    return x[..., :d], x[..., d:]


def _conj_product(a, t):
    """ComplEx's q_h(r, t) and q_r(h, t): Re(<a, b, conj(t)>) as a dot product with b."""
    d = a.shape[-1] // 2
    (are, aim), (tre, tim) = _split(a, d), _split(t, d)
    return np.concatenate([are * tre + aim * tim, are * tim - aim * tre], axis=-1)


def _complex_product(h, r):
    """ComplEx's q_t(h, r): the complex product h r, real halves then imaginary."""
    d = h.shape[-1] // 2
    (hre, him), (rre, rim) = _split(h, d), _split(r, d)
    return np.concatenate([hre * rre - him * rim, hre * rim + him * rre], axis=-1)


def _complex_magnitude(x, r):
    """The magnitudes of the products each entry of ComplEx's q is made of; q itself may cancel."""
    d = x.shape[-1] // 2
    (xre, xim), (rre, rim) = _split(x, d), _split(r, d)
    return np.concatenate([xre * rre + xim * rim, xre * rim + xim * rre], axis=-1)


_TRILINEAR = {
    "distmult": ((np.multiply,) * 3, np.multiply, (("ent", "rel", "ent"),)),
    "complex": ((_conj_product, _conj_product, _complex_product), _complex_magnitude,
                (("ent", "rel", "ent"),)),
    # SimplE: the head's head-role row with the tail's tail-role row, then the reverse
    "simple": ((np.multiply,) * 3, np.multiply,
               (("ent_h", "rel", "ent_t"), ("ent_t", "rel_inv", "ent_h"))),
}


def _dot(q, t, d):
    """q.t over the last axis; a row of two d-wide halves (ComplEx's real and imaginary parts)
    adds its halves first, so the score rounds as the real part of a complex product does."""
    p = q * t
    return (p[..., :d] + p[..., d:] if p.shape[-1] > d else p).sum(axis=-1)


def _trilinear(params, x):
    partials, _, terms = _TRILINEAR[params.model]
    rows = [(x.h(h), x.r(r), x.t(t)) for h, r, t in terms]
    s = [_dot(partials[2](h, r), t, params.dim) for h, r, t in rows]
    s = sum(s[1:], s[0]) / len(terms)
    c = x.coef(s)
    if c is not None:
        c = c / len(terms)
        for names, term_rows in zip(terms, rows):
            x.add_trilinear(partials, names, term_rows, c)
    return s


def _rotate(params, x):
    """-||u||, u = R h - t with R h the complex product of h and (cos theta, sin theta).
    The head's gradient row is -R^T u: the product of u and (cos theta, -sin theta), negated."""
    theta = x.r("rel")
    cos, sin = np.cos(theta), np.sin(theta)
    hr = _complex_product(x.h("ent"), np.concatenate([cos, sin], axis=-1))
    u = hr - x.t("ent")
    s = -np.sqrt(_dot(u, u, params.dim))
    c = x.coef(s)
    if c is None:
        return s
    fac = c / np.where(s < 0, -s, 1.0)  # c / ||u||, or c where u is 0
    gh = _complex_product(u, np.concatenate([cos, -sin], axis=-1))
    x.add_h("ent", np.negative(gh, out=gh), fac)
    x.add_t("ent", u, fac)
    (ure, uim), (hr_re, hr_im) = _split(u, params.dim), _split(hr, params.dim)
    x.add_r("rel", ure * hr_im - uim * hr_re, fac)
    return s


_FORMULA = {
    "transe": _translation,
    "transh": _translation,
    "transr": _translation,
    "distmult": _trilinear,
    "complex": _trilinear,
    "rotate": _rotate,
    "simple": _trilinear,
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
    return _query_scores(params, *_sweep(params, _check_ids(params, queries), slot))


def _sweep(params: ModelParams, queries: np.ndarray, slot: int):
    """``queries`` with every entity in ``slot``: a broadcast [B, n_entities] query group."""
    every = np.broadcast_to(np.arange(params.n_entities), (len(queries), params.n_entities))
    return queries, every, np.broadcast_to(slot == HEAD, every.shape)


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


def _entities(params: ModelParams, cache: dict, names=("ent",)):
    """Entity tables side by side in float64 (a float64 table itself) and their largest row norm,
    cached under the tables' joined names."""

    def make():
        tables = [params.tables[name].astype(np.float64, copy=False) for name in names]
        ent = tables[0] if len(tables) == 1 else np.concatenate(tables, axis=1)
        return ent, _norms(ent).max(initial=0.0)

    return _memo(cache, "+".join(names), make)


def fast_candidates(
    params: ModelParams, queries: np.ndarray, slot: int, cache: dict | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Score every entity in ``slot`` of each query, with one error bound per query.

    Returns float64 [B, n_entities] scores and [B, 1] bounds such that
    ``|scores[i, e] - score(params, [query i with e in slot])| <= bounds[i, 0]``
    for every e, wherever both are finite. ``cache`` keeps the entity-side
    work (float64 tables, largest norms, TransR's projected entity norms)
    between calls; it is valid only while the parameters are unchanged.
    """
    _check_slot(slot)
    queries = _check_ids(params, queries)
    fixed = queries[:, 0] if slot == TAIL else queries[:, 2]
    fn = _FAST[params.model]
    return fn(params, fixed, queries[:, 1], slot, {} if cache is None else cache)


def _bilinear_candidates(
    q: np.ndarray, ent: np.ndarray, max_norm: float, width: int, mag: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``q @ ent.T`` and its bound, for scores sum_k q_k e_k.

    Row b of ``q`` holds what the score multiplies a candidate row by.
    ``mag`` majorizes the magnitudes of the products each entry is made
    of, up to a rounding the slack covers; it exceeds ``|q|`` where
    forming ``q`` cancels.
    """
    return q @ ent.T, (_slack(width) * _norms(mag) * max_norm)[:, None]


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


def _distance_root_bound(query_part, ent_factor, max_norm: float, width: int) -> np.ndarray:
    """[B, 1] sqrt(beta) for squared distances whose terms are majorized by N^2.

    N[b] = query_part[b] + ent_factor * max ||e|| (``ent_factor`` a scalar
    or a [B, 1] column) is the norm of a vector that bounds, coordinate by
    coordinate, the difference to any candidate and every magnitude its
    rounding errors are relative to; beta = slack * N^2 bounds the squared
    distance's error. The tiny floor keeps the root positive.
    """
    c = np.sqrt(_slack(width))
    return (c * ent_factor) * max_norm + (c * query_part + 2.0**-500)[:, None]


def _sqrt_scores(
    neg_d2: np.ndarray, floor: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """-sqrt scores from negated squared distances within floor^2 of ``score``'s.

    With x, y >= 0 and |x - y| <= beta = floor^2, |sqrt(x) - sqrt(y)| <=
    beta / max(sqrt(x), floor) <= floor. Both square roots round by at most
    2u (root + floor) <= kappa * floor, since root <= N + floor and
    N <= floor / sqrt(slack); so floor * (1 + kappa) bounds every score.
    """
    kappa = 2.0**-50 * (1.0 / np.sqrt(_slack(width)) + 2.0)
    score = np.minimum(neg_d2, 0.0, out=neg_d2)
    np.sqrt(np.negative(score, out=score), out=score)
    return np.negative(score, out=score), floor * (1.0 + kappa)


def _distance_candidates(params, cache, a, query_part, ent_factor: float, width: int):
    """-||a_b - e|| for every query row and entity, with its bound (TransE-L2 and RotatE)."""
    ent, max_norm = _entities(params, cache)
    neg_d2 = _neg_sq_distances(a, _memo(cache, "terms", lambda: _distance_terms(ent)))
    floor = _distance_root_bound(query_part, ent_factor, max_norm, width)
    return _sqrt_scores(neg_d2, floor, width)


def _fast_translation(params, x, r, slot, cache):
    """-dist(a, P e) for every candidate e, a = P h + r (tail slot) or P t - r (head slot).

    For TransH and TransR the row's candidate term gives -||a - P e||^2 and P's gain g, the
    most P scales a vector by; the bound's N is then g ||x|| + ||r|| + g max ||e||.
    """
    table, project, transpose, _, candidates = _TRANSLATION[params.model]
    if table is None and params.transe_p == 1:
        return _fast_transe_l1(params, x, r, slot, cache)
    p = _rows(params.tables[table], r) if table else None
    xe, rr = _rows(params.tables["ent"], x), _rows(params.tables["rel"], r)
    xp = project(p, xe)
    a = xp + rr if slot == TAIL else xp - rr
    if table is None:
        return _distance_candidates(params, cache, a, _norms(xe) + _norms(rr), 1.0, params.dim)
    ent, max_norm = _entities(params, cache)
    neg_d2, g = candidates(params, cache, ent, p, r, a, transpose(p, a))
    floor = _distance_root_bound(g * _norms(xe) + _norms(rr), g[:, None], max_norm, params.dim)
    return neg_d2, floor * floor


# queries per block of the L1 loop: its [block, E] float32 arrays stay in cache
_L1_BLOCK = 16


def _fast_transe_l1(params, x, r, slot, cache):
    ent = params.tables["ent"]
    cols = _memo(cache, "cols", lambda: np.ascontiguousarray(ent.T))
    max_l1 = _memo(cache, "l1", lambda: np.abs(ent).sum(axis=1, dtype=np.float64).max(initial=0.0))
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
    return scores, (c * query_l1 + n * 2.0**-149 + c * max_l1)[:, None]


def _fast_rotate(params, x, r, slot, cache):
    """-||R h - e|| (tail slot) or -||e - R^T t|| (head slot), both as one distance GEMM.

    R rotates by the rounded c = fl(cos theta_r), s = fl(sin theta_r) that
    ``score`` uses; R^T t takes c and -s. As c^2 + s^2 need not be 1, the head
    kernel differs from ``score``'s ||R e - t|| in exact arithmetic too:

        ||R e - t||^2 - ||e - R^T t||^2 = sum_k (c_k^2 + s_k^2 - 1)(|e_k|^2 - |t_k|^2)

    with |e_k|^2 = e_re,k^2 + e_im,k^2. As |c^2 + s^2 - 1| <= 3u, that is at most
    (3/4) u N^2 for the N below, well inside ``_slack(2d)``. A rotated vector's
    coordinates are at most |x_re,k| + |x_im,k|, so its norm is at most 2 ||x||:
    N takes query part 2 ||x|| (the rotated query row) and candidate factor 1,
    or 2 in the head slot, where ``score`` rotates the candidate.
    """
    xe = _rows(params.tables["ent"], x)
    theta = _rows(params.tables["rel"], r)
    cos, sin, ent_factor = np.cos(theta), np.sin(theta), 1.0
    if slot == HEAD:
        sin, ent_factor = -sin, 2.0
    a = _complex_product(xe, np.concatenate([cos, sin], axis=1))
    return _distance_candidates(params, cache, a, 2.0 * _norms(xe), ent_factor, 2 * params.dim)


def _fast_trilinear(params, x, r, slot, cache):
    """``q @ E.T`` with E the terms' candidate tables side by side and q their query vectors,
    q_t(h, r) or q_h(r, t), in the same order and divided by the number of terms; the
    majorants of the q, likewise, bound the score's error."""
    (q_h, _, q_t), majorant, terms = _TRILINEAR[params.model]
    q, mag, names = [], [], []
    for h, rel, t in terms:  # each term's fixed entity table and candidate table
        fixed, cand = (h, t) if slot == TAIL else (t, h)
        xe, rr = _rows(params.tables[fixed], x), _rows(params.tables[rel], r)
        q.append(q_t(xe, rr) if slot == TAIL else q_h(rr, xe))
        mag.append(majorant(np.abs(xe), np.abs(rr)))
        names.append(cand)
    q, mag = (np.concatenate(a, axis=1) / len(terms) for a in (q, mag))
    return _bilinear_candidates(q, *_entities(params, cache, names), q.shape[1], mag)


_FAST = {
    "transe": _fast_translation,
    "transh": _fast_translation,
    "transr": _fast_translation,
    "distmult": _fast_trilinear,
    "complex": _fast_trilinear,
    "rotate": _fast_rotate,
    "simple": _fast_trilinear,
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
    per positive. ``add_trilinear`` takes a bilinear model's partials
    instead of rows and sums before it differentiates.
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
        if anchored.any():
            if isinstance(rows, tuple):
                summed = np.einsum("bn,bni,bnj->bij", coef * anchored, *rows)
            else:
                summed = _summed(coef, anchored, rows)
            self._add_anchors(name, col, summed, anchored)
        if replacing is not None:  # entity rows: never a pair
            rows = coef[replacing][:, None] * rows[replacing]
            self.acc.add(name, self.replaced[replacing], rows)

    def _add_anchors(self, name, col, rows, anchored):
        """Row b of ``rows`` to the positive's id in ``col``, for each b with an anchored corruption."""
        used = anchored.any(axis=1)
        if used.any():
            self.acc.add(name, self.positives[used, col], rows[used])

    def add_trilinear(self, partials, names, rows, coef):
        """The gradient of a trilinear term from its partials, without a [b, n] derivative row.

        ``partials`` is (q_h, q_r, q_t), ``names`` the term's (head, relation, tail) tables and
        ``rows`` the [b, n] head, [b, 1] relation and [b, n] tail rows the formula read. A
        replaced entity gets its coefficient times q of its positive's anchor rows. The
        anchor gets q of S, the coefficient-weighted sum of the replaced rows it pairs with
        (q is linear in each row); the relation gets q_r(h, S_t) + q_r(S_h, t).
        """
        q_h, q_r, q_t = partials
        (h_name, r_name, t_name), (he, re, te) = names, rows
        r, rel = re[:, 0], 0.0
        tails, heads = self._uses[2][0], self._uses[0][0]  # the kept corruptions of each slot
        if tails.any():
            anchor, summed = self._gather(h_name, self.positives[:, 0]), _summed(coef, tails, te)
            self._add_anchors(h_name, 0, q_h(r, summed), tails)
            self._add_replaced(t_name, q_t(anchor, r), coef, tails)
            rel = q_r(anchor, summed)
        if heads.any():
            anchor, summed = self._gather(t_name, self.positives[:, 2]), _summed(coef, heads, he)
            self._add_anchors(t_name, 2, q_t(summed, r), heads)
            self._add_replaced(h_name, q_h(r, anchor), coef, heads)
            rel = rel + q_r(summed, anchor)
        self._add_anchors(r_name, 1, rel, tails | heads)

    def _add_replaced(self, name, q, coef, replacing):
        """Each replacing corruption's coefficient times its positive's row of ``q``."""
        rows = coef[replacing][:, None] * q[np.nonzero(replacing)[0]]
        self.acc.add(name, self.replaced[replacing], rows)


def _summed(coef, mask, rows):
    """[b, ...] sum over n of coef * rows, over the [b, n] corruptions in ``mask``."""
    return np.einsum("bn,bn...->b...", coef * mask, rows)


def _as_queries(triples: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Explicit triples as [n, 1] queries, each triple its own tail corruption."""
    return triples, triples[:, 2:], np.zeros((len(triples), 1), dtype=bool)


def _chunks(params: ModelParams, b: int, n: int) -> list[slice]:
    """Slices of positives whose [chunk, n] rows keep the temporaries bounded.

    A positive gathers n rows of each entity table and one row of each
    relation table (TransR's [d, d] projection), and is sized by the widest.
    """
    step = max(1, _GRAD_CHUNK_ELEMS // max(n * _widest(params, True), _widest(params, False)))
    return [slice(lo, lo + step) for lo in range(0, b, step)]


def _widest(params: ModelParams, entity: bool) -> int:
    """The most one row of an entity table (or of a relation table) holds."""
    return max(t[0].size for name, t in params.tables.items() if (name in _ENTITY_TABLES) == entity)


def _query_scores(params, positives, replaced, head, coef=None, whole_rows=False, acc=None):
    """The [b, n] scores of queries, chunk by chunk; ``whole_rows`` cuts no row.

    With ``coef`` and ``acc`` no score is kept: ``coef(index, scores)`` gives a chunk's
    coefficients and keeps its loss terms, the gradient goes to ``acc`` in the same pass.
    """
    b, n = replaced.shape
    out = np.empty((b, n)) if coef is None else None
    formula = _FORMULA[params.model]
    ent = _widest(params, True)
    width = max(1, n if whole_rows or n * ent <= _GRAD_CHUNK_ELEMS else _GRAD_CHUNK_ELEMS // ent)
    for sl in _chunks(params, b, n):
        for lo in range(0, n, width):
            index = (sl, slice(lo, lo + width))
            chunk_coef = None if coef is None else partial(coef, index)
            query = _Query(params, positives[sl], replaced[index], head[index], chunk_coef, acc)
            scores = formula(params, query)
            if out is not None:
                out[index] = scores
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


def _labeled_group(params: ModelParams, name: str, batch: LabeledBatch, smoothing: float):
    """A labeled batch's [n, 1] or [n, n_entities] query group, with its bce coefficients, and
    the loss terms they fill, shaped as the labels."""
    triples = _check_ids(params, batch.triples)
    labels = np.asarray(batch.labels, dtype=np.float64)
    if labels.shape == (len(triples),):
        group, labels = _as_queries(triples), labels[:, None]
    elif labels.shape == (len(triples), params.n_entities):
        group = _sweep(params, triples, TAIL)
    else:
        raise ValueError(
            f"the {name} batch needs one label per triple or one per triple and entity, "
            f"got labels of shape {labels.shape} for triples of shape {triples.shape}"
        )
    terms = np.empty(labels.shape)

    def coef(index, s):
        chunk = np.empty(s.size)
        c = bce_loss_grads(s.ravel(), labels[index].ravel(), smoothing, labels.size, chunk)
        terms[index] = chunk.reshape(s.shape)
        return c.reshape(s.shape)

    return (*group, coef), terms


def _negatives_coef(loss_spec: LossSpec, b: int, n: int):
    """The coefficients of a chunk of [positive, its n negatives] scores, b positives in all,
    and the loss terms they fill in the order the loss sums them: the [b, n] pairs (margin),
    the b positives (self_adversarial), or the b positives and then the b * n negatives (bce).
    """
    kind, margin = loss_spec.kind, loss_spec.margin
    terms = np.empty({"margin": (b, n), "self_adversarial": b}.get(kind, b * (n + 1)))

    def coef(index, s):
        sl, pos, neg = index[0], s[:, 0], s[:, 1:]
        if kind == "margin":
            d_pos, d_neg = margin_loss_grads(pos, neg, margin, b * n, terms[sl])
        elif kind == "self_adversarial":
            temperature = loss_spec.adv_temperature
            d_pos, d_neg = self_adversarial_loss_grads(pos, neg, margin, temperature, b, terms[sl])
        else:  # bce: label 1 for the positive, 0 for its negatives
            labels, chunk = np.zeros(s.shape), np.empty(s.shape)
            labels[:, 0] = 1.0
            c = bce_loss_grads(s, labels, loss_spec.label_smoothing, b * (n + 1), chunk)
            terms[:b][sl], terms[b:].reshape(b, n)[sl] = chunk[:, 0], chunk[:, 1:]
            return c
        return np.concatenate([d_pos[:, None], d_neg], axis=1)

    return coef, terms


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
    then the soft triples) is scored, differentiated and given its loss
    terms in one pass, into one :class:`GradAccumulator`.
    """
    loss_spec.validate()
    labeled = isinstance(batch, LabeledBatch)
    if labeled and loss_spec.kind != "bce":
        raise ValueError(f"labeled batches require the bce loss, got {loss_spec.kind!r}")
    if soft is not None and loss_spec.kind != "bce":
        raise ValueError(f"soft labels require the bce loss, got {loss_spec.kind!r}")
    smoothing = loss_spec.label_smoothing
    if labeled:
        group, terms = _labeled_group(params, "batch", batch, smoothing)
        # an empty soft batch is skipped below, but the loss needs a triple
        if not len(group[0]):
            raise ValueError("a labeled batch needs at least one triple, got 0")
    else:
        triples = _check_ids(params, batch.positives)
        replaced, head = _check_negatives(params, batch, len(triples))
        # each positive leads its negatives as the tail corruption by its own tail, rows never cut
        lead = np.zeros((len(triples), 1), dtype=bool)
        coef, terms = _negatives_coef(loss_spec, *replaced.shape)
        replaced = np.concatenate([triples[:, 2:], replaced], axis=1)
        group = (triples, replaced, np.concatenate([lead, head], axis=1), coef, True)
    groups = [(group, terms)]
    if soft is not None:
        group, terms = _labeled_group(params, "soft", soft, smoothing)
        if len(group[0]):
            groups.append((group, terms))

    # every query's head and replaced entity (a positive's tail is its first) may be reached
    acc = GradAccumulator(
        params,
        _distinct(params.n_entities, *(ids for g, _ in groups for ids in (g[0][:, 0], g[1]))),
        _distinct(params.n_relations, *(g[0][:, 1] for g, _ in groups)),
    )
    for group, _ in groups:
        _query_scores(params, *group, acc=acc)
    return float(sum(np.mean(terms) for _, terms in groups)), acc.finalize()
