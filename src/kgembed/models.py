"""Conventional KGE models: parameter tables, scoring, and hand-derived gradients.

Seven models share one convention: ``score`` returns float64, higher =
more plausible (distance models negate the distance). Parameters are
stored float32; all score/loss/gradient arithmetic upcasts to float64.

Gradients are derived by hand per model and composed with the loss
derivatives from :mod:`kgembed.losses`; correctness is pinned by the
finite-difference test suite rather than an autodiff dependency.

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
- ``score_candidates`` is ``score`` itself over the explicit candidate
  triples, so it equals per-triple scores bit for bit by construction.
  It is the exact reference the candidate tests compare against;
  ranking calls ``fast_candidates`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
from .sampling import HEAD, TAIL, LabeledBatch, NegBatch, candidate_triples

MODEL_KINDS = ("transe", "transh", "transr", "distmult", "complex", "rotate", "simple")

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
    for name in ("ent", "ent_h", "ent_t"):
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


def _rows(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    return table[ids].astype(np.float64)


# ---------------------------------------------------------------------------
# scoring


def score(params: ModelParams, triples: np.ndarray) -> np.ndarray:
    """Score triples under ``params.model``; returns float64 [n]."""
    triples = _check_ids(params, triples)
    h, r, t = triples[:, 0], triples[:, 1], triples[:, 2]
    return _SCORE[params.model](params, h, r, t)


def _score_transe(params, h, r, t):
    d = (_rows(params.tables["ent"], h) + _rows(params.tables["rel"], r)) - _rows(
        params.tables["ent"], t
    )
    return _neg_norm(d, params.transe_p)


def _neg_norm(d, p):
    if p == 1:
        return -np.abs(d).sum(axis=-1)
    return -np.sqrt((d * d).sum(axis=-1))


def _transh_project(e, w):
    return e - (e * w).sum(axis=-1, keepdims=True) * w


def _score_transh(params, h, r, t):
    w = _rows(params.tables["norm"], r)
    hp = _transh_project(_rows(params.tables["ent"], h), w)
    tp = _transh_project(_rows(params.tables["ent"], t), w)
    d = (hp + _rows(params.tables["rel"], r)) - tp
    return -(d * d).sum(axis=-1)


def _score_transr(params, h, r, t):
    m = _rows(params.tables["proj"], r)  # [n, d, d]
    mh = np.einsum("nij,nj->ni", m, _rows(params.tables["ent"], h))
    mt = np.einsum("nij,nj->ni", m, _rows(params.tables["ent"], t))
    d = (mh + _rows(params.tables["rel"], r)) - mt
    return -(d * d).sum(axis=-1)


def _score_distmult(params, h, r, t):
    return (
        (_rows(params.tables["ent"], h) * _rows(params.tables["rel"], r))
        * _rows(params.tables["ent"], t)
    ).sum(axis=-1)


def _split(x, d):
    return x[..., :d], x[..., d:]


def _score_complex(params, h, r, t):
    d = params.dim
    hre, him = _split(_rows(params.tables["ent"], h), d)
    rre, rim = _split(_rows(params.tables["rel"], r), d)
    tre, tim = _split(_rows(params.tables["ent"], t), d)
    re = hre * rre - him * rim
    im = hre * rim + him * rre
    return (re * tre + im * tim).sum(axis=-1)


def _score_rotate(params, h, r, t):
    d = params.dim
    hre, him = _split(_rows(params.tables["ent"], h), d)
    tre, tim = _split(_rows(params.tables["ent"], t), d)
    theta = _rows(params.tables["rel"], r)
    cos, sin = np.cos(theta), np.sin(theta)
    ure = (hre * cos - him * sin) - tre
    uim = (hre * sin + him * cos) - tim
    return -np.sqrt((ure * ure + uim * uim).sum(axis=-1))


def _score_simple(params, h, r, t):
    eh_h = _rows(params.tables["ent_h"], h)
    et_t = _rows(params.tables["ent_t"], t)
    eh_t = _rows(params.tables["ent_h"], t)
    et_h = _rows(params.tables["ent_t"], h)
    rr = _rows(params.tables["rel"], r)
    ri = _rows(params.tables["rel_inv"], r)
    s1 = ((eh_h * rr) * et_t).sum(axis=-1)
    s2 = ((eh_t * ri) * et_h).sum(axis=-1)
    return 0.5 * (s1 + s2)


_SCORE = {
    "transe": _score_transe,
    "transh": _score_transh,
    "transr": _score_transr,
    "distmult": _score_distmult,
    "complex": _score_complex,
    "rotate": _score_rotate,
    "simple": _score_simple,
}


# ---------------------------------------------------------------------------
# candidate scoring (one slot swept over all entities)


def score_candidates(
    params: ModelParams, queries: np.ndarray, slot: int, chunk_elems: int = 1 << 24
) -> np.ndarray:
    """Score every entity in ``slot`` of each query; returns float64 [B, n_entities].

    Row i column e is ``score`` of query i with entity e substituted into
    the head (slot=0) or tail (slot=1) position, bit for bit: each chunk of
    queries is scored as explicit triples, whose gathered rows hold about
    ``chunk_elems`` elements per table (one query per chunk at least).
    """
    queries = _check_ids(params, queries)
    n_e = params.n_entities
    per_triple = max(t[0].size for t in params.tables.values())
    rows_per_chunk = max(1, chunk_elems // (n_e * per_triple))
    out = np.empty((len(queries), n_e), dtype=np.float64)
    for lo in range(0, len(queries), rows_per_chunk):
        q = queries[lo : lo + rows_per_chunk]
        out[lo : lo + len(q)] = score(params, candidate_triples(q, slot, n_e)).reshape(-1, n_e)
    return out


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
    queries = _check_ids(params, queries)
    if slot not in (HEAD, TAIL):
        raise ValueError(f"slot must be HEAD (0) or TAIL (1), got {slot}")
    fixed = queries[:, 0] if slot == TAIL else queries[:, 2]
    fn = _FAST[params.model]
    return fn(params, fixed, queries[:, 1], slot, {} if cache is None else cache)


def bilinear_candidates(
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
    return bilinear_candidates(q, *_entities(params, cache), params.dim)


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
    return bilinear_candidates(
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
    return bilinear_candidates(0.5 * np.concatenate(q, axis=1), cand, cand_norms, 2 * params.dim)


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


class GradAccumulator:
    """Collects per-row gradient contributions and merges them per table.

    Duplicate row ids sum; rows whose accumulated gradient would come from
    no contribution at all are simply absent from the result.
    """

    def __init__(self) -> None:
        self._parts: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}

    def add(self, table: str, ids: np.ndarray, rows: np.ndarray) -> None:
        if len(ids) == 0:
            return
        self._parts.setdefault(table, []).append((np.asarray(ids, dtype=np.int64), rows))

    def finalize(self) -> SparseGrad:
        out: SparseGrad = {}
        for table, parts in self._parts.items():
            ids = np.concatenate([p[0] for p in parts])
            rows = np.concatenate([p[1] for p in parts], axis=0)
            uniq, inverse = np.unique(ids, return_inverse=True)
            buf = np.zeros((len(uniq),) + rows.shape[1:], dtype=np.float64)
            np.add.at(buf, inverse, rows)
            out[table] = (uniq, buf)
        return out


def score_grad(params: ModelParams, triples: np.ndarray, coeff: np.ndarray) -> SparseGrad:
    """Accumulate coeff[i] * d(score_i)/d(params) over the batch, touched rows only.

    Triples whose coefficient is exactly zero contribute nothing and do
    not mark rows as touched.
    """
    triples = _check_ids(params, triples)
    coeff = np.asarray(coeff, dtype=np.float64).reshape(-1)
    if len(coeff) != len(triples):
        raise ValueError("coeff length must match triples")
    keep = coeff != 0.0
    triples, coeff = triples[keep], coeff[keep]
    acc = GradAccumulator()
    if len(triples):
        _GRAD[params.model](params, triples[:, 0], triples[:, 1], triples[:, 2], coeff, acc)
    return acc.finalize()


def _grad_transe(params, h, r, t, c, acc):
    d = (_rows(params.tables["ent"], h) + _rows(params.tables["rel"], r)) - _rows(
        params.tables["ent"], t
    )
    if params.transe_p == 1:
        u = np.sign(d)
    else:
        nrm = np.sqrt((d * d).sum(axis=-1, keepdims=True))
        u = d / np.where(nrm > 0, nrm, 1.0)
    g = -c[:, None] * u
    acc.add("ent", h, g)
    acc.add("rel", r, g)
    acc.add("ent", t, -g)


def _grad_transh(params, h, r, t, c, acc):
    w = _rows(params.tables["norm"], r)
    he = _rows(params.tables["ent"], h)
    te = _rows(params.tables["ent"], t)
    hp = _transh_project(he, w)
    tp = _transh_project(te, w)
    d = (hp + _rows(params.tables["rel"], r)) - tp
    v = d - (d * w).sum(axis=-1, keepdims=True) * w
    c2 = (2.0 * c)[:, None]
    acc.add("ent", h, -c2 * v)
    acc.add("ent", t, c2 * v)
    acc.add("rel", r, -c2 * d)
    a = te - he
    dw = (d * w).sum(axis=-1, keepdims=True)
    aw = (a * w).sum(axis=-1, keepdims=True)
    acc.add("norm", r, -c2 * (dw * a + aw * d))


def _grad_transr(params, h, r, t, c, acc):
    m = _rows(params.tables["proj"], r)
    he = _rows(params.tables["ent"], h)
    te = _rows(params.tables["ent"], t)
    mh = np.einsum("nij,nj->ni", m, he)
    mt = np.einsum("nij,nj->ni", m, te)
    d = (mh + _rows(params.tables["rel"], r)) - mt
    c2 = (2.0 * c)[:, None]
    mtd = np.einsum("nij,ni->nj", m, d)  # M^T d
    acc.add("ent", h, -c2 * mtd)
    acc.add("ent", t, c2 * mtd)
    acc.add("rel", r, -c2 * d)
    # dF/dM = -2c * outer(d, h - t)
    acc.add("proj", r, -2.0 * c[:, None, None] * d[:, :, None] * (he - te)[:, None, :])


def _grad_distmult(params, h, r, t, c, acc):
    he = _rows(params.tables["ent"], h)
    re = _rows(params.tables["rel"], r)
    te = _rows(params.tables["ent"], t)
    cc = c[:, None]
    acc.add("ent", h, cc * (re * te))
    acc.add("rel", r, cc * (he * te))
    acc.add("ent", t, cc * (he * re))


def _grad_complex(params, h, r, t, c, acc):
    d = params.dim
    hre, him = _split(_rows(params.tables["ent"], h), d)
    rre, rim = _split(_rows(params.tables["rel"], r), d)
    tre, tim = _split(_rows(params.tables["ent"], t), d)
    cc = c[:, None]
    gh = np.concatenate([rre * tre + rim * tim, rre * tim - rim * tre], axis=1)
    gr = np.concatenate([hre * tre + him * tim, hre * tim - him * tre], axis=1)
    gt = np.concatenate([hre * rre - him * rim, hre * rim + him * rre], axis=1)
    acc.add("ent", h, cc * gh)
    acc.add("rel", r, cc * gr)
    acc.add("ent", t, cc * gt)


def _grad_rotate(params, h, r, t, c, acc):
    d = params.dim
    hre, him = _split(_rows(params.tables["ent"], h), d)
    tre, tim = _split(_rows(params.tables["ent"], t), d)
    theta = _rows(params.tables["rel"], r)
    cos, sin = np.cos(theta), np.sin(theta)
    hr_re = hre * cos - him * sin
    hr_im = hre * sin + him * cos
    ure = hr_re - tre
    uim = hr_im - tim
    nrm = np.sqrt((ure * ure + uim * uim).sum(axis=-1, keepdims=True))
    fac = c[:, None] / np.where(nrm > 0, nrm, 1.0)
    ghre = -(ure * cos + uim * sin) * fac
    ghim = -(-ure * sin + uim * cos) * fac
    acc.add("ent", h, np.concatenate([ghre, ghim], axis=1))
    acc.add("ent", t, np.concatenate([ure * fac, uim * fac], axis=1))
    acc.add("rel", r, (ure * hr_im - uim * hr_re) * fac)


def _grad_simple(params, h, r, t, c, acc):
    eh_h = _rows(params.tables["ent_h"], h)
    et_t = _rows(params.tables["ent_t"], t)
    eh_t = _rows(params.tables["ent_h"], t)
    et_h = _rows(params.tables["ent_t"], h)
    rr = _rows(params.tables["rel"], r)
    ri = _rows(params.tables["rel_inv"], r)
    half = (0.5 * c)[:, None]
    acc.add("ent_h", h, half * (rr * et_t))
    acc.add("rel", r, half * (eh_h * et_t))
    acc.add("ent_t", t, half * (eh_h * rr))
    acc.add("ent_h", t, half * (ri * et_h))
    acc.add("rel_inv", r, half * (eh_t * et_h))
    acc.add("ent_t", h, half * (eh_t * ri))


_GRAD = {
    "transe": _grad_transe,
    "transh": _grad_transh,
    "transr": _grad_transr,
    "distmult": _grad_distmult,
    "complex": _grad_complex,
    "rotate": _grad_rotate,
    "simple": _grad_simple,
}


def grad(
    params: ModelParams, batch: NegBatch | LabeledBatch, loss_spec: LossSpec
) -> tuple[float, SparseGrad]:
    """Batch loss and its sparse gradient over every touched table row.

    A :class:`NegBatch` pairs with margin / self_adversarial / bce (labels
    1 for positives, 0 for negatives); a :class:`LabeledBatch` requires bce.
    """
    loss_spec.validate()
    if isinstance(batch, LabeledBatch):
        if loss_spec.kind != "bce":
            raise ValueError(f"labeled batches require the bce loss, got {loss_spec.kind!r}")
        scores = score(params, batch.triples)
        loss = bce_loss(scores, batch.labels, loss_spec.label_smoothing)
        d_scores = bce_loss_grads(scores, batch.labels, loss_spec.label_smoothing)
        return loss, score_grad(params, batch.triples, d_scores)

    b, n = batch.negatives.shape[:2]
    pos_scores = score(params, batch.positives)
    neg_flat = batch.negatives.reshape(-1, 3)
    neg_scores = score(params, neg_flat).reshape(b, n)

    if loss_spec.kind == "margin":
        loss = margin_loss(pos_scores, neg_scores, loss_spec.margin)
        d_pos, d_neg = margin_loss_grads(pos_scores, neg_scores, loss_spec.margin)
    elif loss_spec.kind == "self_adversarial":
        loss = self_adversarial_loss(
            pos_scores, neg_scores, loss_spec.margin, loss_spec.adv_temperature
        )
        d_pos, d_neg = self_adversarial_loss_grads(
            pos_scores, neg_scores, loss_spec.margin, loss_spec.adv_temperature
        )
    else:  # bce
        scores = np.concatenate([pos_scores, neg_scores.reshape(-1)])
        labels = np.concatenate([np.ones(b), np.zeros(b * n)])
        loss = bce_loss(scores, labels, loss_spec.label_smoothing)
        d = bce_loss_grads(scores, labels, loss_spec.label_smoothing)
        d_pos, d_neg = d[:b], d[b:].reshape(b, n)

    acc = GradAccumulator()
    for triples, coeff in ((batch.positives, d_pos), (neg_flat, d_neg.reshape(-1))):
        keep = coeff != 0.0
        if keep.any():
            kept = triples[keep]
            _GRAD[params.model](params, kept[:, 0], kept[:, 1], kept[:, 2], coeff[keep], acc)
    return loss, acc.finalize()
