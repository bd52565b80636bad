import numpy as np
import pytest

from kgembed.losses import LossSpec
from kgembed.models import (
    MODEL_KINDS,
    ModelParams,
    grad,
    init_params,
    renormalize_entities,
    renormalize_normals,
    score,
    score_candidates,
    score_grad,
)
from kgembed.sampling import HEAD, TAIL, LabeledBatch, NegBatch

from fd_utils import fd_gradient, relative_error

def make_params(model, tables, dim, p=1):
    return ModelParams(
        model=model,
        dim=dim,
        tables={k: np.asarray(v, dtype=np.float32) for k, v in tables.items()},
        transe_p=p,
    )


def random_batch(params, rng, b=6, n=3):
    n_e, n_r = params.n_entities, params.n_relations
    pos = np.stack(
        [rng.integers(0, n_e, b), rng.integers(0, n_r, b), rng.integers(0, n_e, b)], axis=1
    )
    neg = np.repeat(pos[:, None, :], n, axis=1)
    slot = (rng.random((b, n)) < 0.5).astype(np.uint8)
    repl = rng.integers(0, n_e, (b, n))
    for i in range(b):
        for j in range(n):
            neg[i, j, 0 if slot[i, j] == HEAD else 2] = repl[i, j]
    return NegBatch(pos, neg, slot, np.zeros((b, n), dtype=bool))


# --- init ------------------------------------------------------------------


@pytest.mark.parametrize("model", MODEL_KINDS)
def test_init_within_bound(model):
    d = 8
    params = init_params(model, 20, 5, d, seed=0)
    bound = 6.0 / np.sqrt(d)
    for name, table in params.tables.items():
        if model == "rotate" and name == "rel":
            assert (table >= -np.pi).all() and (table < np.pi).all()
        elif model == "transr" and name == "proj":
            assert (table == np.eye(d, dtype=np.float32)).all()
        elif model == "transh" and name == "norm":
            assert np.allclose(np.linalg.norm(table, axis=1), 1.0, atol=1e-6)
        else:
            assert (np.abs(table) <= bound).all()


def test_init_deterministic():
    a = init_params("complex", 10, 4, 6, seed=42)
    b = init_params("complex", 10, 4, 6, seed=42)
    for name in a.tables:
        assert a.tables[name].tobytes() == b.tables[name].tobytes()
    c = init_params("complex", 10, 4, 6, seed=43)
    assert a.tables["ent"].tobytes() != c.tables["ent"].tobytes()


def test_init_zero_dim_errors():
    with pytest.raises(ValueError):
        init_params("transe", 5, 2, 0, seed=0)


def test_init_unknown_model_errors():
    with pytest.raises(ValueError):
        init_params("conve", 5, 2, 4, seed=0)


# --- score examples --------------------------------------------------------


def test_transe_exact_translation_scores_zero():
    params = make_params(
        "transe", {"ent": [[1.0, 0.0], [1.0, 1.0]], "rel": [[0.0, 1.0]]}, dim=2
    )
    assert score(params, np.array([[0, 0, 1]]))[0] == 0.0


def test_distmult_arithmetic():
    params = make_params(
        "distmult", {"ent": [[1.0, 2.0], [1.0, 1.0]], "rel": [[1.0, 1.0]]}, dim=2
    )
    assert score(params, np.array([[0, 0, 1]]))[0] == pytest.approx(3.0)


def test_complex_reduces_to_distmult_on_real_parts():
    rng = np.random.default_rng(0)
    re_ent = rng.normal(size=(5, 3)).astype(np.float32)
    re_rel = rng.normal(size=(2, 3)).astype(np.float32)
    cp = make_params(
        "complex",
        {"ent": np.concatenate([re_ent, np.zeros_like(re_ent)], 1),
         "rel": np.concatenate([re_rel, np.zeros_like(re_rel)], 1)},
        dim=3,
    )
    dm = make_params("distmult", {"ent": re_ent, "rel": re_rel}, dim=3)
    triples = np.array([[0, 0, 1], [2, 1, 3], [4, 0, 0]])
    assert np.allclose(score(cp, triples), score(dm, triples))


def test_rotate_identity_rotation_is_negative_distance():
    rng = np.random.default_rng(1)
    ent = rng.normal(size=(4, 6)).astype(np.float32)
    params = make_params("rotate", {"ent": ent, "rel": np.zeros((1, 3))}, dim=3)
    triples = np.array([[0, 0, 1], [2, 0, 3]])
    got = score(params, triples)
    h, t = ent[[0, 2]].astype(np.float64), ent[[1, 3]].astype(np.float64)
    expected = -np.linalg.norm(h - t, axis=1)
    assert np.allclose(got, expected)


# --- invariants ------------------------------------------------------------


def test_distmult_symmetry():
    params = init_params("distmult", 8, 3, 5, seed=7)
    rng = np.random.default_rng(2)
    tr = np.stack([rng.integers(0, 8, 20), rng.integers(0, 3, 20), rng.integers(0, 8, 20)], 1)
    swapped = tr[:, [2, 1, 0]]
    assert np.array_equal(score(params, tr), score(params, swapped))


def test_rotate_inverse_rotation_symmetry():
    params = init_params("rotate", 8, 3, 5, seed=8)
    inv = params.copy()
    inv.tables["rel"] = -inv.tables["rel"]
    rng = np.random.default_rng(3)
    tr = np.stack([rng.integers(0, 8, 20), rng.integers(0, 3, 20), rng.integers(0, 8, 20)], 1)
    assert np.allclose(score(params, tr), score(inv, tr[:, [2, 1, 0]]))


def test_simple_swap_with_inverse_relation():
    params = init_params("simple", 8, 3, 5, seed=9)
    swapped = params.copy()
    swapped.tables["rel"], swapped.tables["rel_inv"] = (
        swapped.tables["rel_inv"],
        swapped.tables["rel"],
    )
    rng = np.random.default_rng(4)
    tr = np.stack([rng.integers(0, 8, 20), rng.integers(0, 3, 20), rng.integers(0, 8, 20)], 1)
    assert np.allclose(score(params, tr), score(swapped, tr[:, [2, 1, 0]]))


def test_transh_projection_orthogonal():
    params = init_params("transh", 8, 3, 6, seed=10)
    w = params.tables["norm"].astype(np.float64)
    e = params.tables["ent"].astype(np.float64)
    proj = e[:, None, :] - (e @ w.T)[:, :, None] * w[None, :, :]
    dots = np.einsum("nrd,rd->nr", proj, w)
    assert np.abs(dots).max() < 1e-6


def test_transe_translation_invariance():
    params = init_params("transe", 8, 3, 5, seed=11)
    shifted = params.copy()
    shifted.tables["ent"] = shifted.tables["ent"] + np.float32(0.37)
    rng = np.random.default_rng(5)
    tr = np.stack([rng.integers(0, 8, 20), rng.integers(0, 3, 20), rng.integers(0, 8, 20)], 1)
    assert np.allclose(score(params, tr), score(shifted, tr), atol=1e-5)


def test_simple_is_mean_of_directional_products():
    params = init_params("simple", 6, 2, 4, seed=12)
    tr = np.array([[0, 0, 1], [2, 1, 3]])
    eh = params.tables["ent_h"].astype(np.float64)
    et = params.tables["ent_t"].astype(np.float64)
    rr = params.tables["rel"].astype(np.float64)
    ri = params.tables["rel_inv"].astype(np.float64)
    for h, r, t in tr:
        s1 = (eh[h] * rr[r] * et[t]).sum()
        s2 = (eh[t] * ri[r] * et[h]).sum()
        assert score(params, np.array([[h, r, t]]))[0] == pytest.approx(0.5 * (s1 + s2))


# --- candidate scoring consistency ----------------------------------------


@pytest.mark.parametrize("model", MODEL_KINDS)
@pytest.mark.parametrize("slot", [HEAD, TAIL])
def test_candidates_match_per_triple_scores(model, slot):
    params = init_params(model, 12, 4, 5, seed=13)
    if model == "transr":
        rng = np.random.default_rng(0)
        params.tables["proj"] += rng.normal(0, 0.2, params.tables["proj"].shape).astype(
            np.float32
        )
    rng = np.random.default_rng(6)
    queries = np.stack(
        [rng.integers(0, 12, 7), rng.integers(0, 4, 7), rng.integers(0, 12, 7)], 1
    )
    for p in (1, 2) if model == "transe" else (1,):
        params.transe_p = p
        matrix = score_candidates(params, queries, slot)
        explicit = np.empty_like(matrix)
        for e in range(12):
            probe = queries.copy()
            probe[:, 0 if slot == HEAD else 2] = e
            explicit[:, e] = score(params, probe)
        assert np.array_equal(matrix, explicit), p


def test_candidates_chunking_consistent():
    params = init_params("complex", 30, 3, 4, seed=14)
    queries = np.stack([np.arange(20) % 30, np.arange(20) % 3, (np.arange(20) * 7) % 30], 1)
    full = score_candidates(params, queries, TAIL)
    small = score_candidates(params, queries, TAIL, chunk_elems=64)
    assert np.array_equal(full, small)


# --- errors ----------------------------------------------------------------


def test_score_out_of_range_ids():
    params = init_params("transe", 4, 2, 3, seed=0)
    with pytest.raises(ValueError, match="entity id"):
        score(params, np.array([[0, 0, 4]]))
    with pytest.raises(ValueError, match="relation id"):
        score(params, np.array([[0, 2, 1]]))


# --- gradients -------------------------------------------------------------


def test_margin_all_satisfied_gives_empty_grad():
    params = make_params(
        "transe", {"ent": [[0.0, 0.0], [5.0, 5.0]], "rel": [[0.0, 0.0]]}, dim=2
    )
    pos = np.array([[0, 0, 0]])  # score 0
    neg = np.array([[[0, 0, 1]]])  # score -10, margin satisfied by far
    nb = NegBatch(pos, neg, np.array([[TAIL]], dtype=np.uint8), np.zeros((1, 1), bool))
    loss, grads = grad(params, nb, LossSpec("margin", margin=1.0))
    assert loss == 0.0 and grads == {}


def test_duplicate_rows_sum_contributions():
    params = init_params("distmult", 6, 2, 4, seed=15)
    tr_once = np.array([[1, 0, 2]])
    tr_twice = np.array([[1, 0, 2], [1, 0, 2]])
    g1 = score_grad(params, tr_once, np.array([1.0]))
    g2 = score_grad(params, tr_twice, np.array([1.0, 1.0]))
    for table in g1:
        ids1, rows1 = g1[table]
        ids2, rows2 = g2[table]
        assert np.array_equal(ids1, ids2)
        assert np.allclose(rows2, 2.0 * rows1)


@pytest.mark.parametrize("model", MODEL_KINDS)
def test_spot_finite_difference(model):
    params = init_params(model, 10, 4, 5, seed=16)
    if model == "transr":
        rng = np.random.default_rng(1)
        params.tables["proj"] += rng.normal(0, 0.3, params.tables["proj"].shape).astype(
            np.float32
        )
    rng = np.random.default_rng(17)
    batch = random_batch(params, rng)
    spec = LossSpec("bce")
    _, grads = grad(params, batch, spec)
    checked = 0
    for table, (ids, rows) in grads.items():
        for k in range(min(2, len(ids))):
            coord = np.unravel_index(rng.integers(0, rows[k].size), rows[k].shape)
            numeric = fd_gradient(params, batch, spec, table, int(ids[k]), coord)
            assert relative_error(rows[k][coord], numeric) < 1e-4
            checked += 1
    assert checked > 0


def test_grad_labeled_batch_requires_bce():
    params = init_params("distmult", 6, 2, 4, seed=18)
    lb = LabeledBatch(np.array([[0, 0, 1]]), np.array([1.0]))
    with pytest.raises(ValueError, match="bce"):
        grad(params, lb, LossSpec("margin"))


# --- renormalization -------------------------------------------------------


def test_renormalize_entities_unit_rows():
    params = init_params("transe", 7, 2, 5, seed=19)
    renormalize_entities(params)
    norms = np.linalg.norm(params.tables["ent"].astype(np.float64), axis=1)
    assert np.allclose(norms, 1.0, atol=1e-6)


def test_renormalize_normals_only_transh():
    params = init_params("transh", 7, 2, 5, seed=20)
    params.tables["norm"] *= 3.0
    renormalize_normals(params)
    norms = np.linalg.norm(params.tables["norm"].astype(np.float64), axis=1)
    assert np.allclose(norms, 1.0, atol=1e-6)
