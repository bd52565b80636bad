import tracemalloc

import numpy as np
import pytest

from kgembed import gnn, models
from kgembed.losses import (
    LossSpec,
    bce_loss,
    bce_loss_grads,
    margin_loss,
    margin_loss_grads,
    self_adversarial_loss,
    self_adversarial_loss_grads,
    sigmoid,
)
from kgembed.models import (
    MODEL_KINDS,
    ModelParams,
    fast_candidates,
    grad,
    init_params,
    renormalize_entities,
    renormalize_normals,
    score,
    score_candidates,
)
from kgembed.sampling import HEAD, TAIL, LabeledBatch, NegBatch

from fd_utils import fd_gradient, flat_score_grad, flat_scores, relative_error

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
    slot = (rng.random((b, n)) < 0.5).astype(np.uint8)
    repl = rng.integers(0, n_e, (b, n))
    return NegBatch(pos, repl, slot, np.zeros((b, n), dtype=bool))


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


# each bilinear model's partials (q_h, q_r, q_t), and the trilinear terms whose mean is its
# score, each as (head table, relation table, tail table)
BILINEAR_TERMS = {
    model: (partials, terms) for model, (partials, _, terms) in models._TRILINEAR.items()
}


@pytest.mark.parametrize("model", sorted(BILINEAR_TERMS))
def test_each_partial_dotted_with_its_row_is_the_score(model):
    """Euler's identity for a trilinear form: q_h(r, t).h = q_r(h, t).r = q_t(h, r).t = T.
    SimplE's score is the mean of its two terms, so each of its entity tables is checked
    as a head row and as a tail row."""
    params = init_params(model, 30, 4, 7, seed=61)
    triples = random_triples(np.random.default_rng(62), 200, 30)
    (q_h, q_r, q_t), terms = BILINEAR_TERMS[model]
    expected = score(params, triples)
    for part in range(3):
        total = 0.0
        for names in terms:
            h, r, t = (params.tables[n][triples[:, col]].astype(np.float64)
                       for col, n in enumerate(names))
            total = total + ((q_h(r, t) * h, q_r(h, t) * r, q_t(h, r) * t)[part]).sum(axis=1)
        np.testing.assert_allclose(total / len(terms), expected, rtol=1e-12, atol=0, err_msg=part)


@pytest.mark.parametrize("model", sorted(BILINEAR_TERMS))
def test_each_majorant_bounds_both_query_vectors(model):
    """m(|x|, |r|) >= |q_t(x, r)| and >= |q_h(r, x)| elementwise: ranking's bound takes it for
    the magnitudes of q's products. Relation rows built from the entity rows' halves make each
    half of ComplEx's q_t and q_h cancel in turn, where |q| alone would undercount."""
    (q_h, _, q_t), majorant, _ = models._TRILINEAR[model]
    rng = np.random.default_rng(64)
    x = rng.normal(size=(50, 12)).astype(np.float32).astype(np.float64)
    a, b = x[:, :6], x[:, 6:]
    pairs = [rng.normal(size=x.shape).astype(np.float32), np.zeros(x.shape)]
    pairs += [np.concatenate(halves, axis=1) for halves in ((b, a), (a, -b), (b, -a), (a, b))]
    x, r = np.concatenate([x] * len(pairs)), np.concatenate(pairs)
    mag = majorant(np.abs(x), np.abs(r))
    assert np.all(mag >= np.abs(q_t(x, r)))
    assert np.all(mag >= np.abs(q_h(r, x)))


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


def test_candidates_chunking_consistent(monkeypatch):
    params = init_params("complex", 30, 3, 4, seed=14)
    queries = np.stack([np.arange(20) % 30, np.arange(20) % 3, (np.arange(20) * 7) % 30], 1)
    full = score_candidates(params, queries, TAIL)
    monkeypatch.setattr(models, "_GRAD_CHUNK_ELEMS", 64)
    small = score_candidates(params, queries, TAIL)
    assert np.array_equal(full, small)


@pytest.mark.parametrize("candidates", [score_candidates, fast_candidates])
def test_candidates_reject_a_slot_other_than_head_or_tail(candidates):
    params = init_params("transe", 6, 2, 4, seed=21)
    with pytest.raises(ValueError, match=r"slot must be HEAD \(0\) or TAIL \(1\), got 2"):
        candidates(params, np.array([[0, 0, 1]]), 2)


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
    repl = np.array([[1]])  # (0, 0, 1) scores -10, margin satisfied by far
    nb = NegBatch(pos, repl, np.array([[TAIL]], dtype=np.uint8), np.zeros((1, 1), bool))
    loss, grads = grad(params, nb, LossSpec("margin", margin=1.0))
    assert loss == 0.0 and grads == {}


def test_duplicate_rows_sum_contributions():
    """Each copy of a repeated triple carries half the mean bce coefficient,
    so the gradient equals the single triple's only if both copies add up."""
    params = init_params("distmult", 6, 2, 4, seed=15)
    tr_once = np.array([[1, 0, 2]])
    tr_twice = np.array([[1, 0, 2], [1, 0, 2]])
    _, g1 = grad(params, LabeledBatch(tr_once, np.array([1.0])), LossSpec("bce"))
    _, g2 = grad(params, LabeledBatch(tr_twice, np.array([1.0, 1.0])), LossSpec("bce"))
    assert g1.keys() == g2.keys()
    for table in g1:
        ids1, rows1 = g1[table]
        ids2, rows2 = g2[table]
        assert np.array_equal(ids1, ids2)
        assert np.allclose(rows2, rows1)


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


# every model kind, TransE under both norms
GRAD_MODELS = [("transe", 1), ("transe", 2)] + [(m, 1) for m in MODEL_KINDS if m != "transe"]
NEG_LOSSES = ("margin", "self_adversarial", "bce")


def grad_params(model, p, n_entities=10, n_relations=4):
    params = init_params(model, n_entities, n_relations, 5, seed=31)
    params.transe_p = p
    if model == "transr":
        rng = np.random.default_rng(1)
        params.tables["proj"] += rng.normal(0, 0.3, params.tables["proj"].shape).astype(
            np.float32
        )
    return params


def neg_batch(positives, slot, replacement):
    """The negatives of ``positives`` with ``replacement[i, j]`` put in ``slot[i, j]``."""
    return NegBatch(positives, replacement, slot.astype(np.uint8), np.zeros(slot.shape, dtype=bool))


def flat_reference(params, batch, spec):
    """The loss, and the flat oracle's gradient over positives then negatives."""
    b, n = batch.negatives.shape[:2]
    pos = flat_scores(params, batch.positives)
    neg = flat_scores(params, batch.negatives.reshape(-1, 3)).reshape(b, n)
    if spec.kind == "margin":
        loss = margin_loss(pos, neg, spec.margin)
        d_pos, d_neg = margin_loss_grads(pos, neg, spec.margin)
    elif spec.kind == "self_adversarial":
        loss = self_adversarial_loss(pos, neg, spec.margin, spec.adv_temperature)
        d_pos, d_neg = self_adversarial_loss_grads(pos, neg, spec.margin, spec.adv_temperature)
    else:
        scores = np.concatenate([pos, neg.reshape(-1)])
        labels = np.concatenate([np.ones(b), np.zeros(b * n)])
        loss = bce_loss(scores, labels, spec.label_smoothing)
        d = bce_loss_grads(scores, labels, spec.label_smoothing)
        d_pos, d_neg = d[:b], d[b:]
    triples = np.concatenate([batch.positives, batch.negatives.reshape(-1, 3)])
    return loss, flat_score_grad(params, triples, np.concatenate([d_pos, d_neg.reshape(-1)]))


def assert_grads_match(grads, ref):
    assert grads.keys() == ref.keys()
    for table, (ref_ids, ref_rows) in ref.items():
        ids, rows = grads[table]
        assert np.array_equal(ids, ref_ids), table
        assert np.allclose(rows, ref_rows, rtol=1e-12, atol=1e-15), table


def assert_matches_flat(params, batch, spec):
    loss, grads = grad(params, batch, spec)
    ref_loss, ref = flat_reference(params, batch, spec)
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert_grads_match(grads, ref)


def chunk_positives(monkeypatch, params, n, positives):
    """Make ``grad`` run the negatives ``positives`` at a time."""
    widest = max(t[0].size for t in params.tables.values())
    monkeypatch.setattr(models, "_GRAD_CHUNK_ELEMS", positives * n * widest)


def rescale_tables(params, tables):
    """The tables as float64 (RGCN's decoder view), or every row scaled by 1e6 or 1e-6."""
    for name, table in params.tables.items():
        if tables == "float64":
            params.tables[name] = table.astype(np.float64)
        elif tables != "float32":
            params.tables[name] = (table * float(tables)).astype(np.float32)


@pytest.mark.parametrize(
    "n,tables",
    [(1, "float32"), (4, "float32"), (4, "float64"), (4, "1e6"), (4, "1e-6")],
    ids=["1", "4", "4-float64", "4-1e6", "4-1e-6"],
)
@pytest.mark.parametrize("loss", NEG_LOSSES)
@pytest.mark.parametrize("model,p", GRAD_MODELS)
def test_negatives_grad_matches_flat_reference(monkeypatch, model, p, loss, n, tables):
    """Duplicate positives, replacements equal to the anchor, 7 positives in chunks of 3."""
    params = grad_params(model, p)
    rescale_tables(params, tables)
    rng = np.random.default_rng(32)
    b = 7
    pos = np.stack([rng.integers(0, 10, b), rng.integers(0, 4, b), rng.integers(0, 10, b)], axis=1)
    pos[3] = pos[0]
    slot = rng.integers(0, 2, (b, n))
    repl = rng.integers(0, 10, (b, n))
    # the replacement is the entity the corruption left alone: (t, r, t) or (h, r, h)
    repl[0, 0], slot[0, 0] = pos[0, 2], HEAD
    repl[1, 0], slot[1, 0] = pos[1, 0], TAIL
    chunk_positives(monkeypatch, params, n, 3)
    assert_matches_flat(params, neg_batch(pos, slot, repl), LossSpec(loss, margin=2.0))


@pytest.mark.parametrize("model,p", GRAD_MODELS)
def test_negatives_grad_inactive_margin_negatives(monkeypatch, model, p):
    """Some negatives satisfy the margin, and so do all of the first positive's.

    The first positive's negatives are the positive itself, which a zero
    margin leaves inactive. No two positives share an id and no other
    replacement is a positive's entity, so a row added for an anchor no
    kept negative uses shows in the ids.
    """
    params = grad_params(model, p, n_entities=40, n_relations=6)
    rng = np.random.default_rng(34)
    b, n = 6, 5
    pos = np.stack([np.arange(0, 2 * b, 2), np.arange(b), np.arange(1, 2 * b, 2)], axis=1)
    slot = rng.integers(0, 2, (b, n))
    repl = rng.integers(2 * b, 40, (b, n))
    repl[0] = np.where(slot[0] == HEAD, pos[0, 0], pos[0, 2])
    batch = neg_batch(pos, slot, repl)
    neg = score(params, batch.negatives.reshape(-1, 3)).reshape(b, n)
    active = neg > score(params, pos)[:, None]
    assert not active[0].any() and active.any() and (~active[1:]).any()
    chunk_positives(monkeypatch, params, n, 4)
    assert_matches_flat(params, batch, LossSpec("margin", margin=0.0))


@pytest.mark.parametrize("tables", ["float32", "float64", "1e6", "1e-6"])
@pytest.mark.parametrize("model,p", GRAD_MODELS)
def test_score_grad_matches_flat_reference(monkeypatch, model, p, tables):
    """``grad`` on a LabeledBatch: repeated triples and zero coefficients, 11
    triples in chunks of 3."""
    params = grad_params(model, p)
    rescale_tables(params, tables)
    rng = np.random.default_rng(33)
    triples = np.stack([rng.integers(0, 10, 11), rng.integers(0, 4, 11), rng.integers(0, 10, 11)], 1)
    triples[5], triples[9] = triples[0], triples[2]
    labels = rng.random(11)
    labels[[3, 7]] = sigmoid(flat_scores(params, triples[[3, 7]]))  # bce coefficient exactly 0
    coeff = bce_loss_grads(flat_scores(params, triples), labels)
    assert not coeff[[3, 7]].any()
    chunk_positives(monkeypatch, params, 1, 3)
    _, grads = grad(params, LabeledBatch(triples, labels), LossSpec("bce"))
    assert_grads_match(grads, flat_score_grad(params, triples, coeff))


@pytest.mark.parametrize("loss", NEG_LOSSES)
def test_negatives_grad_rejects_zero_negatives(loss):
    params = init_params("transe", 6, 2, 4, seed=36)
    nb = NegBatch(
        np.array([[0, 0, 1], [2, 1, 3]]),
        np.zeros((2, 0), dtype=np.int64),
        np.zeros((2, 0), dtype=np.uint8),
        np.zeros((2, 0), dtype=bool),
    )
    with pytest.raises(ValueError, match=r"N >= 1, got replaced of shape \(2, 0\)"):
        grad(params, nb, LossSpec(loss))


@pytest.mark.parametrize("bad", [-1, 6])
def test_negatives_grad_rejects_out_of_range_replaced_ids(bad):
    params = init_params("transe", 6, 2, 4, seed=36)
    nb = NegBatch(
        np.array([[0, 0, 1], [2, 1, 3]]),
        np.array([[1, 2], [bad, 4]]),
        np.zeros((2, 2), dtype=np.uint8),
        np.zeros((2, 2), dtype=bool),
    )
    with pytest.raises(ValueError, match=r"replaced entity id out of range \(6 entities\)"):
        grad(params, nb, LossSpec("margin"))


@pytest.mark.parametrize(
    "replaced_shape,slot_shape",
    [((2, 3), (2, 2)), ((2, 3), (3,)), ((6,), (6,)), ((3, 2), (3, 2))],
    ids=["slot-narrower", "slot-1d", "replaced-1d", "rows-differ"],
)
def test_negatives_grad_rejects_replaced_and_slot_of_other_shapes(replaced_shape, slot_shape):
    params = init_params("transe", 6, 2, 4, seed=36)
    nb = NegBatch(
        np.array([[0, 0, 1], [2, 1, 3]]),
        np.ones(replaced_shape, dtype=np.int64),
        np.zeros(slot_shape, dtype=np.uint8),
        np.zeros(slot_shape, dtype=bool),
    )
    with pytest.raises(ValueError, match=r"needs \[2, N\] replaced ids and slots") as err:
        grad(params, nb, LossSpec("bce"))
    assert f"replaced of shape {replaced_shape}" in str(err.value)
    assert f"slot of shape {slot_shape}" in str(err.value)


@pytest.mark.parametrize("n_triples,n_labels", [(3, 1), (1, 3)])
@pytest.mark.parametrize("which", ["batch", "soft"])
def test_grad_needs_one_label_per_triple(which, n_triples, n_labels):
    """Too few labels must not broadcast, and too many must not reach the gradient."""
    params = init_params("complex", 6, 2, 4, seed=36)
    short = LabeledBatch(np.array([[0, 0, 1], [2, 1, 3], [4, 0, 5]])[:n_triples], np.ones(n_labels))
    whole = LabeledBatch(np.array([[1, 1, 2]]), np.ones(1))
    batch, soft = (short, whole) if which == "batch" else (whole, short)
    with pytest.raises(ValueError, match=f"the {which} batch needs one label per triple") as err:
        grad(params, batch, LossSpec("bce"), soft=soft)
    assert f"labels of shape ({n_labels},) for triples of shape ({n_triples}, 3)" in str(err.value)


@pytest.mark.parametrize("loss", NEG_LOSSES)
def test_negatives_grad_peak_memory_does_not_grow_with_batch(monkeypatch, loss):
    """Chunks of 16 positives: a batch four times larger may not raise the peak by 25%."""
    params = init_params("transe", 100, 4, 128, seed=37)
    n = 16
    chunk_positives(monkeypatch, params, n, 16)
    rng = np.random.default_rng(38)
    spec = LossSpec(loss)
    grad(params, random_batch(params, rng, b=16, n=n), spec)  # numpy's one-time allocations

    def peak(b):
        batch = random_batch(params, rng, b=b, n=n)
        tracemalloc.start()
        try:
            grad(params, batch, spec)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(256), peak(1024)
    assert large <= 1.25 * small, (small, large)


def test_labeled_grad_peak_memory_grows_per_triple_not_per_row(monkeypatch):
    """bce on 17 triples per positive, chunks of 272: the peak may grow by 16 float64 per triple."""
    params = init_params("transe", 100, 4, 128, seed=39)
    chunk_positives(monkeypatch, params, 1, 16 * 17)
    rng = np.random.default_rng(40)
    spec = LossSpec("bce")

    def labeled(b):
        nb = random_batch(params, rng, b=b, n=16)
        triples = np.concatenate([nb.positives[:, None], nb.negatives], axis=1).reshape(-1, 3)
        labels = np.tile(np.r_[1.0, np.zeros(16)], b)
        return LabeledBatch(triples, labels)

    grad(params, labeled(16), spec)  # numpy's one-time allocations

    def peak(b):
        batch = labeled(b)
        tracemalloc.start()
        try:
            grad(params, batch, spec)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(256), peak(1024)
    assert large - small < 16 * 8 * 17 * (1024 - 256), (small, large)


def test_grad_labeled_batch_requires_bce():
    params = init_params("distmult", 6, 2, 4, seed=18)
    lb = LabeledBatch(np.array([[0, 0, 1]]), np.array([1.0]))
    with pytest.raises(ValueError, match="bce"):
        grad(params, lb, LossSpec("margin"))


@pytest.mark.parametrize("smoothing", [0.0, 0.1])
@pytest.mark.parametrize("model,p", GRAD_MODELS)
def test_labeled_grad_with_soft_matches_flat_reference(monkeypatch, model, p, smoothing):
    """Soft triples share rows with the batch's, and chunks of 3 straddle the two."""
    params = grad_params(model, p)
    rng = np.random.default_rng(43)
    triples = np.stack([rng.integers(0, 10, 7), rng.integers(0, 4, 7), rng.integers(0, 10, 7)], 1)
    soft_triples = np.stack([rng.integers(0, 10, 5), rng.integers(0, 4, 5), rng.integers(0, 10, 5)], 1)
    soft_triples[0] = triples[2]
    labels, soft_labels = rng.random(7), rng.random(5)
    chunk_positives(monkeypatch, params, 1, 3)
    spec = LossSpec("bce", label_smoothing=smoothing)
    loss, grads = grad(
        params, LabeledBatch(triples, labels), spec, soft=LabeledBatch(soft_triples, soft_labels)
    )
    s, s_soft = flat_scores(params, triples), flat_scores(params, soft_triples)
    ref_loss = bce_loss(s, labels, smoothing) + bce_loss(s_soft, soft_labels, smoothing)
    coeff = np.concatenate(
        [bce_loss_grads(s, labels, smoothing), bce_loss_grads(s_soft, soft_labels, smoothing)]
    )
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert_grads_match(grads, flat_score_grad(params, np.concatenate([triples, soft_triples]), coeff))


def test_grad_soft_requires_bce():
    params = init_params("distmult", 6, 2, 4, seed=19)
    soft = LabeledBatch(np.array([[2, 1, 3]]), np.array([0.5]))
    batch = neg_batch(np.array([[0, 0, 1]]), np.array([[TAIL]]), np.array([[4]]))
    for spec in (LossSpec("margin"), LossSpec("self_adversarial")):
        with pytest.raises(ValueError, match=f"soft labels require the bce loss, got '{spec.kind}'"):
            grad(params, batch, spec, soft=soft)


@pytest.mark.parametrize(
    "triple,message",
    [([0, 0, 6], r"entity id 6 out of range \(6 entities\)"),
     ([0, 2, 1], r"relation id 2 out of range \(2 relations\)")],
    ids=["entity", "relation"],
)
def test_grad_soft_rejects_an_out_of_range_id(triple, message):
    params = init_params("distmult", 6, 2, 4, seed=20)
    soft = LabeledBatch(np.array([[1, 1, 2], triple]), np.array([0.5, 0.5]))
    labeled = LabeledBatch(np.array([[0, 0, 1]]), np.array([1.0]))
    batch = neg_batch(np.array([[0, 0, 1]]), np.array([[TAIL]]), np.array([[4]]))
    for b in (labeled, batch):
        with pytest.raises(ValueError, match=message):
            grad(params, b, LossSpec("bce"), soft=soft)


@pytest.mark.parametrize("model", MODEL_KINDS)
def test_chunks_size_a_positive_by_what_it_gathers(model):
    # a positive gathers n rows of each entity table and one of each relation table
    params = init_params(model, 5, 3, 64, seed=0)
    widest = max(t[0].size for t in params.tables.values())
    for n in (1, 64, 14541):  # [n, 1] triples, a NegBatch, a [B, E] candidate sweep
        step = models._chunks(params, 100_000, n)[0].stop
        if model == "transr" and n == 64:
            # 64 entity rows of 64 take as much as one 64 x 64 projection
            assert step == models._GRAD_CHUNK_ELEMS // (64 * 64)
        else:  # as when the widest row of any table was counted n times
            assert step == max(1, models._GRAD_CHUNK_ELEMS // (n * widest)), n


# --- 1-vs-all: [B, n_entities] labels ---------------------------------------


def one_vs_all_params(model, p):
    """40 entities; the RGCN decoder is DistMult over float64 rows (``gnn._decoder``)."""
    if model == "rgcn-decoder":
        rng = np.random.default_rng(51)
        rel = rng.normal(0.0, 0.5, (4, 5)).astype(np.float32)
        return gnn._decoder(rng.normal(0.0, 0.5, (40, 5)), rel)
    return grad_params(model, p, n_entities=40)


def every_tail(positives, n_entities):
    """Each positive with every entity as its tail: the explicit form of [B, n_entities] labels."""
    triples = np.repeat(positives, n_entities, axis=0)
    triples[:, 2] = np.tile(np.arange(n_entities), len(positives))
    return triples


def random_triples(rng, n, n_entities, n_relations=4):
    heads, rels = rng.integers(0, n_entities, n), rng.integers(0, n_relations, n)
    return np.stack([heads, rels, rng.integers(0, n_entities, n)], axis=1)


def entity_width(params):
    return max(t[0].size for name, t in params.tables.items() if name in models._ENTITY_TABLES)


@pytest.mark.parametrize("cut", [False, True], ids=["whole-rows", "cut-rows"])
@pytest.mark.parametrize("with_soft", [False, True], ids=["no-soft", "soft"])
@pytest.mark.parametrize("smoothing", [0.0, 0.1])
@pytest.mark.parametrize("model,p", GRAD_MODELS + [("rgcn-decoder", 1)])
def test_one_vs_all_labels_match_their_explicit_triples(
    monkeypatch, model, p, smoothing, with_soft, cut
):
    """[B, E] labels train as the B·E triples they label: the same loss bit for bit and the
    same ids; the rows differ by summation order, since an anchor's rows are summed per chunk."""
    params = one_vs_all_params(model, p)
    n_e = params.n_entities
    rng = np.random.default_rng(52)
    positives = random_triples(rng, 6, n_e)
    positives[3] = positives[0]  # a repeated query
    labels = (rng.random((6, n_e)) < 0.2).astype(float)
    labels[:, :3] = rng.random((6, 3))  # soft values too
    soft = None
    if with_soft:  # shares a query's head and relation, and one of its swept triples
        soft_triples = random_triples(rng, 5, n_e)
        soft_triples[0] = positives[2]
        soft = LabeledBatch(soft_triples, rng.random(5))
    if cut:  # 7 candidates per chunk: each row of 40 is cut, its last piece short
        monkeypatch.setattr(models, "_GRAD_CHUNK_ELEMS", 7 * entity_width(params))
    spec = LossSpec("bce", label_smoothing=smoothing)
    loss, grads = grad(params, LabeledBatch(positives, labels), spec, soft=soft)
    explicit = LabeledBatch(every_tail(positives, n_e), labels.ravel())
    ref_loss, ref = grad(params, explicit, spec, soft=soft)
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert_grads_match(grads, ref)


def test_a_row_is_cut_along_its_candidates_unless_its_coefficients_read_it_whole(monkeypatch):
    """Labeled and score-only sweeps are cut; a negative batch never is (margin and the
    self-adversarial softmax read the whole row), even when its row exceeds the chunk."""
    params = init_params("distmult", 40, 4, 5, seed=56)
    monkeypatch.setattr(models, "_GRAD_CHUNK_ELEMS", 7 * 5)
    shapes = []
    plain = models._FORMULA["distmult"]

    def recorded(params, x):
        shapes.append(x.replaced.shape)
        return plain(params, x)

    monkeypatch.setitem(models._FORMULA, "distmult", recorded)
    positives = np.array([[0, 0, 1], [2, 1, 3]])
    cut_rows = 2 * ([(1, 7)] * 5 + [(1, 5)])
    grad(params, LabeledBatch(positives, np.zeros((2, 40))), LossSpec("bce"))
    assert shapes == cut_rows
    shapes.clear()
    score_candidates(params, positives, HEAD)
    assert shapes == cut_rows
    batch = random_batch(params, np.random.default_rng(57), b=2, n=9)  # rows of 1 + 9 > 7
    for loss in NEG_LOSSES:
        shapes.clear()
        grad(params, batch, LossSpec(loss))
        assert shapes == [(1, 10), (1, 10)], loss


@pytest.mark.parametrize("model", ["distmult", "complex", "transr"])
def test_one_vs_all_step_peaks_below_its_explicit_form(model):
    """A step at E 3,000, B 128, d 32, labels built then ``grad``: at most 0.8 of the
    peak of the same step over B·E explicit triples."""
    n_e, b = 3000, 128
    params = init_params(model, n_e, 4, 32, seed=53)
    rng = np.random.default_rng(54)
    positives = random_triples(rng, b, n_e)
    known = rng.integers(0, n_e, (b, 3))  # the known tails of each query
    spec = LossSpec("bce")

    def one_vs_all():
        labels = np.zeros((b, n_e))
        labels[np.arange(b)[:, None], known] = 1.0
        return grad(params, LabeledBatch(positives, labels), spec)

    def explicit():
        labels = np.zeros(b * n_e)
        labels[(np.arange(b)[:, None] * n_e + known).ravel()] = 1.0
        return grad(params, LabeledBatch(every_tail(positives, n_e), labels), spec)

    def peak(step):
        tracemalloc.start()
        try:
            step()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_vs_all()  # numpy's one-time allocations
    small, large = peak(one_vs_all), peak(explicit)
    assert small <= 0.8 * large, (small, large)


@pytest.mark.parametrize("model", ["distmult", "complex", "transr", "transe"])
def test_one_vs_all_loss_keeps_no_per_entity_temporaries(monkeypatch, model):
    """bce on [16, E] labels, E 2,000 then 8,000, rows cut mid-row: the step's peak grows by
    fewer than 4 float64 [B] columns per extra entity (its loss terms take one, the gradient
    rows of every entity about one), and the loss is the whole sweep's bce bit for bit."""
    monkeypatch.setattr(models, "_GRAD_CHUNK_ELEMS", 4096)
    b, spec = 16, LossSpec("bce")
    rng = np.random.default_rng(57)

    def peak(n_e):
        params = init_params(model, n_e, 4, 8, seed=58)
        positives = random_triples(rng, b, n_e)
        labels = (rng.random((b, n_e)) < 0.01).astype(float)
        tracemalloc.start()
        try:
            loss, _ = grad(params, LabeledBatch(positives, labels), spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ref = bce_loss(score_candidates(params, positives, TAIL).ravel(), labels.ravel())
        assert np.float64(loss).tobytes() == np.float64(ref).tobytes()
        return peak

    peak(2000)  # numpy's one-time allocations
    small, large = peak(2000), peak(8000)
    columns = (large - small) / (8000 - 2000) / (b * 8)
    assert columns < 4, (small, large, columns)


@pytest.mark.parametrize("which", ["batch", "soft"])
def test_grad_rejects_labels_one_column_wider_than_the_entities(which):
    params = init_params("distmult", 6, 2, 4, seed=55)
    wide = LabeledBatch(np.array([[0, 0, 1], [2, 1, 3]]), np.zeros((2, 7)))
    whole = LabeledBatch(np.array([[1, 1, 2]]), np.ones(1))
    batch, soft = (wide, whole) if which == "batch" else (whole, wide)
    with pytest.raises(ValueError, match=f"the {which} batch needs one label per triple") as err:
        grad(params, batch, LossSpec("bce"), soft=soft)
    assert "labels of shape (2, 7) for triples of shape (2, 3)" in str(err.value)


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
