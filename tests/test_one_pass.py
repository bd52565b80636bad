"""One-pass ``models.grad`` against the two-pass reference in ``two_pass_grad``.

Each chunk of queries is scored and differentiated by one formula call,
its loss coefficients taken from its own scores. The loss and every
coefficient must equal the two-pass ones bit for bit, the touched ids
must be the same, and the gradient rows may differ only by summation
order.
"""


import numpy as np
import pytest

from kgembed import gnn, models
from kgembed.losses import LossSpec, sigmoid
from kgembed.models import MODEL_KINDS, grad, init_params
from kgembed.sampling import HEAD, LabeledBatch, NegBatch

from two_pass_grad import two_pass_grad

N_ENTITIES, N_RELATIONS, B, N = 40, 6, 7, 4

# every model kind, TransE under both norms, and the RGCN decoder (DistMult on float64 rows)
MODELS = (
    [("transe", 1), ("transe", 2)]
    + [(m, 1) for m in MODEL_KINDS if m != "transe"]
    + [("rgcn-decoder", 1)]
)
CASES = ("margin", "self_adversarial", "bce-smoothing", "soft-negatives", "soft-labeled")


def make_params(model, p):
    rng = np.random.default_rng(41)
    if model == "rgcn-decoder":
        reps = rng.normal(0.0, 0.5, (N_ENTITIES, 5))
        return gnn._decoder(reps, rng.normal(0.0, 0.5, (N_RELATIONS, 5)).astype(np.float32))
    params = init_params(model, N_ENTITIES, N_RELATIONS, 5, seed=42)
    params.transe_p = p
    if model == "transr":
        params.tables["proj"] += rng.normal(0, 0.3, params.tables["proj"].shape).astype(np.float32)
    return params


def random_triples(rng, n):
    return np.stack(
        [rng.integers(0, N_ENTITIES, n), rng.integers(0, N_RELATIONS, n), rng.integers(0, N_ENTITIES, n)],
        axis=1,
    )


def negatives(rng):
    pos = random_triples(rng, B)
    pos[4] = pos[1]  # a repeated positive
    slot = rng.integers(0, 2, (B, N)).astype(np.uint8)
    repl = rng.integers(0, N_ENTITIES, (B, N))
    repl[0, 0], slot[0, 0] = pos[0, 2], HEAD  # the replacement is the anchor: (t, r, t)
    return NegBatch(pos, repl, slot, np.zeros((B, N), dtype=bool))


def soft_batch(params, rng, n=9):
    """Soft labels, two of them the triples' own truths: a zero coefficient each."""
    triples = random_triples(rng, n)
    labels = rng.random(n)
    labels[[2, 6]] = sigmoid(models.score(params, triples[[2, 6]]))
    return LabeledBatch(triples, labels)


def make_case(params, case, rng):
    """``(batch, spec, soft)`` for one case."""
    if case == "soft-labeled":
        batch = LabeledBatch(random_triples(rng, 11), (rng.random(11) < 0.5).astype(float))
        return batch, LossSpec("bce"), soft_batch(params, rng)
    batch = negatives(rng)
    if case == "soft-negatives":
        return batch, LossSpec("bce"), soft_batch(params, rng)
    if case == "bce-smoothing":
        return batch, LossSpec("bce", label_smoothing=0.1), None
    if case == "self_adversarial":
        return batch, LossSpec("self_adversarial", margin=2.0, adv_temperature=0.5), None
    # margin: about half the pairs satisfy it, so about half the coefficients are zero
    pos = models.score(params, batch.positives)
    neg = models.score(params, batch.negatives.reshape(-1, 3)).reshape(B, N)
    return batch, LossSpec("margin", margin=max(0.0, float(np.median(pos[:, None] - neg)))), None


def record_loss_grads(monkeypatch):
    """Every result of the ``*_loss_grads`` functions ``models`` calls, in call order."""
    calls = []
    for name in ("margin_loss_grads", "self_adversarial_loss_grads", "bce_loss_grads"):
        plain = getattr(models, name)

        def recorded(*args, plain=plain, **kwargs):
            out = plain(*args, **kwargs)
            calls.append(out)
            return out

        monkeypatch.setattr(models, name, recorded)
    return calls


def one_pass_coefficients(calls, batch, soft):
    """The recorded chunk coefficients, joined into the reference's arrays."""
    coefficients = {}
    if isinstance(batch, LabeledBatch):
        flat = np.concatenate(calls)
        coefficients["batch"], rest = flat[: len(batch.triples)], flat[len(batch.triples) :]
    elif isinstance(calls[0], tuple):  # margin, self_adversarial
        coefficients["pos"] = np.concatenate([c[0] for c in calls])
        coefficients["neg"] = np.concatenate([c[1] for c in calls])
        rest = np.zeros(0)
    else:  # bce: [chunk, 1 + N] per chunk, then the soft group's [chunk]
        joined = np.concatenate([c for c in calls if c.ndim == 2])
        coefficients["pos"], coefficients["neg"] = joined[:, 0], joined[:, 1:]
        rest = np.concatenate([np.zeros(0)] + [c for c in calls if c.ndim == 1])
    if soft is not None:
        coefficients["soft"] = rest
    return coefficients


def chunk_three_positives(monkeypatch, params):
    """Make ``grad`` run a negative batch 3 positives at a time (``models._chunks``)."""
    ent = max(t[0].size for name, t in params.tables.items() if name in models._ENTITY_TABLES)
    rel = max(t[0].size for name, t in params.tables.items() if name not in models._ENTITY_TABLES)
    monkeypatch.setattr(models, "_GRAD_CHUNK_ELEMS", 3 * max((N + 1) * ent, rel))


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("model,p", MODELS)
def test_one_pass_grad_matches_two_pass(monkeypatch, model, p, case):
    params = make_params(model, p)
    batch, spec, soft = make_case(params, case, np.random.default_rng(43))
    chunk_three_positives(monkeypatch, params)
    ref_loss, ref_coefficients, ref_grads = two_pass_grad(params, batch, spec, soft)
    calls = record_loss_grads(monkeypatch)
    loss, grads = grad(params, batch, spec, soft)

    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    coefficients = one_pass_coefficients(calls, batch, soft)
    assert coefficients.keys() == ref_coefficients.keys()
    for key, ref in ref_coefficients.items():
        assert coefficients[key].shape == ref.shape, key
        assert coefficients[key].tobytes() == ref.tobytes(), key
    if case == "margin":
        assert (ref_coefficients["neg"] == 0).any() and (ref_coefficients["neg"] != 0).any()
    if soft is not None:
        assert (ref_coefficients["soft"] == 0).any()
    assert grads.keys() == ref_grads.keys()
    for table, (ref_ids, ref_rows) in ref_grads.items():
        ids, rows = grads[table]
        assert np.array_equal(ids, ref_ids), table
        assert np.allclose(rows, ref_rows, rtol=1e-12, atol=1e-15), table


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("model", MODEL_KINDS)
def test_each_formula_runs_once_per_chunk(monkeypatch, model, case):
    params = make_params(model, 1)
    batch, spec, soft = make_case(params, case, np.random.default_rng(44))
    chunk_three_positives(monkeypatch, params)
    calls = []
    plain = models._FORMULA[model]

    def counted(params, x):
        calls.append(x)
        return plain(params, x)

    monkeypatch.setitem(models._FORMULA, model, counted)
    grad(params, batch, spec, soft)
    if isinstance(batch, LabeledBatch):
        expected = len(models._chunks(params, len(batch.triples), 1))
    else:
        expected = len(models._chunks(params, B, N + 1))
    if soft is not None:
        expected += len(models._chunks(params, len(soft.triples), 1))
    assert len(calls) == expected >= 2


@pytest.mark.parametrize("loss", ("margin", "self_adversarial", "bce"))
@pytest.mark.parametrize("bad", [2, 7])
def test_grad_rejects_a_slot_other_than_head_or_tail(loss, bad):
    params = init_params("transe", 6, 2, 4, seed=45)
    slot = np.array([[0, 1], [bad, 0]], dtype=np.uint8)
    nb = NegBatch(np.array([[0, 0, 1], [2, 1, 3]]), np.array([[1, 2], [3, 4]]), slot, slot == 9)
    with pytest.raises(ValueError, match=rf"negative slot must be HEAD \(0\) or TAIL \(1\), got {bad}"):
        grad(params, nb, LossSpec(loss))


@pytest.mark.parametrize("loss", ("margin", "self_adversarial", "bce"))
def test_grad_rejects_an_empty_negative_batch(loss):
    params = init_params("transe", 6, 2, 4, seed=46)
    nb = NegBatch(
        np.zeros((0, 3), dtype=np.int64),
        np.zeros((0, 2), dtype=np.int64),
        np.zeros((0, 2), dtype=np.uint8),
        np.zeros((0, 2), dtype=bool),
    )
    with pytest.raises(ValueError, match="a negative batch needs at least one positive, got 0"):
        grad(params, nb, LossSpec(loss))


def test_grad_rejects_an_empty_labeled_batch():
    """An empty batch is named before the loss averages over no scores; an empty soft batch is skipped."""
    params = init_params("distmult", 6, 2, 4, seed=47)
    loss_spec = LossSpec("bce", label_smoothing=0.1)
    empty = LabeledBatch(np.zeros((0, 3), dtype=np.int64), np.zeros(0))
    one = LabeledBatch(np.array([[0, 0, 1]]), np.ones(1))
    for soft in (None, one):
        with pytest.raises(ValueError, match="a labeled batch needs at least one triple, got 0"):
            grad(params, empty, loss_spec, soft=soft)
    loss, grads = grad(params, one, loss_spec, soft=empty)
    ref_loss, ref_grads = grad(params, one, loss_spec)
    assert loss == ref_loss
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        assert np.array_equal(grads[name][0], ref_grads[name][0])
        assert np.array_equal(grads[name][1], ref_grads[name][1])
