from collections import defaultdict

import numpy as np
import pytest

from kgembed import models, rules
from kgembed.data import Groundings
from kgembed.losses import LossSpec, bce_loss, bce_loss_grads, sigmoid
from kgembed.models import grad, init_params, score
from kgembed.rules import (
    SoftLabelSet,
    StaleSoftLabelsError,
    predict_soft_labels,
    ruge_grad,
    ruge_loss,
    triple_truth,
    unlabeled_conclusions,
)
from kgembed.sampling import LabeledBatch, NegBatch

from fd_utils import flat_score_grad


@pytest.fixture
def cparams():
    return init_params("complex", 10, 4, 5, seed=0)


def g(conclusion, bodies, conf=1.0, in_train=False):
    return conclusion, bodies, conf, in_train


def grounding_table(params, rows):
    """A :class:`Groundings` table over ``params``' ids, one row per ``g``, in order."""
    return Groundings(
        conclusions=np.array([c for c, _, _, _ in rows], dtype=np.int64).reshape(-1, 3),
        bodies=np.array(
            [list(b) + [(-1, -1, -1)] * (2 - len(b)) for _, b, _, _ in rows], dtype=np.int64
        ).reshape(-1, 2, 3),
        confidence=np.array([conf for _, _, conf, _ in rows], dtype=np.float64),
        in_train=np.array([flag for _, _, _, flag in rows], dtype=bool),
        n_entities=params.n_entities,
        n_relations=params.n_relations,
    )


def test_truth_is_half_at_zero_score(cparams):
    zero = cparams.copy()
    zero.tables["ent"][:] = 0
    assert triple_truth(zero, np.array([[0, 0, 1]]))[0] == pytest.approx(0.5)


def test_truth_monotone_in_score(cparams):
    cparams = cparams.copy()
    cparams.tables["ent"] *= 0.3  # keep scores clear of sigmoid saturation
    rng = np.random.default_rng(1)
    tr = np.stack([rng.integers(0, 10, 40), rng.integers(0, 4, 40), rng.integers(0, 10, 40)], 1)
    s = score(cparams, tr)
    p = triple_truth(cparams, tr)
    order = np.argsort(s)
    s_sorted, p_sorted = s[order], p[order]
    separated = np.diff(s_sorted) > 1e-9
    assert (np.diff(p_sorted)[separated] > 0).all()
    assert ((p > 0) & (p < 1)).all()


def test_truth_matches_sigmoid_of_score(cparams):
    rng = np.random.default_rng(2)
    tr = np.stack([rng.integers(0, 10, 25), rng.integers(0, 4, 25), rng.integers(0, 10, 25)], 1)
    assert np.array_equal(triple_truth(cparams, tr), sigmoid(score(cparams, tr)))


def test_truth_requires_complex():
    params = init_params("distmult", 5, 2, 3, seed=0)
    with pytest.raises(ValueError, match="complex"):
        triple_truth(params, np.array([[0, 0, 1]]))


def test_pool_excludes_train_conclusions(cparams):
    gs = grounding_table(
        cparams,
        [
            g((0, 1, 2), [(0, 0, 2)], in_train=True),
            g((3, 1, 4), [(3, 0, 4)]),
            g((3, 1, 4), [(3, 2, 4)]),  # duplicate conclusion
        ],
    )
    pool = unlabeled_conclusions(gs)
    assert pool.tolist() == [[3, 1, 4]]


def test_soft_labels_equal_truth_at_zero_weight(cparams):
    gs = grounding_table(cparams, [g((0, 1, 2), [(0, 0, 2)], conf=0.9)])
    soft = predict_soft_labels(cparams, gs, rule_weight=0.0)
    assert np.array_equal(soft.labels, triple_truth(cparams, soft.triples))


def test_soft_label_arithmetic():
    # pi(u) = 0.3, one grounding with lambda = 1 and body truth 1 (forced), C = 0.5 -> 0.8
    class Fixed:
        model = "complex"
        version = 0

    # craft params where we control truths via direct patching of triple_truth inputs:
    # easier: use a real model and compute expected from its own truths
    params = init_params("complex", 6, 2, 4, seed=3)
    gs = grounding_table(params, [g((0, 1, 2), [(0, 0, 2)], conf=0.7)])
    c = 0.5
    soft = predict_soft_labels(params, gs, rule_weight=c)
    pi_u = triple_truth(params, np.array([[0, 1, 2]]))[0]
    pi_body = triple_truth(params, np.array([[0, 0, 2]]))[0]
    assert soft.labels[0] == pytest.approx(min(1.0, pi_u + c * 0.7 * pi_body))


def test_soft_label_chain_body_uses_product():
    params = init_params("complex", 6, 3, 4, seed=4)
    gs = grounding_table(params, [g((0, 2, 3), [(0, 0, 1), (1, 1, 3)], conf=1.0)])
    soft = predict_soft_labels(params, gs, rule_weight=1.0)
    pi_u = triple_truth(params, np.array([[0, 2, 3]]))[0]
    b = triple_truth(params, np.array([[0, 0, 1], [1, 1, 3]]))
    assert soft.labels[0] == pytest.approx(np.clip(pi_u + b[0] * b[1], 0, 1))


def test_soft_label_clipped_to_one():
    params = init_params("complex", 6, 2, 4, seed=5)
    gs = grounding_table(params, [g((0, 1, 2), [(0, 0, 2)], conf=1.0)])
    soft = predict_soft_labels(params, gs, rule_weight=1000.0)
    assert soft.labels[0] == 1.0


def loop_soft_labels(params, groundings, rule_weight, pool):
    """Soft labels by a dict over the pool and one ``np.prod`` per grounding,
    walking the table's rows one at a time."""
    labels = triple_truth(params, pool)
    index = {tuple(t): i for i, t in enumerate(pool.tolist())}
    by_conclusion = defaultdict(list)
    rows = zip(
        groundings.conclusions.tolist(), groundings.bodies.tolist(), groundings.confidence.tolist()
    )
    for conclusion, body, lam in rows:
        i = index.get(tuple(conclusion))
        if i is not None:
            by_conclusion[i].append(([tuple(a) for a in body if a[0] >= 0], lam))
    if by_conclusion and rule_weight != 0.0:
        push = np.zeros(len(pool))
        body_triples, body_slices, conf, owner = [], [], [], []
        for i, gs in by_conclusion.items():
            for atoms, lam in gs:
                start = len(body_triples)
                body_triples.extend(atoms)
                body_slices.append((start, len(body_triples)))
                conf.append(lam)
                owner.append(i)
        truths = triple_truth(params, np.array(body_triples, dtype=np.int64))
        for (start, end), lam, i in zip(body_slices, conf, owner):
            push[i] += lam * float(np.prod(truths[start:end]))
        labels = labels + rule_weight * push
    return np.clip(labels, 0.0, 1.0)


@pytest.mark.parametrize("weight", [0.0, 0.02, 0.1, 3.0])
def test_soft_labels_equal_the_grounding_loop_bitwise(weight):
    """1- and 2-atom bodies, 3 to 13 groundings per conclusion, interleaved in the list."""
    params = init_params("complex", 12, 4, 6, seed=8)
    params.tables["ent"] *= 0.2  # truths in 0.2-0.7; at weight 3 every label clips
    rng = np.random.default_rng(9)
    conclusions = [(int(h), 3, int(t)) for h, t in rng.integers(0, 12, (6, 2))]
    gs = []
    for _ in range(40):
        h, _, t = conclusions[rng.integers(len(conclusions))]
        y = int(rng.integers(12))
        bodies = [(h, 0, t)] if rng.random() < 0.4 else [(h, 1, y), (y, 2, t)]
        gs.append(g((h, 3, t), bodies, conf=float(rng.uniform(0.1, 1.0))))
    gs = grounding_table(params, gs)
    unlabeled = unlabeled_conclusions(gs)
    # a subset in another order, with one conclusion no grounding reaches and
    # one listed twice (the push goes to its last row)
    pool = np.concatenate([unlabeled[::-2], [[11, 0, 11]], unlabeled[-1:]])
    for p in (unlabeled, pool):
        got = predict_soft_labels(params, gs, weight, pool=p)
        assert got.labels.tobytes() == loop_soft_labels(params, gs, weight, p).tobytes()
    assert predict_soft_labels(params, gs, weight).labels.tobytes() == (
        loop_soft_labels(params, gs, weight, unlabeled).tobytes()
    )


def test_soft_labels_monotone_in_weight():
    params = init_params("complex", 8, 3, 4, seed=6)
    gs = grounding_table(
        params,
        [
            g((0, 1, 2), [(0, 0, 2)], conf=0.8),
            g((3, 2, 4), [(3, 0, 4)], conf=0.5),
            g((3, 2, 4), [(3, 1, 4)], conf=0.9),
        ],
    )
    prev = None
    for c in (0.0, 0.25, 0.5, 1.0, 4.0):
        labels = predict_soft_labels(params, gs, rule_weight=c).labels
        if prev is not None:
            assert (labels >= prev - 1e-12).all()
        prev = labels
    assert ((labels >= 0) & (labels <= 1)).all()


def test_negative_weight_rejected(cparams):
    with pytest.raises(ValueError):
        predict_soft_labels(cparams, [], rule_weight=-0.1)


def test_nan_weight_rejected(cparams):
    """A NaN weight would make every label NaN."""
    gs = grounding_table(cparams, [g((0, 1, 2), [(0, 0, 2)], conf=0.9)])
    with pytest.raises(ValueError, match="rule weight must be >= 0, got nan"):
        predict_soft_labels(cparams, gs, rule_weight=float("nan"))


def test_ruge_loss_empty_soft_equals_plain_bce(cparams):
    labeled = LabeledBatch(np.array([[0, 0, 1], [2, 1, 3]]), np.array([1.0, 0.0]))
    soft = SoftLabelSet(
        triples=np.zeros((0, 3), dtype=np.int64),
        labels=np.zeros(0),
        rule_weight=0.5,
        params_version=cparams.version,
    )
    expected = bce_loss(score(cparams, labeled.triples), labeled.labels)
    assert ruge_loss(cparams, labeled, soft) == expected


def test_soft_label_one_acts_like_positive(cparams):
    triple = np.array([[4, 2, 5]])
    soft = SoftLabelSet(
        triples=triple, labels=np.array([1.0]), rule_weight=0.5, params_version=cparams.version
    )
    labeled_pos = LabeledBatch(triple, np.array([1.0]))
    empty = SoftLabelSet(
        triples=np.zeros((0, 3), dtype=np.int64),
        labels=np.zeros(0),
        rule_weight=0.5,
        params_version=cparams.version,
    )
    dummy = LabeledBatch(np.array([[0, 0, 1]]), np.array([1.0]))
    a = ruge_loss(cparams, dummy, soft)
    b = ruge_loss(cparams, dummy, empty) + ruge_loss(cparams, labeled_pos, empty)
    assert a == pytest.approx(b, abs=1e-12)


def test_ruge_two_term_oracle(cparams):
    rng = np.random.default_rng(7)
    labeled = LabeledBatch(
        np.stack([rng.integers(0, 10, 12), rng.integers(0, 4, 12), rng.integers(0, 10, 12)], 1),
        (rng.random(12) < 0.5).astype(float),
    )
    gs = grounding_table(
        cparams, [g((0, 1, 2), [(0, 0, 2)], conf=0.9), g((3, 2, 4), [(3, 0, 4)], conf=0.4)]
    )
    soft = predict_soft_labels(cparams, gs, rule_weight=0.5)
    got = ruge_loss(cparams, labeled, soft)
    expected = bce_loss(score(cparams, labeled.triples), labeled.labels) + bce_loss(
        score(cparams, soft.triples), soft.labels
    )
    assert abs(got - expected) < 1e-10


def test_stale_soft_labels_rejected(cparams):
    labeled = LabeledBatch(np.array([[0, 0, 1]]), np.array([1.0]))
    soft = SoftLabelSet(
        triples=np.zeros((0, 3), dtype=np.int64),
        labels=np.zeros(0),
        rule_weight=0.5,
        params_version=cparams.version + 1,
    )
    with pytest.raises(StaleSoftLabelsError):
        ruge_loss(cparams, labeled, soft)
    with pytest.raises(StaleSoftLabelsError):
        ruge_grad(cparams, labeled, soft)


def test_ruge_grad_zero_weight_matches_labeled_only(cparams):
    # with C = 0, soft labels equal current truths: their gradient share is exactly zero
    from kgembed.models import grad
    from kgembed.losses import LossSpec

    labeled = LabeledBatch(
        np.array([[0, 0, 1], [2, 1, 3], [4, 3, 5]]), np.array([1.0, 0.0, 1.0])
    )
    gs = grounding_table(cparams, [g((6, 2, 7), [(6, 0, 7)], conf=0.8)])
    soft = predict_soft_labels(cparams, gs, rule_weight=0.0)
    loss_rule, grads_rule = ruge_grad(cparams, labeled, soft)
    _, grads_plain = grad(cparams, labeled, LossSpec("bce"))
    assert set(grads_rule) == set(grads_plain)
    for table in grads_plain:
        ids_a, rows_a = grads_plain[table]
        ids_b, rows_b = grads_rule[table]
        assert np.array_equal(ids_a, ids_b)
        assert rows_a.tobytes() == rows_b.tobytes()


def neg_batch(rng, n_e, n_r, b, n):
    pos = np.stack([rng.integers(0, n_e, b), rng.integers(0, n_r, b), rng.integers(0, n_e, b)], 1)
    slot = (rng.random((b, n)) < 0.5).astype(np.uint8)
    repl = rng.integers(0, n_e, (b, n))
    return NegBatch(pos, repl, slot, np.zeros((b, n), dtype=bool))


def shared_row_groundings(params, batch):
    """Groundings whose conclusions reuse the batch's entities and relations."""
    gs = []
    for (h, r, t), negs in zip(batch.positives.tolist(), batch.negatives.tolist()):
        gs.append(g((h, (r + 1) % 4, t), [(h, r, t)], conf=0.9))
        gs.append(g((negs[0][0], r, negs[0][2]), [(h, r, t)], conf=0.6))
    return grounding_table(params, gs)


def test_ruge_grad_on_a_neg_batch_is_flat_bce_plus_soft_bce(cparams):
    batch = neg_batch(np.random.default_rng(11), 10, 4, 7, 5)
    soft = predict_soft_labels(cparams, shared_row_groundings(cparams, batch), rule_weight=0.5)
    b, n = batch.negatives.shape[:2]
    flat = np.concatenate([batch.positives, batch.negatives.reshape(-1, 3)])
    labels = np.concatenate([np.ones(b), np.zeros(b * n)])
    flat_scores, soft_scores = score(cparams, flat), score(cparams, soft.triples)

    loss, grads = ruge_grad(cparams, batch, soft)
    assert loss == bce_loss(flat_scores, labels) + bce_loss(soft_scores, soft.labels)
    assert ruge_loss(cparams, batch, soft) == loss

    coeff = np.concatenate(
        [bce_loss_grads(flat_scores, labels), bce_loss_grads(soft_scores, soft.labels)]
    )
    expected = flat_score_grad(cparams, np.concatenate([flat, soft.triples]), coeff)
    assert set(grads) == set(expected)
    for table, (ids, rows) in expected.items():
        assert np.array_equal(grads[table][0], ids), table
        assert np.allclose(grads[table][1], rows, rtol=1e-12, atol=1e-15), table


def test_a_ruge_step_is_one_grad_call_with_one_accumulator(monkeypatch, cparams):
    calls = {"grad": 0, "accumulators": 0}
    plain_grad = rules.grad

    def counted_grad(*args, **kwargs):
        calls["grad"] += 1
        return plain_grad(*args, **kwargs)

    class CountedAccumulator(models.GradAccumulator):
        def __init__(self, *args):
            calls["accumulators"] += 1
            super().__init__(*args)

    monkeypatch.setattr(rules, "grad", counted_grad)
    monkeypatch.setattr(models, "GradAccumulator", CountedAccumulator)
    batch = neg_batch(np.random.default_rng(13), 10, 4, 7, 5)
    soft = predict_soft_labels(cparams, shared_row_groundings(cparams, batch), rule_weight=0.5)
    assert len(soft.triples)
    ruge_grad(cparams, batch, soft)
    assert calls == {"grad": 1, "accumulators": 1}


def test_ruge_grad_on_a_neg_batch_at_zero_weight_is_plain_grad(cparams):
    batch = neg_batch(np.random.default_rng(12), 10, 4, 7, 5)
    soft = predict_soft_labels(cparams, shared_row_groundings(cparams, batch), rule_weight=0.0)
    loss_rule, grads_rule = ruge_grad(cparams, batch, soft)
    loss_plain, grads_plain = grad(cparams, batch, LossSpec("bce"))
    assert loss_rule == loss_plain + bce_loss(score(cparams, soft.triples), soft.labels)
    assert list(grads_rule) == list(grads_plain)
    for table, (ids, rows) in grads_plain.items():
        assert grads_rule[table][0].tobytes() == ids.tobytes(), table
        assert grads_rule[table][1].tobytes() == rows.tobytes(), table
