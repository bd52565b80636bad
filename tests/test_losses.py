import math
import re

import mpmath
import numpy as np
import pytest

from kgembed.losses import (
    LossSpec,
    adversarial_weights,
    bce_loss,
    bce_loss_grads,
    margin_loss,
    margin_loss_grads,
    self_adversarial_loss,
    self_adversarial_loss_grads,
)


# --- margin ----------------------------------------------------------------


def test_margin_zero_at_gap():
    assert margin_loss(np.array([2.0]), np.array([[1.0]]), margin=1.0) == 0.0


def test_margin_equal_scores():
    assert margin_loss(np.array([0.5]), np.array([[0.5]]), margin=1.0) == pytest.approx(1.0)


def test_margin_matches_scalar_loop():
    rng = np.random.default_rng(0)
    pos = rng.normal(size=16)
    neg = rng.normal(size=(16, 5))
    got = margin_loss(pos, neg, margin=0.7)
    total = 0.0
    for i in range(16):
        for j in range(5):
            total += max(0.0, 0.7 - pos[i] + neg[i, j])
    assert abs(got - total / 80) < 1e-12


def test_margin_negative_gamma_errors():
    with pytest.raises(ValueError):
        margin_loss(np.array([1.0]), np.array([[0.0]]), margin=-0.1)


def test_margin_loss_rejects_a_nan_margin():
    with pytest.raises(ValueError, match="margin must be >= 0, got nan"):
        margin_loss(np.array([1.0]), np.array([[0.0]]), margin=math.nan)


# --- self-adversarial ------------------------------------------------------


def test_adv_singleton_weight_is_one():
    w = adversarial_weights(np.array([[3.7]]), temperature=9.0)
    assert w[0, 0] == 1.0


def test_adv_equal_scores_uniform_weights():
    w = adversarial_weights(np.full((2, 4), 1.3), temperature=2.0)
    assert np.allclose(w, 0.25)


def test_adv_weights_simplex():
    rng = np.random.default_rng(1)
    w = adversarial_weights(rng.normal(size=(8, 6)), temperature=0.5)
    assert np.allclose(w.sum(axis=1), 1.0)
    assert ((w > 0) & (w < 1)).all()


def test_adv_matches_scalar_loop():
    rng = np.random.default_rng(2)
    pos = rng.normal(size=12)
    neg = rng.normal(size=(12, 4))
    gamma, alpha = 1.5, 0.8
    got = self_adversarial_loss(pos, neg, gamma, alpha)
    total = 0.0
    for i in range(12):
        ws = np.exp(alpha * neg[i])
        ws = ws / ws.sum()
        term = -math.log(1 / (1 + math.exp(-(gamma + pos[i]))))
        for j in range(4):
            term -= ws[j] * math.log(1 / (1 + math.exp(gamma + neg[i, j])))
        total += term
    assert abs(got - total / 12) < 1e-10


def test_adv_bad_temperature():
    with pytest.raises(ValueError):
        self_adversarial_loss(np.array([0.0]), np.array([[0.0]]), 1.0, 0.0)


def test_adversarial_weights_reject_a_nan_temperature():
    with pytest.raises(ValueError, match="adv_temperature must be > 0, got nan"):
        adversarial_weights(np.array([[0.0, 1.0]]), math.nan)


def test_self_adversarial_grads_reject_a_nan_margin():
    with pytest.raises(ValueError, match="margin must be >= 0, got nan"):
        self_adversarial_loss_grads(np.array([0.0]), np.array([[0.0]]), math.nan, 1.0)


# --- bce -------------------------------------------------------------------


def test_bce_midpoint_is_log2():
    assert bce_loss(np.array([0.0]), np.array([0.5])) == pytest.approx(math.log(2), abs=1e-15)


def test_bce_saturates_to_zero():
    assert bce_loss(np.array([30.0]), np.array([1.0])) == pytest.approx(0.0, abs=1e-9)


def test_bce_matches_extended_precision_loop():
    rng = np.random.default_rng(3)
    scores = rng.normal(scale=4.0, size=64)
    labels = rng.random(64)
    got = bce_loss(scores, labels)
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for s, y in zip(scores, labels):
            sig = 1 / (1 + mpmath.e ** (-mpmath.mpf(s)))
            total += -(mpmath.mpf(y) * mpmath.log(sig) + (1 - mpmath.mpf(y)) * mpmath.log(1 - sig))
        expected = float(total / 64)
    assert abs(got - expected) < 1e-9


def test_bce_rejects_bad_labels():
    with pytest.raises(ValueError):
        bce_loss(np.array([0.0]), np.array([1.5]))
    with pytest.raises(ValueError):
        bce_loss(np.array([0.0]), np.array([-0.1]))


@pytest.mark.parametrize("bad", [math.nan, 1.5, -0.1])
def test_bce_rejects_a_nan_or_out_of_range_label_naming_it(bad):
    """A NaN label fails the [0, 1] check like a label outside it; the error names it."""
    with pytest.raises(ValueError, match=re.escape(f"bce labels must lie in [0, 1], got {bad}")):
        bce_loss(np.array([0.0, 0.0, 0.0]), np.array([0.5, bad, 1.0]))


def test_bce_label_smoothing_midpoint():
    # smoothing pulls hard labels toward 1/2: at s=0 the loss is log 2 regardless
    assert bce_loss(np.array([0.0]), np.array([1.0]), label_smoothing=0.2) == pytest.approx(
        math.log(2)
    )


# --- one pass: coefficients and loss terms --------------------------------


def chunked(grads, shape, *args, **kwargs):
    """``grads`` over rows 0-2 and 3-6 of [7, ...] scores, each writing its rows' terms."""
    terms = np.empty(shape)
    parts = [
        grads(*(a[sl] for a in args), **kwargs, out=terms[sl])
        for sl in (slice(0, 3), slice(3, 7))
    ]
    return parts, terms


@pytest.mark.parametrize("kind", ["margin", "self_adversarial", "bce"])
def test_chunk_coefficients_and_terms_are_the_whole_batch_bit_for_bit(kind):
    """Each chunk's coefficients are the whole batch's, and the mean of the terms is the loss."""
    rng = np.random.default_rng(3)
    pos, neg = rng.normal(0, 3, 7), rng.normal(0, 3, (7, 5))
    if kind == "margin":
        whole = margin_loss_grads(pos, neg, 1.5)
        parts, terms = chunked(margin_loss_grads, neg.shape, pos, neg, margin=1.5, normalizer=35)
        loss = margin_loss(pos, neg, 1.5)
    elif kind == "self_adversarial":
        whole = self_adversarial_loss_grads(pos, neg, 1.5, 0.7)
        parts, terms = chunked(
            self_adversarial_loss_grads, pos.shape, pos, neg, margin=1.5, temperature=0.7,
            normalizer=7,
        )
        loss = self_adversarial_loss(pos, neg, 1.5, 0.7)
    else:
        labels = rng.random((7, 5))
        whole = (bce_loss_grads(neg, labels, 0.1),)
        parts, terms = chunked(
            bce_loss_grads, neg.shape, neg, labels, label_smoothing=0.1, normalizer=35
        )
        parts = [(p,) for p in parts]
        loss = bce_loss(neg, labels, 0.1)
    for i, ref in enumerate(whole):
        assert np.concatenate([p[i] for p in parts]).tobytes() == ref.tobytes()
    assert np.float64(np.mean(terms)).tobytes() == np.float64(loss).tobytes()


@pytest.mark.parametrize("fn", [bce_loss, bce_loss_grads])
def test_bce_rejects_labels_of_another_shape(fn):
    shapes = r"labels of shape \(3,\) do not match scores of shape \(1,\)"
    with pytest.raises(ValueError, match=shapes):
        fn(np.zeros(1), [1.0, 0.0, 1.0])


@pytest.mark.parametrize(
    "fn, args",
    [
        (margin_loss, (1.0,)),
        (margin_loss_grads, (1.0,)),
        (self_adversarial_loss, (1.0, 1.0)),
        (self_adversarial_loss_grads, (1.0, 1.0)),
    ],
)
def test_negatives_that_do_not_pair_with_the_positives_are_rejected(fn, args):
    """One positive and four rows of negatives: the shapes disagree, and the error names both."""
    shapes = r"negative scores of shape \(4, 2\) do not pair with positives of shape \(1,\)"
    with pytest.raises(ValueError, match=shapes):
        fn(np.zeros(1), np.zeros((4, 2)), *args)


@pytest.mark.parametrize("fn", [self_adversarial_loss, self_adversarial_loss_grads])
def test_pinned_weights_of_another_shape_are_rejected(fn):
    shapes = r"weights of shape \(2, 3\) do not match negative scores of shape \(2, 1\)"
    with pytest.raises(ValueError, match=shapes):
        fn(np.zeros(2), np.zeros((2, 1)), 1.0, 1.0, weights=np.full((2, 3), 1 / 3))


@pytest.mark.parametrize(
    "fn, args, named",
    [
        (margin_loss, (np.zeros(0), np.zeros(0), 1.0), "margin.*negative scores of shape (0,)"),
        (margin_loss_grads, (np.zeros(2), np.zeros((2, 0)), 1.0), "margin.*shape (2, 0)"),
        (self_adversarial_loss, (np.zeros(0), np.zeros(0), 1.0, 1.0), "adversarial.*shape (0,)"),
        (self_adversarial_loss, (np.zeros(2), np.zeros((2, 0)), 1.0, 1.0), "shape (2, 0)"),
        (self_adversarial_loss_grads, (np.zeros(0), np.zeros((0, 3)), 1.0, 1.0), "shape (0, 3)"),
        (bce_loss, (np.zeros(0), np.zeros(0)), "bce.*scores of shape (0,)"),
        (bce_loss_grads, (np.zeros((4, 0)), np.zeros((4, 0))), "bce.*shape (4, 0)"),
    ],
    ids=["margin", "margin-no-negatives", "adv", "adv-no-negatives", "adv-no-positives", "bce",
         "bce-no-columns"],
)
def test_empty_scores_are_rejected_naming_their_shape(fn, args, named):
    """A mean over no terms is no loss: no ZeroDivisionError, nan or failure inside numpy."""
    with pytest.raises(ValueError, match=named.replace("(", r"\(").replace(")", r"\)") + "$"):
        fn(*args)


def test_pinned_weights_of_one_negative_per_positive_take_its_shape():
    """[B] negatives pin [B] weights, as the [B, 1] form does."""
    pos, neg, w = np.array([0.3, -1.2]), np.array([0.5, 2.0]), np.array([1.0, 0.25])
    flat = self_adversarial_loss(pos, neg, 1.0, 1.0, weights=w)
    assert flat == self_adversarial_loss(pos, neg[:, None], 1.0, 1.0, weights=w[:, None])


# --- LossSpec --------------------------------------------------------------


def test_loss_spec_validation():
    with pytest.raises(ValueError):
        LossSpec(kind="nope").validate()
    with pytest.raises(ValueError):
        LossSpec(kind="margin", margin=-1.0).validate()
    with pytest.raises(ValueError):
        LossSpec(kind="self_adversarial", adv_temperature=0.0).validate()
    with pytest.raises(ValueError):
        LossSpec(kind="bce", label_smoothing=1.0).validate()
    LossSpec(kind="bce", label_smoothing=0.3).validate()


def test_loss_spec_rejects_a_nan_margin_and_temperature():
    for kind in ("margin", "self_adversarial"):
        with pytest.raises(ValueError, match="margin must be >= 0, got nan"):
            LossSpec(kind=kind, margin=math.nan).validate()
    with pytest.raises(ValueError, match="adv_temperature must be > 0, got nan"):
        LossSpec(kind="self_adversarial", adv_temperature=math.nan).validate()
