"""Training losses over triple scores, with their score-space derivatives.

All losses consume scores under the convention "higher = more plausible"
and accumulate in float64. Each loss has a companion ``*_grads`` function
returning d(loss)/d(score) so model-side gradient code can stay loss-free.
Every loss is a mean with a normalizer known before any score is: the
pairs (margin), the positives (self_adversarial) or the scores (bce). A
``*_grads`` function takes it as ``normalizer``, so a caller can take the
derivatives of one chunk of a batch at a time, each bit for bit the
whole batch's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOSS_KINDS = ("margin", "self_adversarial", "bce")


@dataclass(frozen=True)
class LossSpec:
    """Loss selection plus its parameters.

    margin uses ``margin``; self_adversarial uses ``margin`` and
    ``adv_temperature``; bce optionally applies ``label_smoothing``.
    """

    kind: str = "margin"
    margin: float = 1.0
    adv_temperature: float = 1.0
    label_smoothing: float = 0.0

    def validate(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind: {self.kind!r}")
        if self.kind in ("margin", "self_adversarial") and self.margin < 0:
            raise ValueError(f"margin must be >= 0, got {self.margin}")
        if self.kind == "self_adversarial" and self.adv_temperature <= 0:
            raise ValueError(f"adv_temperature must be > 0, got {self.adv_temperature}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError(f"label_smoothing must be in [0, 1), got {self.label_smoothing}")


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) without overflow."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def log_sigmoid(x: np.ndarray) -> np.ndarray:
    return -softplus(-np.asarray(x, dtype=np.float64))


def margin_loss(pos_scores: np.ndarray, neg_scores: np.ndarray, margin: float) -> float:
    """Mean over (positive, negative) pairs of max(0, margin - s_pos + s_neg).

    ``neg_scores`` may be [B] or [B, n_neg]; positives broadcast over the
    negatives paired with them.
    """
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if neg.ndim == pos.ndim + 1:
        pos = pos[..., None]
    viol = np.maximum(0.0, margin - pos + neg)
    return float(np.mean(viol, dtype=np.float64))


def margin_loss_grads(
    pos_scores: np.ndarray,
    neg_scores: np.ndarray,
    margin: float,
    normalizer: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """d(margin_loss)/d(pos_scores), d(margin_loss)/d(neg_scores).

    ``normalizer`` is the number of pairs the mean runs over (default
    ``neg_scores.size``).
    """
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    posb = pos[..., None] if neg.ndim == pos.ndim + 1 else pos
    active = (margin - posb + neg) > 0
    scale = 1.0 / (neg.size if normalizer is None else normalizer)
    d_neg = np.where(active, scale, 0.0)
    if neg.ndim == pos.ndim + 1:
        d_pos = -d_neg.sum(axis=-1)
    else:
        d_pos = -d_neg
    return d_pos, d_neg


def adversarial_weights(neg_scores: np.ndarray, temperature: float) -> np.ndarray:
    """Softmax of temperature * neg_scores along the last axis, treated as constants."""
    if temperature <= 0:
        raise ValueError(f"adv_temperature must be > 0, got {temperature}")
    z = temperature * np.asarray(neg_scores, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=-1, keepdims=True)


def self_adversarial_loss(
    pos_scores: np.ndarray,
    neg_scores: np.ndarray,
    margin: float,
    temperature: float,
    weights: np.ndarray | None = None,
) -> float:
    """Mean over the batch of -log s(margin + s_pos) - sum_i w_i log s(-margin - s_neg_i).

    w_i is the softmax of temperature * s_neg over each row's negatives;
    the weights do not propagate gradient. Passing ``weights`` pins them
    explicitly — that fixed-weight objective is what the gradient descends,
    and what finite-difference checks must probe.
    """
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if neg.ndim == 1:
        neg = neg[:, None]
    w = adversarial_weights(neg, temperature) if weights is None else np.asarray(weights)
    pos_term = -log_sigmoid(margin + pos)
    neg_term = -(w * log_sigmoid(-margin - neg)).sum(axis=-1)
    return float(np.mean(pos_term + neg_term, dtype=np.float64))


def self_adversarial_loss_grads(
    pos_scores: np.ndarray,
    neg_scores: np.ndarray,
    margin: float,
    temperature: float,
    normalizer: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Score-space gradients of :func:`self_adversarial_loss` (weights held constant).

    ``normalizer`` is the number of positives the mean runs over (default
    ``len(pos_scores)``).
    """
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    squeeze = neg.ndim == 1
    if squeeze:
        neg = neg[:, None]
    w = adversarial_weights(neg, temperature)
    n = pos.shape[0] if normalizer is None else normalizer
    d_pos = -sigmoid(-margin - pos) / n
    d_neg = w * sigmoid(margin + neg) / n
    if squeeze:
        d_neg = d_neg[:, 0]
    return d_pos, d_neg


def bce_loss(scores: np.ndarray, labels: np.ndarray, label_smoothing: float = 0.0) -> float:
    """Mean of -[y log s(x) + (1-y) log(1 - s(x))] in log-sum-exp form.

    Labels may be soft (any value in [0, 1]); values outside raise.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if labels.size and (labels.min() < 0.0 or labels.max() > 1.0):
        raise ValueError("bce labels must lie in [0, 1]")
    y = _smooth(labels, label_smoothing)
    # y*softplus(-x) + (1-y)*softplus(x) == softplus(x) - y*x
    return float(np.mean(softplus(scores) - y * scores, dtype=np.float64))


def bce_loss_grads(
    scores: np.ndarray,
    labels: np.ndarray,
    label_smoothing: float = 0.0,
    normalizer: int | None = None,
) -> np.ndarray:
    """d(bce_loss)/d(scores): (sigmoid(x) - y) / n, n = ``normalizer`` (default ``scores.size``)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if labels.size and (labels.min() < 0.0 or labels.max() > 1.0):
        raise ValueError("bce labels must lie in [0, 1]")
    y = _smooth(labels, label_smoothing)
    return (sigmoid(scores) - y) / (scores.size if normalizer is None else normalizer)


def _smooth(labels: np.ndarray, eps: float) -> np.ndarray:
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"label_smoothing must be in [0, 1), got {eps}")
    if eps == 0.0:
        return labels
    return labels * (1.0 - eps) + 0.5 * eps
