"""Training losses over triple scores, with their score-space derivatives.

All losses consume scores under the convention "higher = more plausible"
and accumulate in float64. Each loss kind is one function, ``*_grads``, so
model-side gradient code stays loss-free: from the scores it returns
d(loss)/d(score) and, given ``out``, writes each score's loss term there
from the same temporaries (one self-adversarial softmax; one ``exp(-|x|)``
per score for both a sigmoid and a softplus). The loss (``margin_loss``
and the others) is the mean of those terms, with a normalizer known before
any score is: the pairs (margin), the positives (self_adversarial) or the
scores (bce). A ``*_grads`` function takes it as ``normalizer``, so a
caller can take the derivatives and terms of one chunk of a batch at a
time, each bit for bit the whole batch's. Empty scores are rejected,
naming their shape: a mean over no terms is no loss.
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
        if self.kind in ("margin", "self_adversarial") and not self.margin >= 0:
            raise ValueError(f"margin must be >= 0, got {self.margin}")
        if self.kind == "self_adversarial" and not self.adv_temperature > 0:
            raise ValueError(f"adv_temperature must be > 0, got {self.adv_temperature}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError(f"label_smoothing must be in [0, 1), got {self.label_smoothing}")


# sigmoid and softplus from e = exp(-|x|), which never overflows
def _sigmoid(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _softplus(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """log(1 + exp(x))."""
    return np.maximum(x, 0.0) + np.log1p(e)


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return _sigmoid(x, np.exp(-np.abs(x)))


def _mean_terms(grads, shape, *args, **kwargs) -> float:
    """The mean of the loss terms ``grads`` writes for scores whose terms have ``shape``."""
    terms = np.empty(shape)
    grads(*args, **kwargs, out=terms)
    return float(np.mean(terms, dtype=np.float64))


def _unpaired(neg_shape: tuple, pos_shape: tuple) -> ValueError:
    return ValueError(
        f"negative scores of shape {neg_shape} do not pair with positives of shape {pos_shape}"
    )


def _check_nonempty(loss: str, what: str, shape: tuple) -> None:
    if 0 in shape:
        raise ValueError(f"the {loss} loss needs at least one score, got {what} of shape {shape}")


def margin_loss(pos_scores: np.ndarray, neg_scores: np.ndarray, margin: float) -> float:
    """Mean over (positive, negative) pairs of max(0, margin - s_pos + s_neg).

    ``neg_scores`` may have the shape of ``pos_scores`` or one more axis,
    of negatives paired with each positive.
    """
    return _mean_terms(margin_loss_grads, np.shape(neg_scores), pos_scores, neg_scores, margin)


def margin_loss_grads(
    pos_scores: np.ndarray,
    neg_scores: np.ndarray,
    margin: float,
    normalizer: int | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """d(margin_loss)/d(pos_scores), d(margin_loss)/d(neg_scores).

    ``normalizer`` is the number of pairs the mean runs over (default
    ``neg_scores.size``); ``out``, shaped as ``neg_scores``, receives each
    pair's term.
    """
    if not margin >= 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    paired = neg.shape != pos.shape
    if paired and neg.shape[:-1] != pos.shape:
        raise _unpaired(neg.shape, pos.shape)
    _check_nonempty("margin", "negative scores", neg.shape)
    viol = np.maximum(0.0, margin - (pos[..., None] if paired else pos) + neg, out=out)
    d_neg = np.where(viol > 0, 1.0 / (neg.size if normalizer is None else normalizer), 0.0)
    return (-d_neg.sum(axis=-1) if paired else -d_neg), d_neg


def adversarial_weights(neg_scores: np.ndarray, temperature: float) -> np.ndarray:
    """Softmax of temperature * neg_scores along the last axis, treated as constants."""
    if not temperature > 0:
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
    return _mean_terms(
        self_adversarial_loss_grads, np.shape(pos_scores), pos_scores, neg_scores, margin,
        temperature, weights=weights,
    )


def self_adversarial_loss_grads(
    pos_scores: np.ndarray,
    neg_scores: np.ndarray,
    margin: float,
    temperature: float,
    normalizer: int | None = None,
    out: np.ndarray | None = None,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Score-space gradients of :func:`self_adversarial_loss` (weights held constant).

    ``normalizer`` is the number of positives the mean runs over (default
    ``len(pos_scores)``); ``out``, shaped as ``pos_scores``, receives each
    positive's term; ``weights`` pins the softmax weights.
    """
    if not margin >= 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    squeeze = neg.ndim == 1
    if squeeze:
        neg = neg[:, None]
    if pos.ndim != 1 or neg.ndim != 2 or len(neg) != len(pos):
        raise _unpaired(np.shape(neg_scores), pos.shape)
    _check_nonempty("self_adversarial", "negative scores", np.shape(neg_scores))
    if weights is not None and np.shape(weights) != np.shape(neg_scores):
        raise ValueError(f"weights of shape {np.shape(weights)} do not match negative scores "
                         f"of shape {np.shape(neg_scores)}")
    w = adversarial_weights(neg, temperature) if weights is None else np.reshape(weights, neg.shape)
    # -log s(margin + s_pos) = softplus(x) and -log s(-margin - s_neg) = softplus(z)
    x, z = -margin - pos, margin + neg
    ex, ez = np.exp(-np.abs(x)), np.exp(-np.abs(z))
    n = pos.shape[0] if normalizer is None else normalizer
    if out is not None:
        np.add(_softplus(x, ex), (w * _softplus(z, ez)).sum(axis=-1), out=out)
    d_neg = w * _sigmoid(z, ez) / n
    return -_sigmoid(x, ex) / n, (d_neg[:, 0] if squeeze else d_neg)


def bce_loss(scores: np.ndarray, labels: np.ndarray, label_smoothing: float = 0.0) -> float:
    """Mean of -[y log s(x) + (1-y) log(1 - s(x))] in log-sum-exp form.

    Labels may be soft (any value in [0, 1]); values outside raise.
    """
    return _mean_terms(bce_loss_grads, np.shape(scores), scores, labels, label_smoothing)


def bce_loss_grads(
    scores: np.ndarray,
    labels: np.ndarray,
    label_smoothing: float = 0.0,
    normalizer: int | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """d(bce_loss)/d(scores): (sigmoid(x) - y) / n, n = ``normalizer`` (default ``scores.size``).

    ``out``, shaped as ``scores``, receives each score's term.
    """
    x = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape != x.shape:
        raise ValueError(f"labels of shape {labels.shape} do not match scores of shape {x.shape}")
    _check_nonempty("bce", "scores", x.shape)
    lo, hi = labels.min(), labels.max()  # NaN if any label is
    if not (lo >= 0.0 and hi <= 1.0):
        raise ValueError(f"bce labels must lie in [0, 1], got {hi if lo >= 0.0 else lo}")
    y = _smooth(labels, label_smoothing)
    e = np.exp(-np.abs(x))
    if out is not None:
        # y*softplus(-x) + (1-y)*softplus(x) == softplus(x) - y*x
        np.subtract(_softplus(x, e), y * x, out=out)
    return (_sigmoid(x, e) - y) / (x.size if normalizer is None else normalizer)


def _smooth(labels: np.ndarray, eps: float) -> np.ndarray:
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"label_smoothing must be in [0, 1), got {eps}")
    if eps == 0.0:
        return labels
    return labels * (1.0 - eps) + 0.5 * eps
