"""Soft-rule injection for embedding training.

Grounded rules assign soft truth labels to unlabeled conclusion triples:
with triple truth pi = sigmoid(score) and product t-norm over rule
bodies, the closed-form label for an unlabeled conclusion u is

    s(u) = clip_[0,1]( pi(u) + C * sum_g lambda_g * pi(body(g)) )

summing over groundings g whose conclusion is u. Training alternates:
predict soft labels for the current parameters, then take one gradient
step on cross-entropy toward them (labels held constant). The base
model is ComplEx. The step is one :func:`models.grad` call under bce:
the soft-labeled triples are its ``soft`` input, scored and
differentiated with the sampled batch's explicit triples.

Soft labels are computed on the :class:`~kgembed.data.Groundings` table
with no Python loop over groundings: one ``find`` locates the pool among
the conclusions and a gather gives each grounding its pool row. The pool
and the body atoms of the groundings that reach it are scored in one call,
the t-norm is t0 * t1 over [G, 2] body truths (a one-atom body's second
truth is 1), and the push is one ``np.bincount`` in grounding order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Groundings
from .losses import LossSpec, sigmoid
from .models import ModelParams, SparseGrad, grad, score
from .sampling import LabeledBatch, NegBatch


class StaleSoftLabelsError(ValueError):
    """Soft labels were predicted for a different parameter version."""


@dataclass
class SoftLabelSet:
    """Unlabeled conclusion triples with their predicted soft labels.

    ``params_version`` records the parameter snapshot the labels were
    computed from; loss code refuses to mix versions.
    """

    triples: np.ndarray  # [n, 3] int64
    labels: np.ndarray  # [n] float64 in [0, 1]
    rule_weight: float
    params_version: int


def triple_truth(params: ModelParams, triples: np.ndarray) -> np.ndarray:
    """sigmoid(score): soft truth in (0, 1) under the ComplEx base model."""
    if params.model != "complex":
        raise ValueError(f"rule injection uses a complex base model, got {params.model!r}")
    return sigmoid(score(params, triples))


def unlabeled_conclusions(groundings: Groundings) -> np.ndarray:
    """Deduplicated conclusions not present in train, in first-seen order."""
    unlabeled = np.flatnonzero(~groundings.in_train)
    _, first = np.unique(groundings.slot[unlabeled], return_index=True)
    return groundings.conclusions[unlabeled[np.sort(first)]]


def predict_soft_labels(
    params: ModelParams, groundings: Groundings, rule_weight: float, pool: np.ndarray | None = None
) -> SoftLabelSet:
    """Closed-form soft labels for the unlabeled conclusion pool.

    ``pool`` restricts prediction to a subset of conclusions (mini-batch
    alternation); by default every unlabeled conclusion is labeled.
    """
    if not rule_weight >= 0:
        raise ValueError(f"rule weight must be >= 0, got {rule_weight}")
    if pool is None:
        pool = unlabeled_conclusions(groundings)
    pool = np.asarray(pool, dtype=np.int64).reshape(-1, 3)
    # the pool row of each distinct conclusion; the extra last entry takes
    # the pool rows that no grounding concludes
    owner = np.full(len(groundings.index.hrt) + 1, -1)
    owner[groundings.index.find(pool)] = np.arange(len(pool))
    owner = owner[groundings.slot]
    hits = np.flatnonzero(owner >= 0) if rule_weight != 0.0 else np.zeros(0, dtype=np.int64)
    bodies = groundings.bodies[hits]
    present = bodies[:, :, 0] >= 0
    truths = triple_truth(params, np.concatenate([pool, bodies[present]]))
    body = np.ones(present.shape)
    body[present] = truths[len(pool) :]
    weights = groundings.confidence[hits] * (body[:, 0] * body[:, 1])
    push = np.bincount(owner[hits], weights=weights, minlength=len(pool))
    labels = np.clip(truths[: len(pool)] + rule_weight * push, 0.0, 1.0)
    return SoftLabelSet(pool, labels, rule_weight, params.version)


def ruge_loss(params: ModelParams, batch: NegBatch | LabeledBatch, soft: SoftLabelSet) -> float:
    """bce(batch) + bce(soft-labeled unlabeled), each mean-reduced.

    ``batch`` is anything :func:`models.grad` takes under bce. Raises
    :class:`StaleSoftLabelsError` if the soft labels were predicted for a
    different parameter version.
    """
    return ruge_grad(params, batch, soft)[0]


def ruge_grad(
    params: ModelParams, batch: NegBatch | LabeledBatch, soft: SoftLabelSet
) -> tuple[float, SparseGrad]:
    """Loss and sparse gradient of :func:`ruge_loss`, soft labels constant.

    One :func:`models.grad` call under bce with the soft-labeled triples as
    its ``soft`` input, so the whole step writes one gradient accumulator.
    """
    _check_fresh(params, soft)
    return grad(params, batch, LossSpec("bce"), soft=LabeledBatch(soft.triples, soft.labels))


def _check_fresh(params: ModelParams, soft: SoftLabelSet) -> None:
    if soft.params_version != params.version:
        raise StaleSoftLabelsError(
            f"soft labels computed for params version {soft.params_version}, "
            f"current version is {params.version}"
        )
