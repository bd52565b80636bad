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

Soft labels are computed in array form: the pool and every body atom of
its groundings are scored in one call, the product t-norm is t0 * t1
over the [G, 2] body truths (a one-atom body's second truth is 1), and
the push is one weighted ``np.bincount`` over the groundings in list
order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Grounding
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


def unlabeled_conclusions(groundings: list[Grounding]) -> np.ndarray:
    """Deduplicated conclusions not present in train, in first-seen order."""
    seen = dict.fromkeys(g.conclusion for g in groundings if not g.in_train)
    return np.array(list(seen), dtype=np.int64).reshape(-1, 3)


def predict_soft_labels(
    params: ModelParams,
    groundings: list[Grounding],
    rule_weight: float,
    pool: np.ndarray | None = None,
) -> SoftLabelSet:
    """Closed-form soft labels for the unlabeled conclusion pool.

    ``pool`` restricts prediction to a subset of conclusions (mini-batch
    alternation); by default every unlabeled conclusion is labeled.
    """
    if rule_weight < 0:
        raise ValueError(f"rule weight must be >= 0, got {rule_weight}")
    if pool is None:
        pool = unlabeled_conclusions(groundings)
    pool = np.asarray(pool, dtype=np.int64).reshape(-1, 3)
    index = {t: i for i, t in enumerate(map(tuple, pool.tolist()))}
    hits = [g for g in groundings if g.conclusion in index] if rule_weight != 0.0 else []
    atoms = np.array([a for g in hits for a in g.body_triples], dtype=np.int64).reshape(-1, 3)
    truths = triple_truth(params, np.concatenate([pool, atoms]))
    labels = truths[: len(pool)]
    if hits:
        body = np.ones((len(hits), 2))
        present = np.ones((len(hits), 2), dtype=bool)
        present[:, 1] = [len(g.body_triples) == 2 for g in hits]
        body[present] = truths[len(pool) :]
        owner = np.array([index[g.conclusion] for g in hits])
        conf = np.array([g.confidence for g in hits])
        push = np.bincount(owner, weights=conf * (body[:, 0] * body[:, 1]), minlength=len(pool))
        labels = labels + rule_weight * push
    return SoftLabelSet(
        triples=pool,
        labels=np.clip(labels, 0.0, 1.0),
        rule_weight=rule_weight,
        params_version=params.version,
    )


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
