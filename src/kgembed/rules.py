"""Soft-rule injection for embedding training.

Grounded rules assign soft truth labels to unlabeled conclusion triples:
with triple truth pi = sigmoid(score) and product t-norm over rule
bodies, the closed-form label for an unlabeled conclusion u is

    s(u) = clip_[0,1]( pi(u) + C * sum_g lambda_g * pi(body(g)) )

summing over groundings g whose conclusion is u. Training alternates:
predict soft labels for the current parameters, then take one gradient
step on cross-entropy toward them (labels held constant). The base
model is ComplEx. Both cross-entropy terms are :func:`models.grad` under
bce, one over the sampled batch and one over the soft-labeled triples.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .data import Grounding
from .losses import LossSpec, sigmoid
from .models import ModelParams, SparseGrad, add_grads, grad, score
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
    seen: dict[tuple[int, int, int], None] = {}
    for g in groundings:
        if not g.in_train:
            seen.setdefault(g.conclusion, None)
    if not seen:
        return np.zeros((0, 3), dtype=np.int64)
    return np.array(list(seen), dtype=np.int64)


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
    if len(pool) == 0:
        return SoftLabelSet(
            triples=pool,
            labels=np.zeros(0),
            rule_weight=rule_weight,
            params_version=params.version,
        )

    labels = triple_truth(params, pool)

    index = {tuple(t): i for i, t in enumerate(pool.tolist())}
    by_conclusion: dict[int, list[Grounding]] = defaultdict(list)
    for g in groundings:
        i = index.get(g.conclusion)
        if i is not None:
            by_conclusion[i].append(g)

    if by_conclusion and rule_weight != 0.0:
        push = np.zeros(len(pool))
        body_triples = []
        body_slices = []
        conf = []
        owner = []
        for i, gs in by_conclusion.items():
            for g in gs:
                start = len(body_triples)
                body_triples.extend(g.body_triples)
                body_slices.append((start, len(body_triples)))
                conf.append(g.confidence)
                owner.append(i)
        truths = triple_truth(params, np.array(body_triples, dtype=np.int64))
        for (start, end), lam, i in zip(body_slices, conf, owner):
            push[i] += lam * float(np.prod(truths[start:end]))
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
    """Loss and sparse gradient of :func:`ruge_loss`, soft labels constant."""
    _check_fresh(params, soft)
    bce = LossSpec("bce")
    loss, grads = grad(params, batch, bce)
    if len(soft.triples):
        soft_loss, soft_grads = grad(params, LabeledBatch(soft.triples, soft.labels), bce)
        loss, grads = loss + soft_loss, add_grads(grads, soft_grads)
    return loss, grads


def _check_fresh(params: ModelParams, soft: SoftLabelSet) -> None:
    if soft.params_version != params.version:
        raise StaleSoftLabelsError(
            f"soft labels computed for params version {soft.params_version}, "
            f"current version is {params.version}"
        )
