"""The two-pass ``models.grad``, the reference for the one-pass one.

It scores every query group, takes the loss and its coefficients over the
whole batch at once, then runs every chunk again to write the gradient:
the explicit triples (positives, labeled triples, soft triples) as one
[n, 1] group first, the negatives after them. Its accumulator holds
exactly the ids that a nonzero coefficient reaches, found from the
coefficients before any row is written. The formulas, ``_Query`` and
``GradAccumulator`` are the library's.
"""

import numpy as np

from kgembed import models
from kgembed.losses import (
    bce_loss,
    bce_loss_grads,
    margin_loss,
    margin_loss_grads,
    self_adversarial_loss,
    self_adversarial_loss_grads,
)
from kgembed.sampling import HEAD, LabeledBatch


def _negatives_loss(pos, neg, spec):
    if spec.kind == "margin":
        loss = margin_loss(pos, neg, spec.margin)
        d_pos, d_neg = margin_loss_grads(pos, neg, spec.margin)
    elif spec.kind == "self_adversarial":
        loss = self_adversarial_loss(pos, neg, spec.margin, spec.adv_temperature)
        d_pos, d_neg = self_adversarial_loss_grads(pos, neg, spec.margin, spec.adv_temperature)
    else:
        b, n = neg.shape
        scores = np.concatenate([pos, neg.reshape(-1)])
        labels = np.concatenate([np.ones(b), np.zeros(b * n)])
        loss = bce_loss(scores, labels, spec.label_smoothing)
        d = bce_loss_grads(scores, labels, spec.label_smoothing)
        d_pos, d_neg = d[:b], d[b:].reshape(b, n)
    return loss, d_pos, d_neg


def _query_grad(params, groups, coeffs):
    ent, rel = [], []
    for (positives, replaced, head), c in zip(groups, coeffs):
        kept = c != 0.0
        ent += [
            replaced[kept],
            positives[(kept & ~head).any(axis=1), 0],
            positives[(kept & head).any(axis=1), 2],
        ]
        rel.append(positives[kept.any(axis=1), 1])
    acc = models.GradAccumulator(
        params, np.unique(np.concatenate(ent)), np.unique(np.concatenate(rel))
    )
    formula = models._FORMULA[params.model]
    for (positives, replaced, head), c in zip(groups, coeffs):
        for sl in models._chunks(params, *replaced.shape):
            coef = lambda scores, sl=sl: c[sl]
            formula(params, models._Query(params, positives[sl], replaced[sl], head[sl], coef, acc))
    return acc.finalize()


def two_pass_grad(params, batch, spec, soft=None):
    """``(loss, coefficients, grads)`` of ``models.grad(params, batch, spec, soft)``.

    ``coefficients`` maps ``pos`` and ``neg`` (a negative batch) or
    ``batch`` (a labeled one), and ``soft``, to each score's derivative.
    """
    smoothing = spec.label_smoothing
    labeled = isinstance(batch, LabeledBatch)
    triples = batch.triples if labeled else batch.positives
    explicit = triples if soft is None else np.concatenate([triples, soft.triples])
    groups = [models._as_queries(explicit)]
    scores = models._query_scores(params, *groups[0])[:, 0]
    batch_scores, soft_scores = scores[: len(triples)], scores[len(triples) :]
    if labeled:
        loss = bce_loss(batch_scores, batch.labels, smoothing)
        coefficients = {"batch": bce_loss_grads(batch_scores, batch.labels, smoothing)}
        first = coefficients["batch"]
    else:
        groups.append((batch.positives, batch.replaced, batch.slot == HEAD))
        neg_scores = models._query_scores(params, *groups[1])
        loss, d_pos, d_neg = _negatives_loss(batch_scores, neg_scores, spec)
        coefficients = {"pos": d_pos, "neg": d_neg}
        first = d_pos
    coeffs = [first]
    if len(soft_scores):
        loss += bce_loss(soft_scores, soft.labels, smoothing)
        coefficients["soft"] = bce_loss_grads(soft_scores, soft.labels, smoothing)
        coeffs[0] = np.concatenate([first, coefficients["soft"]])
    coeffs[0] = coeffs[0][:, None]
    if not labeled:
        coeffs.append(d_neg)
    return loss, coefficients, _query_grad(params, groups, coeffs)
