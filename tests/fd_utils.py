"""Finite-difference oracle for loss gradients, independent of the grad code.

Probes evaluate the batch loss through the public score/loss functions on
a float64 upcast of the parameter tables, so the step is exact and the
numerics are dominated by the O(h^2) truncation term. For the
self-adversarial loss the probed objective pins the softmax weights at
their unperturbed values: that fixed-weight function is the one whose
gradient the training code computes (weights are detached by design).

The flat oracle (``flat_scores``, ``flat_score_grad``) runs each model's
formula over explicit triples without the query form: rows gathered by
fancy indexing, every gradient part kept, and one ``np.add.at`` per table
at the end.
"""

import numpy as np

from kgembed import losses, models
from kgembed.models import score
from kgembed.sampling import LabeledBatch, NegBatch


def batch_loss(params, batch, spec, fixed_weights=None):
    if isinstance(batch, LabeledBatch):
        return losses.bce_loss(score(params, batch.triples), batch.labels, spec.label_smoothing)
    b, n = batch.negatives.shape[:2]
    pos = score(params, batch.positives)
    neg = score(params, batch.negatives.reshape(-1, 3)).reshape(b, n)
    if spec.kind == "margin":
        return losses.margin_loss(pos, neg, spec.margin)
    if spec.kind == "self_adversarial":
        return losses.self_adversarial_loss(
            pos, neg, spec.margin, spec.adv_temperature, weights=fixed_weights
        )
    s = np.concatenate([pos, neg.reshape(-1)])
    y = np.concatenate([np.ones(b), np.zeros(b * n)])
    return losses.bce_loss(s, y, spec.label_smoothing)


def upcast(params):
    p = params.copy()
    p.tables = {k: v.astype(np.float64) for k, v in params.tables.items()}
    return p


def fixed_adv_weights(params, batch, spec):
    if spec.kind != "self_adversarial":
        return None
    b, n = batch.negatives.shape[:2]
    neg = score(params, batch.negatives.reshape(-1, 3)).reshape(b, n)
    return losses.adversarial_weights(neg, spec.adv_temperature)


def fd_gradient(params, batch, spec, table, row, coord, step=1e-4):
    """Central difference d(loss)/d(params[table][row][coord])."""
    p = upcast(params)
    w = fixed_adv_weights(p, batch, spec)
    idx = (row,) + tuple(coord)
    base = p.tables[table][idx]
    p.tables[table][idx] = base + step
    f_plus = batch_loss(p, batch, spec, fixed_weights=w)
    p.tables[table][idx] = base - step
    f_minus = batch_loss(p, batch, spec, fixed_weights=w)
    p.tables[table][idx] = base
    return (f_plus - f_minus) / (2.0 * step)


def relative_error(analytic, numeric, floor=1e-6):
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)


class FlatTriples:
    """The formulas' row accessor over explicit triples, one fancy-index gather per call.

    ``coeff`` (one per triple) is what ``coef`` hands the formula; without
    it the formula only scores.
    """

    def __init__(self, params, triples, coeff=None):
        self.tables, self.ids, self.coeff, self.parts = params.tables, triples, coeff, {}

    def coef(self, scores):
        return self.coeff

    def _rows(self, name, col):
        return self.tables[name][self.ids[:, col]].astype(np.float64)

    def h(self, name):
        return self._rows(name, 0)

    def r(self, name):
        return self._rows(name, 1)

    def t(self, name):
        return self._rows(name, 2)

    def _add(self, name, col, rows, coef):
        if isinstance(rows, tuple):  # the outer product u v^T
            u, v = rows
            rows = (coef[:, None] * u)[:, :, None] * v[:, None, :]
        else:
            rows = coef[:, None] * rows
        self.parts.setdefault(name, []).append((self.ids[:, col], rows))

    def add_h(self, name, rows, coef):
        self._add(name, 0, rows, coef)

    def add_r(self, name, rows, coef):
        self._add(name, 1, rows, coef)

    def add_t(self, name, rows, coef):
        self._add(name, 2, rows, coef)

    def add_trilinear(self, partials, names, rows, coef):
        """Each triple's own q_h(r, t), q_r(h, t) and q_t(h, r), as its rows' derivatives."""
        q_h, q_r, q_t = partials
        h, r, t = rows
        for col, (name, part) in enumerate(zip(names, (q_h(r, t), q_r(h, t), q_t(h, r)))):
            self._add(name, col, part, coef)


def flat_scores(params, triples):
    return models._FORMULA[params.model](params, FlatTriples(params, np.asarray(triples)))


def flat_score_grad(params, triples, coeff):
    """sum_i coeff[i] * d(score_i)/d(params); zero-coefficient triples touch no row."""
    triples, coeff = np.asarray(triples), np.asarray(coeff, dtype=np.float64)
    keep = coeff != 0.0
    x = FlatTriples(params, triples[keep], coeff[keep])
    if keep.any():
        models._FORMULA[params.model](params, x)
    out = {}
    for name, parts in x.parts.items():
        ids = np.concatenate([p[0] for p in parts])
        rows = np.concatenate([p[1] for p in parts])
        uniq, inverse = np.unique(ids, return_inverse=True)
        buf = np.zeros((len(uniq),) + rows.shape[1:])
        np.add.at(buf, inverse, rows)
        out[name] = (uniq, buf)
    return out
