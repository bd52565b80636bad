"""Sparse-aware optimizers: sgd, adagrad, adam.

State is stored float32 like the parameter tables (so checkpoints
round-trip bitwise); update arithmetic runs in float64. Updates are lazy:
only rows named by the gradient are touched, and only their state
advances — adam keeps a per-row step counter for bias correction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

OPTIMIZER_KINDS = ("sgd", "adagrad", "adam")

ADAGRAD_EPS = 1e-10


class NonFiniteGradientError(ValueError):
    """A gradient row holds a NaN or an infinity."""


@dataclass
class OptimizerState:
    """Per-table optimizer slots; empty for sgd.

    adagrad: ``accum`` (sum of squared gradients). adam: ``m``, ``v``
    (first/second moments) and ``steps`` (per-row update counts, float32
    but integer-valued).
    """

    kind: str
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    slots: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)

    def copy(self) -> "OptimizerState":
        return OptimizerState(
            kind=self.kind,
            beta1=self.beta1,
            beta2=self.beta2,
            eps=self.eps,
            slots={t: {k: v.copy() for k, v in s.items()} for t, s in self.slots.items()},
        )


def init_optimizer(
    kind: str,
    tables: dict[str, np.ndarray],
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> OptimizerState:
    if kind not in OPTIMIZER_KINDS:
        raise ValueError(f"unknown optimizer kind: {kind!r}")
    slots: dict[str, dict[str, np.ndarray]] = {}
    for name, table in tables.items():
        if kind == "adagrad":
            slots[name] = {"accum": np.zeros_like(table, dtype=np.float32)}
        elif kind == "adam":
            slots[name] = {
                "m": np.zeros_like(table, dtype=np.float32),
                "v": np.zeros_like(table, dtype=np.float32),
                "steps": np.zeros(table.shape[0], dtype=np.float32),
            }
    return OptimizerState(kind=kind, beta1=beta1, beta2=beta2, eps=eps, slots=slots)


def optimizer_step(
    state: OptimizerState,
    tables: dict[str, np.ndarray],
    grads: dict[str, tuple[np.ndarray, np.ndarray]],
    lr: float,
) -> None:
    """Apply one update in place; rows absent from ``grads`` stay untouched.

    Every gradient is checked before any table or slot is written, so a
    rejected step leaves the whole state as it was.
    """
    for name, (ids, g) in grads.items():
        if name not in tables:
            raise KeyError(f"gradient for unknown table {name!r}")
        if not np.isfinite(g).all():
            bad = ids[np.argwhere(~np.isfinite(g).reshape(len(ids), -1).all(axis=1))[0][0]]
            raise NonFiniteGradientError(
                f"non-finite gradient in table {name!r} at row {int(bad)}"
            )
    for name, (ids, g) in grads.items():
        table = tables[name]
        g64 = np.asarray(g, dtype=np.float64)
        x = table[ids].astype(np.float64)
        if state.kind == "sgd":
            x -= lr * g64
        elif state.kind == "adagrad":
            acc = state.slots[name]["accum"]
            a = acc[ids].astype(np.float64) + g64 * g64
            acc[ids] = a.astype(np.float32)
            x -= lr * g64 / (np.sqrt(a) + ADAGRAD_EPS)
        else:  # adam
            slot = state.slots[name]
            steps = slot["steps"][ids].astype(np.float64) + 1.0
            slot["steps"][ids] = steps.astype(np.float32)
            m = state.beta1 * slot["m"][ids].astype(np.float64) + (1 - state.beta1) * g64
            v = state.beta2 * slot["v"][ids].astype(np.float64) + (1 - state.beta2) * g64 * g64
            slot["m"][ids] = m.astype(np.float32)
            slot["v"][ids] = v.astype(np.float32)
            shape = (-1,) + (1,) * (g64.ndim - 1)
            mhat = m / (1.0 - state.beta1 ** steps).reshape(shape)
            vhat = v / (1.0 - state.beta2 ** steps).reshape(shape)
            x -= lr * mhat / (np.sqrt(vhat) + state.eps)
        table[ids] = x.astype(table.dtype)
