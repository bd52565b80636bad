"""Sparse-aware optimizers: sgd, adagrad, adam.

State is stored float32 like the parameter tables (so checkpoints
round-trip bitwise); update arithmetic runs in float64. Updates are lazy:
only rows named by the gradient are touched, and only their state
advances — adam keeps a per-row step counter for bias correction.

A step gathers each table's rows (and each slot's) with ``take``, a
block of rows at a time, updates the float64 copies in place with the
operands in the order of the textbook formulas, and writes them back,
rounding to float32 on assignment. Every product and quotient is the one
the formulas name, so the trained bytes do not depend on how the
temporaries are laid out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

OPTIMIZER_KINDS = ("sgd", "adagrad", "adam")

ADAGRAD_EPS = 1e-10

# float64 elements per block of rows that a step updates at once: its
# temporaries stay in cache and do not grow with the number of rows
_BLOCK_ELEMS = 1 << 15


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
        step = max(1, _BLOCK_ELEMS // math.prod(table.shape[1:]))
        for lo in range(0, len(ids), step):
            block = slice(lo, lo + step)
            _update(state, name, table, ids[block], np.asarray(g[block], dtype=np.float64), lr)


def _update(state: OptimizerState, name: str, table: np.ndarray, ids, g64, lr: float) -> None:
    """Update rows ``ids`` of ``table`` and of its slots by their float64 gradient ``g64``."""
    x = _gather(table, ids)
    if state.kind == "sgd":
        x -= lr * g64
    elif state.kind == "adagrad":
        acc = state.slots[name]["accum"]
        a = _gather(acc, ids)
        a += g64 * g64
        acc[ids] = a
        np.sqrt(a, out=a)
        a += ADAGRAD_EPS
        step = lr * g64
        step /= a
        x -= step
    else:  # adam
        slot = state.slots[name]
        steps = _gather(slot["steps"], ids)
        steps += 1.0
        slot["steps"][ids] = steps
        m = _gather(slot["m"], ids)
        m *= state.beta1
        m += (1 - state.beta1) * g64
        v = _gather(slot["v"], ids)
        v *= state.beta2
        step = (1 - state.beta2) * g64
        step *= g64
        v += step
        slot["m"][ids] = m
        slot["v"][ids] = v
        shape = (-1,) + (1,) * (g64.ndim - 1)
        m /= (1.0 - state.beta1**steps).reshape(shape)  # mhat
        v /= (1.0 - state.beta2**steps).reshape(shape)  # vhat
        np.sqrt(v, out=v)
        v += state.eps
        m *= lr
        m /= v
        x -= m
    table[ids] = x


def _gather(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Rows ``ids`` of a float32 table as a new float64 array to update in place."""
    return table.take(ids, axis=0).astype(np.float64)
