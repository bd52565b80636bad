"""Span tracing of kgembed from the outside, by temporarily wrapping its functions.

The benchmark never edits kgembed. A traced run replaces selected module
attributes (the names kgembed's modules call each other through) with
wrappers that record a span per call and update counters from the
arguments and return values, then puts the originals back.

A span is ``(id, group, parent, name, start, end)``. Spans of one training
step or one evaluation call share a ``group`` id: a step starts at its
negative sampler / graph sampler call, an evaluation at ``evaluate``.
Spans stay in memory until :meth:`Tracer.write`.

A wrapper whose target no longer exists (a later refactor renamed or
removed it) is skipped; the metrics that need it are then reported as
absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    id: int
    group: int
    parent: int  # -1 for a root span
    name: str
    start: float
    end: float = 0.0


class Tracer:
    """Records spans and counters; installs and restores kgembed wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.installed: set[str] = set()  # targets whose wrapper is live
        self._stack: list[int] = []
        self._group = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    @contextmanager
    def span(self, name: str, new_group: bool = False):
        if new_group:
            self._group += 1
        parent = self._stack[-1] if self._stack else -1
        sp = Span(len(self.spans), self._group, parent, name, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def busy(self) -> dict[str, float]:
        """Total duration per span name (a name never nests in itself here)."""
        out: dict[str, float] = defaultdict(float)
        for sp in self.spans:
            out[sp.name] += sp.end - sp.start
        return out

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time covered by its direct children."""
        child = np.zeros(len(self.spans))
        for sp in self.spans:
            if sp.parent >= 0:
                child[sp.parent] += sp.end - sp.start
        out: dict[str, float] = defaultdict(float)
        for sp in self.spans:
            out[sp.name] += (sp.end - sp.start) - child[sp.id]
        return out

    def write(self, path: str) -> None:
        """Write every span as a TSV row (times in seconds from the first span)."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tgroup\tparent\tname\tstart_s\tend_s\n")
            for sp in self.spans:
                fh.write(f"{sp.id}\t{sp.group}\t{sp.parent}\t{sp.name}\t"
                         f"{sp.start - t0:.6f}\t{sp.end - t0:.6f}\n")

    # -- wrappers -------------------------------------------------------

    def wrap(self, target: str, span_name=None, before=None, after=None, new_group=False) -> bool:
        """Replace ``module.attr`` or ``module.Class.method`` with a recording wrapper.

        ``span_name`` is a string or a function of the call's arguments
        (``None`` records counters only); ``before(args, kwargs)`` and
        ``after(args, kwargs, result)`` update counters. Returns False,
        installing nothing, when the target does not exist.
        """
        owner, attr = _resolve_owner(target)
        if owner is None or not hasattr(owner, attr):
            return False
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            if span_name is None:
                result = original(*args, **kwargs)
            else:
                name = span_name if isinstance(span_name, str) else span_name(args, kwargs)
                with tracer.span(name, new_group=new_group):
                    result = original(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        self.installed.add(target)
        return True

    def restore(self) -> None:
        """Put back every original, last-installed first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _resolve_owner(target: str):
    """``"pkg.mod.attr"`` or ``"pkg.mod.Class.attr"`` -> (owner object, attr)."""
    parts = target.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None, parts[-1]
        return owner, parts[-1]
    return None, parts[-1]


# ---------------------------------------------------------------------------
# the kgembed boundaries the benchmark traces


def _rows(grads) -> int:
    return int(sum(len(ids) for ids, _ in grads.values()))


def _negbatch_counts(tr: Tracer, nb) -> None:
    tr.counters["sampling.negatives"] += nb.fallback.size
    tr.counters["sampling.fallbacks"] += int(nb.fallback.sum())


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def _loss_grad_counts(tr: Tracer, result) -> None:
    parts = result if isinstance(result, tuple) else (result,)
    for d in parts:
        d = np.asarray(d)
        tr.counters["losses.coefficients"] += d.size
        tr.counters["losses.active"] += int(np.count_nonzero(d))


LOSS_FUNCTIONS = ("margin_loss", "self_adversarial_loss", "bce_loss")
LOSS_MODULES = ("kgembed.models", "kgembed.gnn", "kgembed.rules")


def install_kgembed(tr: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""

    def add(counter, amount):
        """A hook adding ``amount(*hook_args)`` to ``counter``."""

        def hook(*call):
            tr.counters[counter] += amount(*call)

        return hook

    # data, and the filter sets built before any ranking
    tr.wrap("kgembed.data.load_kg", "data.load_kg")
    tr.wrap("kgembed.data.load_rules", "data.load_rules")
    tr.wrap("kgembed.data.ground_rules", "data.ground_rules")
    for mod in ("kgembed.evaluate", "kgembed.train"):
        tr.wrap(f"{mod}.build_filter_sets", "evaluate.build_filter_sets")

    # sampling: a training step starts with its sampler call
    tr.wrap("kgembed.train.uniform_negatives", "sampling.uniform_negatives", new_group=True,
            after=lambda a, k, r: _negbatch_counts(tr, r))
    tr.wrap("kgembed.train.sample_graph", "sampling.sample_graph", new_group=True,
            after=lambda a, k, r: _negbatch_counts(tr, r.negatives))
    tr.wrap("kgembed.train.full_graph", "sampling.full_graph",
            after=lambda a, k, r: _negbatch_counts(tr, r.negatives))
    tr.wrap("kgembed.train.mask_edges", "sampling.mask_edges")

    # models
    touched = add("models.grad.touched_rows", lambda a, k, r: _rows(r[1]))
    tr.wrap("kgembed.models.grad", "models.grad", after=touched)
    for mod in ("kgembed.models", "kgembed.rules"):
        tr.wrap(f"{mod}.score", "models.score")
    tr.wrap("kgembed.models.GradAccumulator.finalize", "models.GradAccumulator.finalize")
    tr.wrap("kgembed.models.GradAccumulator.add", None,
            before=add("models.grad.scattered_rows", lambda a, k: len(a[2])))
    tr.wrap("kgembed.models.score_candidates",
            lambda a, k: f"models.score_candidates.{a[0].model}")

    # losses, under every name the callers import them by
    for mod in LOSS_MODULES:
        for fn in LOSS_FUNCTIONS:
            tr.wrap(f"{mod}.{fn}", f"losses.{fn}")
            tr.wrap(f"{mod}.{fn}_grads", f"losses.{fn}_grads",
                    after=lambda a, k, r: _loss_grad_counts(tr, r))

    # optim
    tr.wrap("kgembed.train.optimizer_step", "optim.optimizer_step",
            before=add("optim.rows_updated", lambda a, k: _rows(a[2])))

    # evaluate: an evaluation call is one group
    for mod in ("kgembed.evaluate", "kgembed.train"):
        tr.wrap(f"{mod}.evaluate", "evaluate.evaluate", new_group=True)
    tr.wrap("kgembed.evaluate.ranks_for_queries", "evaluate.ranks_for_queries",
            before=add("evaluate.queries", lambda a, k: len(a[1])))

    # gnn
    tr.wrap("kgembed.gnn.rgcn_forward", "gnn.rgcn_forward")
    tr.wrap("kgembed.gnn.rgcn_backward", "gnn.rgcn_backward")
    tr.wrap("kgembed.train.rgcn_loss_and_grad", "gnn.rgcn_loss_and_grad")
    tr.wrap("kgembed.gnn.RGCNScorer.__init__", "gnn.RGCNScorer.encode")
    tr.wrap("kgembed.gnn.RGCNScorer.score_candidates", "gnn.RGCNScorer.score_candidates")

    # rules
    def soft_label_counts(a, k, r):
        tr.counters["rules.soft_labels"] += len(r.labels)
        tr.counters["rules.soft_labels_clipped"] += int(
            np.count_nonzero((r.labels == 0.0) | (r.labels == 1.0)))

    tr.wrap("kgembed.rules.predict_soft_labels", "rules.predict_soft_labels",
            before=add("rules.groundings_scanned", lambda a, k: len(a[1])),
            after=soft_label_counts)
    tr.wrap("kgembed.rules.ruge_grad", "rules.ruge_grad", after=touched)

    # checkpoint
    tr.wrap("kgembed.train.save_checkpoint", "checkpoint.save_checkpoint",
            after=add("checkpoint.bytes_written", lambda a, k, r: _dir_bytes(a[1])))


@contextmanager
def traced(tr: Tracer):
    """Install the kgembed wrappers for the duration of the block."""
    try:
        install_kgembed(tr)
        yield tr
    finally:
        tr.restore()


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run

_T, _E, _M, _G, _R = "kgembed.train.", "kgembed.evaluate.", "kgembed.models.", "kgembed.gnn.", "kgembed.rules."

_LOSSES = [f"{m}.{fn}" for m in LOSS_MODULES for fn in LOSS_FUNCTIONS]
_LOSS_GRADS = [f"{t}_grads" for t in _LOSSES]

# name -> (unit, targets of which at least one wrapper must be live (none:
# always reported), how to read it). ``b`` is busy time per span name,
# ``s`` self time, ``c`` the counters.
LAYER_METRICS = {
    "data.load_kg.busy_s": ("s", ["kgembed.data.load_kg"], lambda b, s, c: b["data.load_kg"]),
    "data.ground_rules.busy_s": ("s", ["kgembed.data.ground_rules"],
                                 lambda b, s, c: b["data.ground_rules"]),
    "evaluate.build_filter_sets.busy_s": ("s", [_E + "build_filter_sets"],
                                          lambda b, s, c: b["evaluate.build_filter_sets"]),
    "sampling.uniform_negatives.busy_s": ("s", [_T + "uniform_negatives"],
                                          lambda b, s, c: b["sampling.uniform_negatives"]),
    "sampling.negatives": ("count", [_T + "uniform_negatives", _T + "sample_graph", _T + "full_graph"],
                           lambda b, s, c: c["sampling.negatives"]),
    "sampling.fallback_frac": ("fraction", [_T + "uniform_negatives", _T + "sample_graph",
                                            _T + "full_graph"],
                               lambda b, s, c: _ratio(c["sampling.fallbacks"], c["sampling.negatives"])),
    "sampling.sample_graph.busy_s": ("s", [_T + "sample_graph"], lambda b, s, c: b["sampling.sample_graph"]),
    "sampling.mask_edges.busy_s": ("s", [_T + "mask_edges"], lambda b, s, c: b["sampling.mask_edges"]),
    "sampling.full_graph.busy_s": ("s", [_T + "full_graph"], lambda b, s, c: b["sampling.full_graph"]),
    "models.score.busy_s": ("s", [_M + "score"], lambda b, s, c: b["models.score"]),
    "models.grad.self_s": ("s", [_M + "grad"], lambda b, s, c: s["models.grad"]),
    "models.GradAccumulator.finalize.busy_s": ("s", [_M + "GradAccumulator.finalize"],
                                               lambda b, s, c: b["models.GradAccumulator.finalize"]),
    "models.grad.scattered_rows": ("count", [_M + "GradAccumulator.add"],
                                   lambda b, s, c: c["models.grad.scattered_rows"]),
    "models.grad.touched_rows": ("count", [_M + "grad", _R + "ruge_grad"],
                                 lambda b, s, c: c["models.grad.touched_rows"]),
    **{
        f"models.score_candidates.{m}.busy_s": ("s", [_M + "score_candidates"],
                                                lambda b, s, c, m=m: b[f"models.score_candidates.{m}"])
        for m in ("transe", "transh", "transr", "distmult", "complex", "rotate", "simple")
    },
    "gnn.RGCNScorer.score_candidates.busy_s": ("s", [_G + "RGCNScorer.score_candidates"],
                                               lambda b, s, c: b["gnn.RGCNScorer.score_candidates"]),
    "losses.busy_s": ("s", _LOSSES + _LOSS_GRADS,
                      lambda b, s, c: sum(v for k, v in b.items() if k.startswith("losses."))),
    "losses.coefficients": ("count", _LOSS_GRADS, lambda b, s, c: c["losses.coefficients"]),
    "losses.active_frac": ("fraction", _LOSS_GRADS,
                           lambda b, s, c: _ratio(c["losses.active"], c["losses.coefficients"])),
    "optim.optimizer_step.busy_s": ("s", [_T + "optimizer_step"],
                                    lambda b, s, c: b["optim.optimizer_step"]),
    "optim.rows_updated": ("count", [_T + "optimizer_step"], lambda b, s, c: c["optim.rows_updated"]),
    "evaluate.ranks_for_queries.self_s": ("s", [_E + "ranks_for_queries"],
                                          lambda b, s, c: s["evaluate.ranks_for_queries"]),
    "evaluate.queries": ("count", [_E + "ranks_for_queries"], lambda b, s, c: c["evaluate.queries"]),
    "gnn.rgcn_forward.busy_s": ("s", [_G + "rgcn_forward"], lambda b, s, c: b["gnn.rgcn_forward"]),
    "gnn.rgcn_backward.busy_s": ("s", [_G + "rgcn_backward"], lambda b, s, c: b["gnn.rgcn_backward"]),
    "gnn.rgcn_loss_and_grad.self_s": ("s", [_T + "rgcn_loss_and_grad"],
                                      lambda b, s, c: s["gnn.rgcn_loss_and_grad"]),
    "gnn.RGCNScorer.encode_s": ("s", [_G + "RGCNScorer.__init__"], lambda b, s, c: b["gnn.RGCNScorer.encode"]),
    "rules.predict_soft_labels.busy_s": ("s", [_R + "predict_soft_labels"],
                                         lambda b, s, c: b["rules.predict_soft_labels"]),
    "rules.groundings_scanned": ("count", [_R + "predict_soft_labels"],
                                 lambda b, s, c: c["rules.groundings_scanned"]),
    "rules.soft_labels": ("count", [_R + "predict_soft_labels"], lambda b, s, c: c["rules.soft_labels"]),
    "rules.soft_label_clip_frac": ("fraction", [_R + "predict_soft_labels"],
                                   lambda b, s, c: _ratio(c["rules.soft_labels_clipped"],
                                                          c["rules.soft_labels"])),
    "rules.ruge_grad.self_s": ("s", [_R + "ruge_grad"], lambda b, s, c: s["rules.ruge_grad"]),
    "checkpoint.save_checkpoint.busy_s": ("s", [_T + "save_checkpoint"],
                                          lambda b, s, c: b["checkpoint.save_checkpoint"]),
    "checkpoint.bytes_written": ("count", [_T + "save_checkpoint"],
                                 lambda b, s, c: c["checkpoint.bytes_written"]),
    "train.self_s": ("s", [], lambda b, s, c: s["train"]),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric whose wrappers were installed, as (value, unit)."""
    b, s, c = tr.busy(), tr.self_times(), tr.counters
    out = {}
    for name, (unit, targets, read) in LAYER_METRICS.items():
        if not targets or any(t in tr.installed for t in targets):
            out[name] = (float(read(b, s, c)), unit)
    return out
