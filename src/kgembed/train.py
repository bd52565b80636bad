"""The training loop: mini-batch updates, periodic validation, early stopping.

Every model family trains through one epoch loop, ``_epoch``: it takes the
``(loss, grads)`` of each batch from the family's generator, steps the
optimizer, counts the step in ``params.version`` and sums the loss.
``_ckge_batches`` draws the conventional models' (and RUGE's) batches and
applies their constraints; ``_rgcn_batches`` draws the RGCN's graphs.

Determinism contract: given (config, seed) the whole run is reproducible —
every RNG is derived from (seed, epoch, batch, purpose) so a resumed run
replays exactly the batches an uninterrupted run would have seen.
"""

from __future__ import annotations

import fcntl
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import models, rules
from .checkpoint import (Checkpoint, CheckpointError, checkpoint_path, init_state, load_checkpoint,
                         save_checkpoint)
from .config import ConfigError, TrainConfig, config_hash
from .data import TAIL, Groundings, IndexedKG, read_groundings
from .evaluate import CKGEScorer, RankingReport, build_filter_sets, evaluate
from .gnn import RGCNModel, RGCNScorer, param_tables, rgcn_loss_and_grad
from .losses import LossSpec
from .optim import NonFiniteGradientError, optimizer_step
from .sampling import (
    LabeledBatch,
    bern_negatives,
    bernoulli_table,
    full_graph,
    mask_edges,
    sample_graph,
    uniform_negatives,
)

# stream tags keep independent RNG purposes from colliding
_SHUFFLE, _SAMPLER, _RULE, _GRAPH, _DROPOUT = 0xA, 0xB, 0xC, 0xD, 0xE


@dataclass
class TrainResult:
    best: Checkpoint  # highest validation MRR seen
    last: Checkpoint  # final state, the resume point
    log: list[str]
    history: list[tuple[int, float]]


def early_stop(history: list[tuple[int, float]], patience: int) -> bool:
    """Stop iff the last ``patience`` evaluations each failed to beat the
    best metric recorded before them; an improvement resets the count."""
    if patience < 1:
        raise ValueError(f"patience must be >= 1, got {patience}")
    best = -math.inf
    failed = []
    for _, metric in history:
        failed.append(metric <= best)
        best = max(best, metric)
    run = 0
    for flag in reversed(failed):
        if not flag:
            break
        run += 1
    return run >= patience


def _stream(config: TrainConfig, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((config.seed,) + key)


def _check_size(params, kg: IndexedKG, error=ValueError) -> None:
    """Raise ``error`` unless ``params`` were built for ``kg``'s entity and relation counts."""
    have, want = (params.n_entities, params.n_relations), (kg.n_entities, kg.n_relations)
    if have != want:
        raise error(f"parameters for {have[0]} entities and {have[1]} relations; "
                    f"the KG has {want[0]} entities and {want[1]} relations")


def make_scorer(params, kg: IndexedKG):
    _check_size(params, kg)
    if isinstance(params, RGCNModel):
        return RGCNScorer(params, full_graph(kg, n_neg=0))
    return CKGEScorer(params)


def train(
    config: TrainConfig,
    kg: IndexedKG,
    groundings: Groundings | None = None,
    run_dir: str | None = None,
    resume: bool = False,
) -> TrainResult:
    """Run the configured training, returning best/last checkpoints and the log.

    ``run_dir`` (optional) receives ``last/`` and ``best/`` checkpoint
    directories at every evaluation point plus a ``train.log`` file.
    ``resume=True`` loads ``run_dir/last`` and continues its epoch count;
    the stored config hash must match ``config``. ``train.log`` drops the
    lines of epochs after the checkpoint's, which the resumed run writes
    again. A run that had stopped early is returned as loaded, with
    nothing trained or written.

    One process owns ``run_dir`` for the run: it holds an exclusive
    ``flock`` on the directory, and a second run on it, in this or any
    other process, fails at once with a ``BlockingIOError`` naming it.
    """
    config.validate()
    if run_dir is None or (resume and not os.path.isdir(run_dir)):  # no run to lock; a resume fails
        return _train(config, kg, groundings, run_dir, resume)
    created = not os.path.isdir(run_dir)
    os.makedirs(run_dir, exist_ok=True)
    fd = os.open(run_dir, os.O_RDONLY)  # the directory itself: a lock file would be a run file
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise BlockingIOError(f"run directory {run_dir} is in use by another run") from None
        try:
            return _train(config, kg, groundings, run_dir, resume)
        except BaseException:
            if created and not os.listdir(run_dir):  # a fresh run that wrote nothing leaves no directory
                os.rmdir(run_dir)
            raise
    finally:
        os.close(fd)  # releases the lock


def _train(config, kg, groundings, run_dir, resume) -> TrainResult:
    if config.rule_file and groundings is None:
        groundings = read_groundings(config.rule_file, kg)

    history: list[tuple[int, float]] = []
    best_metric = -math.inf
    start_epoch = 0
    if resume:
        if run_dir is None:
            raise ConfigError("resume requires a run directory")
        last = load_checkpoint(os.path.join(run_dir, "last"))
        if last.config_hash != config_hash(config):
            raise ConfigError("checkpoint config does not match the requested config")
        _check_size(last.params, kg, CheckpointError)
        params = last.params
        opt = last.opt_state
        start_epoch = last.epoch
        history = list(last.history)
        best_path = checkpoint_path(os.path.join(run_dir, "best"))
        best_ckpt = load_checkpoint(best_path) if os.path.exists(best_path) else None
        if early_stop(history, config.patience):  # the run had finished: leave it as it is
            return TrainResult(best=best_ckpt or last, last=last, log=[], history=history)
        if best_ckpt is not None and math.isfinite(best_ckpt.best_metric):
            best_metric = best_ckpt.best_metric
        elif history:
            best_metric = max(m for _, m in history)
        _drop_log_after(os.path.join(run_dir, "train.log"), start_epoch)
    else:
        params, opt = init_state(config, kg.n_entities, kg.n_relations)
        best_ckpt = None

    batches = _batch_source(config, kg, params, groundings)
    filters = build_filter_sets(kg) if len(kg.valid) else None
    log: list[str] = []

    def emit(epoch: int, split: str, metric: str, value: float) -> None:
        line = f"{epoch}\t{split}\t{metric}\t{value:.6g}"
        log.append(line)
        if run_dir is not None:
            with open(os.path.join(run_dir, "train.log"), "a", encoding="utf-8") as fh:
                fh.write(line + "\n")

    def snapshot(epoch: int, metric: float, final: bool) -> Checkpoint:
        """The run's state; a ``final`` one (nothing trains after it) holds the live tables."""
        return Checkpoint(
            params=params if final else params.copy(),
            opt_state=opt if final else opt.copy(),
            epoch=epoch,
            best_metric=metric,
            config=config,
            history=list(history),
        )

    current_epoch = start_epoch
    saved_last = saved_best = None  # the checkpoints this run wrote to last/ and best/
    for epoch in range(start_epoch + 1, config.max_epochs + 1):
        emit(epoch, "train", "loss", _epoch(config, params, opt, epoch, batches(epoch)))
        current_epoch = epoch

        if epoch % config.check_per_epoch == 0 and filters is not None:
            report = evaluate(
                make_scorer(params, kg),
                kg,
                "valid",
                filters,
                limit_fraction=config.limit_val_batches,
                seed=config.seed,
                threads=config.threads,
            )
            emit(epoch, "valid", "mrr", report.mrr)
            for k in (1, 3, 10):
                emit(epoch, "valid", f"hits@{k}", report.hits(k))
            history.append((epoch, report.mrr))
            stop = early_stop(history, config.patience)
            final = stop or epoch == config.max_epochs
            if report.mrr > best_metric:
                best_metric = report.mrr
                best_ckpt = snapshot(epoch, best_metric, final)
                if run_dir is not None:
                    save_checkpoint(best_ckpt, os.path.join(run_dir, "best"))
                    saved_best = best_ckpt
            if run_dir is not None:
                # a best snapshot taken this epoch is this state too
                fresh = best_ckpt is not None and best_ckpt.epoch == epoch
                saved_last = best_ckpt if fresh else snapshot(epoch, best_metric, final)
                save_checkpoint(saved_last, os.path.join(run_dir, "last"))
            if stop:
                emit(epoch, "valid", "early_stop", 1.0)
                break

    final_metric = best_metric if math.isfinite(best_metric) else math.nan
    # the loop's last save holds this state unless training went on after it or the metric differs
    last_ckpt = saved_last
    stale = last_ckpt is None or last_ckpt.epoch != current_epoch
    if stale or last_ckpt.best_metric != final_metric:
        last_ckpt = snapshot(current_epoch, final_metric, final=True)
    if best_ckpt is None:
        best_ckpt = last_ckpt
    if run_dir is not None:
        if last_ckpt is not saved_last:
            save_checkpoint(last_ckpt, os.path.join(run_dir, "last"))
        if best_ckpt is not saved_best:  # a loaded one is written too: it may be at best.old
            save_checkpoint(best_ckpt, os.path.join(run_dir, "best"))
    return TrainResult(best=best_ckpt, last=last_ckpt, log=log, history=history)


def _drop_log_after(path: str, epoch: int) -> None:
    """Cut the log back to its whole lines of epochs up to ``epoch``; a resume rewrites the rest."""
    if not os.path.exists(path):
        return
    keep = 0
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.endswith(b"\n"):
                break
            field = line.split(b"\t", 1)[0]
            if not field.isdigit():  # the log's epochs are written as ASCII digits
                text = field.decode(errors="replace")
                raise CheckpointError(f"{path}:{lineno}: epoch {text!r} is not an integer")
            if int(field) > epoch:
                break
            keep += len(line)
    os.truncate(path, keep)


def _batch_source(config, kg, params, groundings):
    """The run's batches: a function from an epoch to its generator of ``(loss, grads)``."""
    spec = LossSpec(kind=config.loss, margin=config.margin, adv_temperature=config.adv_temperature,
                    label_smoothing=config.label_smoothing)
    if isinstance(params, RGCNModel):
        return functools.partial(_rgcn_batches, config, kg, params, spec)
    bern = bernoulli_table(kg) if config.sampler == "bern" else None
    pool = rules.unlabeled_conclusions(groundings) if config.rule_file else None  # once per run
    return functools.partial(_ckge_batches, config, kg, params, spec, bern, groundings, pool)


def _epoch(config, params, opt, epoch: int, batches) -> float:
    """Step the optimizer on each ``(loss, grads)`` that ``batches`` yields; the mean loss.

    A non-finite gradient or loss stops the run, naming the epoch, batch and model. The loss
    is checked after the step: a loss may drop a non-finite pair (a zero margin coefficient)
    whose gradient rows stay finite. Each gradient is dropped before the next batch is drawn.
    """
    tables = param_tables(params)
    total, bi = 0.0, 0
    for loss, grads in batches:  # not enumerate: its reused result tuple would hold grads
        where = f"epoch {epoch}, batch {bi}, model {config.model}"
        try:
            optimizer_step(opt, tables, grads, config.lr)
        except NonFiniteGradientError as err:
            raise NonFiniteGradientError(f"{where}: {err}") from err
        del grads
        if not math.isfinite(loss):
            raise ValueError(f"{where}: non-finite training loss {loss!r}")
        params.version += 1
        total += loss
        bi += 1
    return total / max(bi, 1)


def _ckge_batches(config, kg, params, spec, bern, groundings, pool, epoch: int):
    """A conventional model's (or RUGE's) epoch of batches, with the model's constraints:
    entity renorm before the first batch, the TransH normals after each step."""
    if config.renorm_enabled():
        models.renormalize_entities(params)
    rng = np.random.default_rng(_stream(config, epoch, 0, _SHUFFLE))
    perm = rng.permutation(len(kg.train))
    for bi, lo in enumerate(range(0, len(perm), config.batch_size)):
        positives = kg.train[perm[lo : lo + config.batch_size]]
        seed = _stream(config, epoch, bi, _SAMPLER)
        if config.sampler == "all":  # 1-vs-all: each tail over every entity, labeled by train
            labels = np.zeros((len(positives), kg.n_entities))
            labels[kg.train_index.completions(positives, TAIL)] = 1.0
            batch = LabeledBatch(positives, labels)
        elif config.sampler == "bern":
            batch = bern_negatives(kg, positives, config.n_neg, bern, seed)
        else:  # uniform and adv share uniform candidate generation
            batch = uniform_negatives(kg, positives, config.n_neg, seed)

        if pool is not None:
            rule_rng = np.random.default_rng(_stream(config, epoch, bi, _RULE))
            take = config.rule_batch or config.batch_size
            if len(pool) > take:
                subset = pool[rule_rng.choice(len(pool), size=take, replace=False)]
            else:
                subset = pool
            soft = rules.predict_soft_labels(params, groundings, config.rule_weight, pool=subset)
            yield rules.ruge_grad(params, batch, soft)
        else:
            yield models.grad(params, batch, spec)
        del batch  # freed before the next batch is drawn
        models.renormalize_normals(params)


def _rgcn_batches(config, kg, params, spec, epoch: int):
    """An RGCN epoch: the full graph in one batch, or sampled subgraphs past the threshold."""
    n_train = len(kg.train)
    steps = 1 if n_train <= config.full_graph_threshold else math.ceil(n_train / config.graph_batch_edges)
    for bi in range(steps):
        seed = _stream(config, epoch, bi, _GRAPH)
        if steps == 1:
            graph = full_graph(kg, n_neg=config.n_neg, seed=seed)
        else:
            graph = sample_graph(kg, config.graph_batch_edges, config.n_neg, seed)
        msg_graph = None
        if config.edge_dropout > 0:
            msg_graph = mask_edges(graph, config.edge_dropout, _stream(config, epoch, bi, _DROPOUT))
        yield rgcn_loss_and_grad(params, graph, msg_graph, spec)
        del graph, msg_graph


def final_report(
    result_params, kg: IndexedKG, split: str = "test", threads: int = 1
) -> RankingReport:
    """Full-split filtered evaluation of trained parameters."""
    return evaluate(make_scorer(result_params, kg), kg, split, build_filter_sets(kg), threads=threads)
