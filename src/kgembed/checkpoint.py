"""Checkpoint directories: run state that round-trips bitwise.

Layout: a ``meta`` text file plus one binary file per parameter table and
per optimizer slot. Binary format: 16-byte header (magic ``KGT1``,
little-endian uint32 rows, cols, reserved zero) followed by row-major
little-endian float32 data; arrays with more than two axes store
rows = shape[0], cols = prod(rest), with the true shape kept in meta.
The sha256 of every binary file is recorded in meta and checked on load,
so a corrupted table fails loudly instead of resuming from garbage. meta
itself is not hashed: only its ``config.*`` lines are guarded, by
``config_hash``; a repeated key is rejected.

A fresh run and a loaded checkpoint get their state from one constructor,
:func:`init_state`. Loading validates meta's config and builds that
config's state for meta's vocab counts in its shapes-only form, which
draws and allocates nothing: meta must list exactly the state's parameter
tables and optimizer slots, and each file's header must hold the shape
that meta gives it and the config gives it, before any array is
allocated (meta's vocab counts are not hashed). The state is then
allocated, never drawn, and filled in place; an RGCN's layer activations
must be as they are built.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

from . import gnn, models
from .config import ConfigError, TrainConfig, config_hash, parse_field, serialize_value
from .data import read_text
from .gnn import RGCNModel, param_tables
from .models import ModelParams
from .optim import OptimizerState, init_optimizer

MAGIC = b"KGT1"
FORMAT_VERSION = 1
_VOCAB = ("vocab.n_entities", "vocab.n_relations")


class CheckpointError(ValueError):
    """Unreadable, inconsistent, or corrupted checkpoint directory."""


@dataclass
class Checkpoint:
    """A full training snapshot: parameters, optimizer state, progress."""

    params: ModelParams | RGCNModel
    opt_state: OptimizerState
    epoch: int
    best_metric: float
    config: TrainConfig
    history: list[tuple[int, float]]

    @property
    def config_hash(self) -> str:
        return config_hash(self.config)


def _write_table(path: str, arr: np.ndarray) -> str:
    rows = arr.shape[0] if arr.ndim else 1
    cols = int(np.prod(arr.shape[1:], dtype=np.int64)) if arr.ndim > 1 else 1
    header = MAGIC + np.array([rows, cols, 0], dtype="<u4").tobytes()
    data = np.ascontiguousarray(arr, dtype="<f4").reshape(-1)  # written and hashed with no copy
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)
    sha = hashlib.sha256(header)
    sha.update(data)
    return sha.hexdigest()


def _read_header(path: str) -> tuple[int, int]:
    """The rows and cols that a table file's 16-byte header gives."""
    try:
        with open(path, "rb") as fh:
            header = fh.read(16)
    except OSError as e:
        raise CheckpointError(f"cannot read table file: {e}") from None
    if len(header) < 16 or header[:4] != MAGIC:
        raise CheckpointError(f"bad table header in {os.path.basename(path)}")
    rows, cols, _ = np.frombuffer(header[4:], dtype="<u4")
    return int(rows), int(cols)


def _read_table(path: str, shape: tuple[int, ...], want_sha: str) -> np.ndarray:
    """The values of a table file whose header holds ``shape``, checked against its sha256."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise CheckpointError(f"cannot read table file: {e}") from None
    if hashlib.sha256(blob).hexdigest() != want_sha:
        raise CheckpointError(f"checksum mismatch for {os.path.basename(path)}")
    data = np.frombuffer(blob[16:], dtype="<f4")
    if data.size != math.prod(shape):
        raise CheckpointError(f"table size mismatch in {os.path.basename(path)}")
    return data.reshape(shape)  # read-only: the loader copies it into its state


def init_state(
    config: TrainConfig, n_entities: int, n_relations: int, shapes_only: bool = False
) -> tuple[ModelParams | RGCNModel, OptimizerState]:
    """The config's parameters and optimizer state: a fresh run's, drawn from ``config.seed``.

    With ``shapes_only`` every array is a read-only zero-stride view of its
    shape, so nothing is drawn and no array memory is allocated.
    """
    if config.model == "rgcn":
        params = gnn.init_rgcn(n_entities, n_relations, config.dim, config.n_bases, config.n_layers,
                               seed=config.seed, shapes_only=shapes_only)
    else:
        params = models.init_params(config.model, n_entities, n_relations, config.dim,
                                    seed=config.seed, shapes_only=shapes_only)
        params.transe_p = config.transe_p
    opt = init_optimizer(config.optimizer, param_tables(params), config.adam_beta1,
                         config.adam_beta2, config.adam_eps, shapes_only=shapes_only)
    return params, opt


def checkpoint_path(directory: str) -> str:
    """``directory``, or ``<directory>.old`` if only it exists: a save stopped between renames."""
    directory = os.path.normpath(directory)
    old = directory + ".old"
    return old if not os.path.exists(directory) and os.path.isdir(old) else directory


def save_checkpoint(ckpt: Checkpoint, directory: str) -> None:
    """Write the checkpoint; the directory is created if needed.

    The files go into the sibling ``<directory>.tmp``, which takes the
    directory's place once all are written. On a failure only that
    temporary directory is removed, so the previous checkpoint stays.
    """
    directory = os.path.normpath(directory)
    tmp, old = directory + ".tmp", directory + ".old"
    if checkpoint_path(directory) == old:  # put the previous checkpoint back first
        os.replace(old, directory)
    params = ckpt.params
    lines = [
        f"format: {FORMAT_VERSION}",
        f"epoch: {ckpt.epoch}",
        f"best_metric: {serialize_value(float(ckpt.best_metric))}",
        f"config_hash: {ckpt.config_hash}",
        f"params_version: {params.version}",
        f"history: {';'.join(f'{e},{serialize_value(float(m))}' for e, m in ckpt.history)}",
        f"vocab.n_entities: {params.n_entities}",
        f"vocab.n_relations: {params.n_relations}",
    ]
    for key, value in ckpt.config.to_dict().items():
        lines.append(f"config.{key}: {serialize_value(value)}")
    if isinstance(params, RGCNModel):
        lines.append(f"rgcn.activations: {','.join(l.activation for l in params.layers)}")

    os.makedirs(directory, exist_ok=True)
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        for name, arr in param_tables(params).items():
            sha = _write_table(os.path.join(tmp, f"param__{name}.bin"), arr)
            lines.append(f"table.{name}: {_shape_str(arr.shape)} {sha}")
        lines.append(f"optimizer: {ckpt.opt_state.kind}")
        for tname, slots in ckpt.opt_state.slots.items():
            for sname, arr in slots.items():
                sha = _write_table(os.path.join(tmp, f"opt__{tname}__{sname}.bin"), arr)
                lines.append(f"opt.{tname}.{sname}: {_shape_str(arr.shape)} {sha}")
        with open(os.path.join(tmp, "meta"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        shutil.rmtree(old, ignore_errors=True)
        os.replace(directory, old)
        os.replace(tmp, directory)
    except BaseException:
        if not os.path.exists(directory):
            os.replace(old, directory)
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    shutil.rmtree(old, ignore_errors=True)


def load_checkpoint(directory: str) -> Checkpoint:
    """Read the checkpoint at ``checkpoint_path(directory)``, verifying checksums and shapes."""
    directory = checkpoint_path(directory)
    meta_path = os.path.join(directory, "meta")
    if not os.path.exists(meta_path):
        raise CheckpointError(f"no checkpoint at {directory} (missing meta)")
    meta: dict[str, str] = {}
    for lineno, line in enumerate(read_text(meta_path, CheckpointError, "meta").split("\n"), 1):
        if not line:
            continue
        if ": " not in line:
            raise CheckpointError(f"meta:{lineno}: malformed line")
        key, _, value = line.partition(": ")
        if key in meta:
            raise CheckpointError(f"meta:{lineno}: duplicate key {key!r}")
        meta[key] = value
    for req in ("format", "epoch", "best_metric", "config_hash", "optimizer") + _VOCAB:
        if req not in meta:
            raise CheckpointError(f"meta missing key {req!r}")
    if meta["format"] != str(FORMAT_VERSION):
        raise CheckpointError(f"unsupported checkpoint format {meta['format']!r}")

    config_kv = {}
    for key, value in meta.items():
        if key.startswith("config."):
            name = key[len("config."):]
            try:
                config_kv[name] = parse_field(name, value)
            except ConfigError as e:
                raise CheckpointError(f"meta {key}: {e}") from None
    config = TrainConfig(**config_kv)
    if config_hash(config) != meta["config_hash"]:
        raise CheckpointError("config hash does not match the stored config")

    n_entities, n_relations = (_meta_number(k, meta[k], int) for k in _VOCAB)
    try:
        config.validate()
        params, opt = init_state(config, n_entities, n_relations, shapes_only=True)
    except ValueError as e:
        raise CheckpointError(f"meta: {e}") from None
    if meta["optimizer"] != opt.kind:
        raise CheckpointError(f"meta optimizer: {meta['optimizer']!r}, its config has {opt.kind!r}")

    arrays = _arrays(params, opt)
    listed = {key for key in meta if key.startswith(("table.", "opt."))}
    if listed != arrays.keys():
        raise CheckpointError(
            f"meta's arrays are incomplete or unexpected for its config: missing "
            f"{sorted(arrays.keys() - listed)}, unexpected {sorted(listed - arrays.keys())}"
        )
    # every file's header against meta, and meta against the config's shape, before any
    # array is allocated: meta's vocab counts are not hashed
    files = {}
    for key, (name, want) in arrays.items():
        shape, sha = _parse_shape_sha(meta[key])
        path = os.path.join(directory, name)
        rows, cols = _read_header(path)
        if (rows, cols) != (shape[0], math.prod(shape[1:])):
            raise CheckpointError(f"{name} holds {rows}x{cols} values, meta says {_shape_str(shape)}")
        if shape != want.shape:
            raise CheckpointError(
                f"meta {key}: shape {_shape_str(shape)}, its table needs {_shape_str(want.shape)} "
                f"(vocab.n_entities {n_entities}, vocab.n_relations {n_relations})"
            )
        files[key] = (path, shape, sha)
    params, opt = params.copy(_empty), opt.copy(_empty)  # filled below
    params.version = _meta_number("params_version", meta.get("params_version", "0"), int)
    for key, (_, array) in _arrays(params, opt).items():
        array[...] = _read_table(*files[key])
    acts = ",".join(layer.activation for layer in getattr(params, "layers", ()))
    if meta.get("rgcn.activations", "") != acts:
        got = meta.get("rgcn.activations")
        raise CheckpointError(f"meta rgcn.activations: {got!r}, its config builds {acts!r}")

    history = []
    for item in meta.get("history", "").split(";"):
        if item:
            e, _, m = item.partition(",")
            history.append((_meta_number("history", e, int), _meta_number("history", m, float)))
    return Checkpoint(
        params=params,
        opt_state=opt,
        epoch=_meta_number("epoch", meta["epoch"], int),
        best_metric=_meta_number("best_metric", meta["best_metric"], float),
        config=config,
        history=history,
    )


def _empty(array: np.ndarray) -> np.ndarray:
    """A C-ordered array of ``array``'s shape and dtype, allocated and not written."""
    return np.empty(array.shape, array.dtype)


def _arrays(params, opt: OptimizerState) -> dict[str, tuple[str, np.ndarray]]:
    """meta key -> (file, the state's array that the file fills)."""
    arrays = {f"table.{n}": (f"param__{n}.bin", a) for n, a in param_tables(params).items()}
    for t, slots in opt.slots.items():
        arrays.update({f"opt.{t}.{s}": (f"opt__{t}__{s}.bin", a) for s, a in slots.items()})
    return arrays


def _meta_number(key: str, text: str, kind):
    """``kind(text)`` for a number read from meta ``key``; a bad value names the key."""
    try:
        return kind(text)
    except ValueError:
        raise CheckpointError(f"meta {key}: {text!r} is not a valid {kind.__name__}") from None


def _shape_str(shape: tuple[int, ...]) -> str:
    return "x".join(str(s) for s in shape)


def _parse_shape_sha(value: str) -> tuple[tuple[int, ...], str]:
    try:
        shape_s, sha = value.split(" ")
        shape = tuple(int(x) for x in shape_s.split("x"))
    except ValueError:
        raise CheckpointError(f"malformed table entry: {value!r}") from None
    return shape, sha
