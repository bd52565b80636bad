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
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, TrainConfig, config_hash, parse_field, serialize_value
from .data import read_text
from .gnn import RGCNLayerParams, RGCNModel, param_tables
from .models import ModelParams
from .optim import OptimizerState, init_optimizer

MAGIC = b"KGT1"
FORMAT_VERSION = 1


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


def _read_table(path: str, shape: tuple[int, ...], want_sha: str) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise CheckpointError(f"cannot read table file: {e}") from None
    if hashlib.sha256(blob).hexdigest() != want_sha:
        raise CheckpointError(f"checksum mismatch for {os.path.basename(path)}")
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise CheckpointError(f"bad table header in {os.path.basename(path)}")
    rows, cols, _ = np.frombuffer(blob[4:16], dtype="<u4")
    if (rows, cols) != (shape[0], int(np.prod(shape[1:], dtype=np.int64))):
        raise CheckpointError(
            f"{os.path.basename(path)} holds {rows}x{cols} values, meta says {_shape_str(shape)}"
        )
    data = np.frombuffer(blob[16:], dtype="<f4")
    if data.size != rows * cols:
        raise CheckpointError(f"table size mismatch in {os.path.basename(path)}")
    return data.reshape(shape).astype(np.float32)


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
        f"vocab.dataset: {ckpt.config.dataset}",
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
    for req in ("format", "epoch", "best_metric", "config_hash", "optimizer"):
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

    tables: dict[str, np.ndarray] = {}
    for key, value in meta.items():
        if key.startswith("table."):
            name = key[len("table."):]
            shape, sha = _parse_shape_sha(value)
            tables[name] = _read_table(
                os.path.join(directory, f"param__{name}.bin"), shape, sha
            )
    if not tables:
        raise CheckpointError("checkpoint has no parameter tables")

    params: ModelParams | RGCNModel
    version = _meta_number("params_version", meta.get("params_version", "0"), int)
    if config.model == "rgcn":
        acts = meta.get("rgcn.activations", "").split(",")
        layers = []
        for i in range(config.n_layers):
            try:
                layers.append(
                    RGCNLayerParams(
                        basis=tables[f"layer{i}.basis"],
                        coeff=tables[f"layer{i}.coeff"],
                        self_weight=tables[f"layer{i}.self"],
                        activation=acts[i],
                    )
                )
            except (KeyError, IndexError):
                raise CheckpointError(f"missing rgcn layer {i} tables") from None
        params = RGCNModel(
            entity_emb=tables["entity_emb"],
            layers=layers,
            rel_emb=tables["rel_emb"],
            version=version,
        )
    else:
        params = ModelParams(
            model=config.model,
            dim=config.dim,
            tables=tables,
            transe_p=config.transe_p,
            version=version,
        )

    for key, have in (("vocab.n_entities", params.n_entities), ("vocab.n_relations", params.n_relations)):
        if key in meta and _meta_number(key, meta[key], int) != have:
            raise CheckpointError(f"{key} is {meta[key]} but tables imply {have}")

    opt = init_optimizer(
        meta["optimizer"],
        param_tables(params),
        beta1=config.adam_beta1,
        beta2=config.adam_beta2,
        eps=config.adam_eps,
    )
    provided: set[tuple[str, str]] = set()
    for key, value in meta.items():
        if key.startswith("opt."):
            tname, _, sname = key[len("opt."):].rpartition(".")
            shape, sha = _parse_shape_sha(value)
            if tname not in opt.slots or sname not in opt.slots[tname]:
                raise CheckpointError(f"unexpected optimizer slot {key!r}")
            arr = _read_table(os.path.join(directory, f"opt__{tname}__{sname}.bin"), shape, sha)
            want = opt.slots[tname][sname].shape
            if shape != want:
                raise CheckpointError(
                    f"meta {key}: shape {_shape_str(shape)}, its table needs {_shape_str(want)}"
                )
            opt.slots[tname][sname] = arr
            provided.add((tname, sname))
    expected = {(t, s) for t, slots in opt.slots.items() for s in slots}
    if provided != expected:
        missing = sorted(expected - provided)
        raise CheckpointError(f"optimizer state incomplete, missing {missing[:3]!r}")

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
