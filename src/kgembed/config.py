"""Training configuration and the flat key-value config file format.

Config files are a strict subset of YAML scalars: ``key: value`` lines,
``#`` comments, and bracketed lists (``lr: [0.1, 0.01]``) which declare
hyperparameter search spaces. Unknown keys are rejected so typos fail
loudly instead of silently training the wrong thing.
"""

from __future__ import annotations

import hashlib
import numbers
from dataclasses import dataclass, fields, replace

from .data import read_text
from .losses import LOSS_KINDS
from .models import MODEL_KINDS
from .optim import OPTIMIZER_KINDS

SAMPLER_KINDS = ("uniform", "bern", "adv", "all")


class ConfigError(ValueError):
    """Invalid configuration value or file; message names the key."""


@dataclass(frozen=True)
class TrainConfig:
    """Everything that determines a training run, seed included.

    ``check_per_epoch`` is the evaluation period in epochs;
    ``limit_val_batches`` evaluates only that fraction of the valid split
    during training (final test evaluation always uses the full split).
    ``entity_renorm`` None picks the model default (on for transe/transh).
    """

    model: str = "transe"
    dataset: str = ""
    dim: int = 64
    lr: float = 0.01
    optimizer: str = "adam"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    loss: str = "margin"
    margin: float = 1.0
    adv_temperature: float = 1.0
    label_smoothing: float = 0.0
    sampler: str = "uniform"
    n_neg: int = 8
    batch_size: int = 128
    max_epochs: int = 100
    check_per_epoch: int = 10
    limit_val_batches: float = 1.0
    patience: int = 3
    seed: int = 0
    rule_file: str = ""
    rule_weight: float = 0.5
    rule_batch: int = 0
    inverse_relations: bool = False
    transe_p: int = 1
    entity_renorm: bool | None = None
    n_bases: int = 4
    n_layers: int = 2
    graph_batch_edges: int = 30000
    full_graph_threshold: int = 50000
    edge_dropout: float = 0.2
    threads: int = 1

    def __post_init__(self) -> None:
        # one type rule however the config is built: in code, from a file or from meta
        for f in fields(self):
            object.__setattr__(self, f.name, _coerce(f.name, f.type, getattr(self, f.name)))

    def validate(self) -> None:
        checks = [
            (self.model in MODEL_KINDS + ("rgcn",), "model", f"one of {MODEL_KINDS + ('rgcn',)}"),
            (self.dim >= 1, "dim", ">= 1"),
            (self.lr > 0, "lr", "> 0"),
            (self.optimizer in OPTIMIZER_KINDS, "optimizer", f"one of {OPTIMIZER_KINDS}"),
            (0 <= self.adam_beta1 < 1, "adam_beta1", "in [0, 1)"),
            (0 <= self.adam_beta2 < 1, "adam_beta2", "in [0, 1)"),
            (self.adam_eps > 0, "adam_eps", "> 0"),
            (self.loss in LOSS_KINDS, "loss", f"one of {LOSS_KINDS}"),
            (self.margin >= 0, "margin", ">= 0"),
            (self.adv_temperature > 0, "adv_temperature", "> 0"),
            (0 <= self.label_smoothing < 1, "label_smoothing", "in [0, 1)"),
            (self.sampler in SAMPLER_KINDS, "sampler", f"one of {SAMPLER_KINDS}"),
            # RGCN training always draws uniform corruptions over its graph's nodes
            (self.model != "rgcn" or self.sampler in ("uniform", "adv"), "sampler",
             "uniform or adv for model: rgcn"),
            (self.n_neg >= 1, "n_neg", ">= 1"),
            (self.batch_size >= 1, "batch_size", ">= 1"),
            (self.max_epochs >= 0, "max_epochs", ">= 0"),
            (self.check_per_epoch >= 1, "check_per_epoch", ">= 1"),
            (0 < self.limit_val_batches <= 1, "limit_val_batches", "in (0, 1]"),
            (self.patience >= 1, "patience", ">= 1"),
            (self.rule_weight >= 0, "rule_weight", ">= 0"),
            (self.rule_batch >= 0, "rule_batch", ">= 0"),
            (self.transe_p in (1, 2), "transe_p", "1 or 2"),
            (self.n_bases >= 1, "n_bases", ">= 1"),
            (self.n_layers >= 1, "n_layers", ">= 1"),
            (self.graph_batch_edges >= 1, "graph_batch_edges", ">= 1"),
            (0 <= self.edge_dropout < 1, "edge_dropout", "in [0, 1)"),
            (self.threads >= 1, "threads", ">= 1"),
        ]
        # a line break would split the field's line in a checkpoint's meta file
        checks += [(not {"\n", "\r"} & set(str(getattr(self, f.name))), f.name, "one line")
                   for f in fields(self) if f.type == "str"]
        for ok, key, expect in checks:
            if not ok:
                raise ConfigError(f"config field {key!r} must be {expect}, got {getattr(self, key)!r}")
        if self.rule_file and self.model != "complex":
            raise ConfigError("rule injection requires model: complex")
        if self.rule_file and self.loss != "bce":
            raise ConfigError("rule injection requires loss: bce")
        if self.rule_file and self.label_smoothing != 0:
            raise ConfigError("rule injection requires label_smoothing: 0")
        if self.sampler == "all" and self.loss != "bce":
            raise ConfigError("the all sampler requires loss: bce")

    def renorm_enabled(self) -> bool:
        if self.entity_renorm is not None:
            return self.entity_renorm
        return self.model in ("transe", "transh")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def with_overrides(self, **kv) -> "TrainConfig":
        unknown = set(kv) - {f.name for f in fields(self)}
        if unknown:
            raise ConfigError(f"unknown config key: {sorted(unknown)[0]!r}")
        return replace(self, **kv)


def config_hash(config: TrainConfig) -> str:
    text = "\n".join(f"{k}={serialize_value(v)}" for k, v in sorted(config.to_dict().items()))
    return hashlib.sha256(text.encode()).hexdigest()


def serialize_value(v) -> str:
    if v is None:
        return "auto"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def parse_scalar(text: str):
    """Best-effort scalar: bool, int, float, else raw string."""
    s = text.strip()
    low = s.lower()
    if low in ("true", "false"):
        return low == "true"
    if low == "auto":
        return None
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        pass
    return s


def parse_field(key: str, text: str):
    """Parse one serialized TrainConfig value by the field's declared type.

    Strings stay verbatim (a dataset named ``007`` or ``true`` is not a
    number or a bool); other types take ``parse_scalar``. The value is
    type-checked as a config holding it, so a bad one raises here.
    """
    str_keys = {f.name for f in fields(TrainConfig) if f.type == "str"}
    value = text if key in str_keys else parse_scalar(text)
    return getattr(TrainConfig().with_overrides(**{key: value}), key)


def parse_config_file(path: str) -> dict:
    """Read ``key: value`` lines; bracketed values parse to lists of scalars.

    Values of ``str``-typed TrainConfig fields, list items included, stay
    verbatim (``dataset: 007`` names a dataset, not the number 7). Bytes
    that are not UTF-8 raise :class:`ConfigError` naming ``path:lineno``.
    """
    str_keys = {f.name for f in fields(TrainConfig) if f.type == "str"}
    out: dict = {}
    try:
        text = read_text(path, ConfigError)
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key: value'")
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: expected 'key: value'")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        if value.startswith("["):
            if not value.endswith("]"):
                raise ConfigError(f"{path}:{lineno}: unterminated list for key {key!r}")
            items = [x.strip() for x in value[1:-1].split(",") if x.strip()]
            if not items:
                raise ConfigError(f"{path}:{lineno}: empty list for key {key!r}")
            out[key] = items if key in str_keys else [parse_scalar(x) for x in items]
        else:
            out[key] = value if key in str_keys else parse_scalar(value)
    return out


def build_train_config(doc: dict, allow_lists: bool = False) -> tuple[TrainConfig, dict]:
    """Turn a parsed config document into a TrainConfig (+ search lists).

    List values are only legal when ``allow_lists`` (the tune command);
    they are returned separately as the search space.
    """
    lists = {key: value for key, value in doc.items() if isinstance(value, list)}
    if lists and not allow_lists:
        key = next(iter(lists))
        raise ConfigError(f"config key {key!r} has a list value; lists are for tuning")
    config = TrainConfig().with_overrides(**{k: v for k, v in doc.items() if k not in lists})
    # each list value is type-checked now, as the trial config that will hold it
    space = {key: [getattr(config.with_overrides(**{key: v}), key) for v in values]
             for key, values in lists.items()}
    config.validate()
    return config, space


# each field type's accepted values; an int field stores int(value), a float field float(value)
_TYPES = {
    "str": str,
    "int": numbers.Integral,
    "float": (numbers.Integral, float),
    "bool": bool,
    "bool | None": (bool, type(None)),
}


def _coerce(key: str, ftype: str, value):
    """``value`` as field ``key`` of type ``ftype`` stores it; a bool is no number."""
    number = ftype in ("int", "float")
    if not isinstance(value, _TYPES[ftype]) or (number and isinstance(value, bool)):
        expect = "true/false/auto" if ftype == "bool | None" else ftype
        raise ConfigError(f"config key {key!r} expects {expect}, got {value!r}")
    return int(value) if ftype == "int" else float(value) if ftype == "float" else value
