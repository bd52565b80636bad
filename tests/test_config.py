import re
from dataclasses import fields

import pytest

from kgembed.config import (
    ConfigError,
    TrainConfig,
    build_train_config,
    config_hash,
    parse_config_file,
)


def write(tmp_path, text):
    p = tmp_path / "c.conf"
    p.write_text(text)
    return str(p)


def test_parse_scalars_and_comments(tmp_path):
    path = write(
        tmp_path,
        """
        # a comment
        model: transe
        dim: 64          # trailing comment
        lr: 0.001
        inverse_relations: true
        entity_renorm: auto
        dataset: data/toy
        """.replace("        ", ""),
    )
    doc = parse_config_file(path)
    assert doc == {
        "model": "transe",
        "dim": 64,
        "lr": 0.001,
        "inverse_relations": True,
        "entity_renorm": None,
        "dataset": "data/toy",
    }


@pytest.mark.parametrize(
    "text, expect",
    [("dataset: 007\n", ("007", {})), ("dataset: true\n", ("true", {})),
     ("dataset: [007, abc]\n", ("", {"dataset": ["007", "abc"]}))],
)
def test_config_file_keeps_str_fields_verbatim(tmp_path, text, expect):
    config, space = build_train_config(parse_config_file(write(tmp_path, text)), allow_lists=True)
    assert (config.dataset, space) == expect


def test_parse_lists(tmp_path):
    doc = parse_config_file(write(tmp_path, "lr: [0.1, 0.01]\ndim: [16, 32]\n"))
    assert doc["lr"] == [0.1, 0.01] and doc["dim"] == [16, 32]


def test_parse_rejects_bad_lines(tmp_path):
    with pytest.raises(ConfigError, match="key: value"):
        parse_config_file(write(tmp_path, "just some text\n"))
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_file(write(tmp_path, "lr: 0.1\nlr: 0.2\n"))
    with pytest.raises(ConfigError, match="unterminated"):
        parse_config_file(write(tmp_path, "lr: [0.1, 0.2\n"))
    with pytest.raises(ConfigError, match="empty list"):
        parse_config_file(write(tmp_path, "lr: []\n"))


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file("/nonexistent/path.conf")


def test_bytes_that_are_not_utf8_name_the_file_and_line(tmp_path):
    p = tmp_path / "bad.conf"
    p.write_bytes(b"model: transe\r\n# comment\ndataset: d\xff\n")
    with pytest.raises(ConfigError, match=r"bad\.conf:3: not UTF-8"):
        parse_config_file(str(p))


def test_build_rejects_unknown_key():
    with pytest.raises(ConfigError, match="learning_rate"):
        build_train_config({"learning_rate": 0.1})


def test_build_rejects_lists_unless_tuning():
    with pytest.raises(ConfigError, match="list"):
        build_train_config({"lr": [0.1, 0.2]})
    config, space = build_train_config({"lr": [0.1, 0.2]}, allow_lists=True)
    assert space == {"lr": [0.1, 0.2]}


def test_build_type_coercion():
    config, _ = build_train_config({"lr": 1})  # int promotes to float
    assert config.lr == 1.0
    with pytest.raises(ConfigError, match="dim"):
        build_train_config({"dim": 4.5})
    with pytest.raises(ConfigError, match="model"):
        build_train_config({"model": 7})
    with pytest.raises(ConfigError, match="inverse_relations"):
        build_train_config({"inverse_relations": "yes"})


def test_validation_names_field():
    with pytest.raises(ConfigError, match="'check_per_epoch'"):
        TrainConfig(check_per_epoch=0).validate()
    with pytest.raises(ConfigError, match="'limit_val_batches'"):
        TrainConfig(limit_val_batches=1.5).validate()
    with pytest.raises(ConfigError, match="'sampler'"):
        TrainConfig(sampler="lol").validate()


@pytest.mark.parametrize(
    "field, bad, expect",
    [
        ("adam_beta1", 1.0, "in [0, 1)"),
        ("adam_beta1", -0.1, "in [0, 1)"),
        ("adam_beta2", 1.0, "in [0, 1)"),
        ("adam_beta2", float("nan"), "in [0, 1)"),
        ("adam_eps", 0.0, "> 0"),
        ("adam_eps", -1e-8, "> 0"),
    ],
)
def test_adam_settings_outside_their_range_name_the_field(field, bad, expect):
    """beta 1 divides Adam's bias correction by zero; eps 0 divides by a zero second moment."""
    message = f"config field '{field}' must be {expect}, got {bad!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        TrainConfig(**{field: bad}).validate()
    TrainConfig(adam_beta1=0.0, adam_beta2=0.0, adam_eps=1e-12).validate()


@pytest.mark.parametrize("sampler", ["bern", "all"])
def test_rgcn_rejects_a_sampler_it_would_ignore(sampler):
    """RGCN training always draws uniform corruptions over its graph's nodes."""
    message = f"config field 'sampler' must be uniform or adv for model: rgcn, got '{sampler}'"
    with pytest.raises(ConfigError, match=message):
        TrainConfig(model="rgcn", loss="bce", sampler=sampler).validate()
    for ok in ("uniform", "adv"):
        TrainConfig(model="rgcn", loss="bce", sampler=ok).validate()


STR_FIELDS = [f.name for f in fields(TrainConfig) if f.type == "str"]


@pytest.mark.parametrize("line_break", ["\n", "\r"])
@pytest.mark.parametrize("field", STR_FIELDS)
def test_a_line_break_in_a_str_field_is_rejected_naming_it(field, line_break):
    """A checkpoint's meta holds one field per line, so its value must be one line."""
    value = getattr(TrainConfig(), field) + line_break + "x"
    with pytest.raises(ConfigError, match=f"config field '{field}' must be"):
        build_train_config({field: value})


def test_with_overrides_unknown_key():
    with pytest.raises(ConfigError, match="nope"):
        TrainConfig().with_overrides(nope=1)


def test_config_hash_sensitivity():
    a = TrainConfig(lr=0.01)
    b = TrainConfig(lr=0.02)
    assert config_hash(a) == config_hash(TrainConfig(lr=0.01))
    assert config_hash(a) != config_hash(b)


def test_renorm_default_by_model():
    assert TrainConfig(model="transe").renorm_enabled()
    assert TrainConfig(model="transh").renorm_enabled()
    assert not TrainConfig(model="distmult").renorm_enabled()
    assert not TrainConfig(model="transe", entity_renorm=False).renorm_enabled()
    assert TrainConfig(model="rotate", entity_renorm=True).renorm_enabled()


def test_rule_injection_rejects_label_smoothing():
    # the rule-injected loss is plain bce, so a smoothing would be silently dropped
    rule = TrainConfig(model="complex", loss="bce", rule_file="rules.tsv")
    rule.validate()
    TrainConfig(model="complex", loss="bce", label_smoothing=0.3).validate()
    with pytest.raises(ConfigError, match="rule injection requires label_smoothing: 0"):
        rule.with_overrides(label_smoothing=0.3).validate()
