import importlib
import os
import re

import numpy as np
import pytest

import kgembed.gnn
import kgembed.models
import kgembed.rules
from kgembed.checkpoint import CheckpointError
from kgembed.config import ConfigError, TrainConfig
from kgembed.data import Rule, ground_rules, write_groundings
from kgembed.optim import NonFiniteGradientError
from kgembed.train import early_stop, final_report, train

from conftest import make_kg, rule_groundings

# the module; the package exports its ``train`` function under the same name
train_module = importlib.import_module("kgembed.train")


def tiny_config(**kv):
    base = dict(
        model="distmult",
        dim=8,
        lr=0.05,
        optimizer="adam",
        loss="margin",
        margin=1.0,
        sampler="uniform",
        n_neg=2,
        batch_size=8,
        max_epochs=3,
        check_per_epoch=2,
        patience=2,
        seed=5,
    )
    base.update(kv)
    return TrainConfig(**base)


# --- early_stop ------------------------------------------------------------


def test_early_stop_improving_continues():
    assert not early_stop([(1, 0.1), (2, 0.2), (3, 0.3)], patience=2)


def test_early_stop_two_drops_stops():
    assert early_stop([(1, 0.3), (2, 0.29), (3, 0.28)], patience=2)


def test_early_stop_recovery_resets():
    assert not early_stop([(1, 0.3), (2, 0.29), (3, 0.31)], patience=2)


def test_early_stop_needs_patience_evals():
    assert not early_stop([(1, 0.3)], patience=1)
    assert not early_stop([(1, 0.3), (2, 0.2)], patience=2)
    assert early_stop([(1, 0.3), (2, 0.2)], patience=1)


def test_early_stop_plateau_counts_as_drop():
    assert early_stop([(1, 0.3), (2, 0.3), (3, 0.3)], patience=2)


def test_early_stop_bad_patience():
    with pytest.raises(ValueError):
        early_stop([], patience=0)


# --- config validation up front --------------------------------------------


def test_invalid_config_fails_before_compute(toy_kg):
    _, kg = toy_kg
    with pytest.raises(ConfigError, match="n_neg"):
        train(tiny_config(n_neg=0), kg)
    with pytest.raises(ConfigError, match="limit_val_batches"):
        train(tiny_config(limit_val_batches=0.0), kg)
    with pytest.raises(ConfigError, match="model"):
        train(tiny_config(model="conve"), kg)


# --- basic training behavior ------------------------------------------------


def test_zero_epochs_returns_initialized_params(toy_kg):
    _, kg = toy_kg
    from kgembed.models import init_params

    cfg = tiny_config(max_epochs=0)
    result = train(cfg, kg)
    expected = init_params(cfg.model, kg.n_entities, kg.n_relations, cfg.dim, seed=cfg.seed)
    for name in expected.tables:
        assert result.last.params.tables[name].tobytes() == expected.tables[name].tobytes()
    assert result.history == [] and result.last.epoch == 0
    assert np.isnan(result.last.best_metric)


def test_same_seed_identical_run(toy_kg):
    _, kg = toy_kg
    a = train(tiny_config(max_epochs=4), kg)
    b = train(tiny_config(max_epochs=4), kg)
    assert a.log == b.log
    for name, table in a.last.params.tables.items():
        assert table.tobytes() == b.last.params.tables[name].tobytes()
    c = train(tiny_config(max_epochs=4, seed=6), kg)
    assert any(
        a.last.params.tables[n].tobytes() != c.last.params.tables[n].tobytes()
        for n in a.last.params.tables
    )


def test_toy_kg_learnable_mrr(matching_kg):
    _, kg = matching_kg
    cfg = TrainConfig(
        model="transe",
        dim=16,
        lr=0.05,
        optimizer="adam",
        loss="margin",
        margin=2.0,
        sampler="uniform",
        n_neg=4,
        batch_size=8,
        max_epochs=200,
        check_per_epoch=50,
        patience=10,
        seed=1,
    )
    result = train(cfg, kg)
    report = final_report(result.best.params, kg, split="valid")
    assert report.mrr > 0.9


def test_best_checkpoint_tracks_highest_valid_mrr(matching_kg):
    _, kg = matching_kg
    cfg = tiny_config(model="transe", max_epochs=40, check_per_epoch=10, patience=4, lr=0.05)
    result = train(cfg, kg)
    best_epoch, best_mrr = max(result.history, key=lambda em: em[1])
    assert result.best.best_metric == pytest.approx(max(m for _, m in result.history))
    assert result.best.epoch <= result.last.epoch


def test_transh_normals_stay_unit(toy_kg):
    _, kg = toy_kg
    cfg = tiny_config(model="transh", max_epochs=2, check_per_epoch=10)
    result = train(cfg, kg)
    w = result.last.params.tables["norm"].astype(np.float64)
    assert np.allclose(np.linalg.norm(w, axis=1), 1.0, atol=1e-5)


def test_entity_renorm_toggle(toy_kg):
    _, kg = toy_kg
    on = train(tiny_config(model="transe", entity_renorm=True, max_epochs=1), kg)
    off = train(tiny_config(model="transe", entity_renorm=False, max_epochs=1), kg)
    assert (
        on.last.params.tables["ent"].tobytes() != off.last.params.tables["ent"].tobytes()
    )


@pytest.mark.parametrize(
    "sampler,loss",
    [("uniform", "margin"), ("bern", "margin"), ("adv", "self_adversarial"), ("all", "bce"), ("uniform", "bce")],
)
def test_sampler_loss_combinations_run(toy_kg, sampler, loss):
    _, kg = toy_kg
    cfg = tiny_config(sampler=sampler, loss=loss, max_epochs=2, check_per_epoch=5)
    result = train(cfg, kg)
    assert len(result.log) >= 2


@pytest.mark.parametrize("model", ["transe", "transh", "transr", "complex", "rotate", "simple"])
def test_all_models_train(toy_kg, model):
    _, kg = toy_kg
    cfg = tiny_config(model=model, max_epochs=2, check_per_epoch=5)
    result = train(cfg, kg)
    for table in result.last.params.tables.values():
        assert np.isfinite(table).all()


def test_early_stop_fires_in_training(matching_kg):
    _, kg = matching_kg
    # high lr + tiny patience: validation MRR should plateau and trip the stop
    cfg = tiny_config(
        model="transe", lr=0.5, max_epochs=100, check_per_epoch=1, patience=2, seed=3
    )
    result = train(cfg, kg)
    stops = [l for l in result.log if "early_stop" in l]
    if stops:  # fired: exactly once, and training ended there
        assert len(stops) == 1
        assert result.last.epoch == result.history[-1][0]
        assert result.last.epoch < 100


def test_resume_after_a_crash_writes_the_uninterrupted_log(monkeypatch, toy_kg, tmp_path):
    """A crash in epoch 4 leaves epoch 3's loss after the epoch-2 checkpoint."""
    _, kg = toy_kg
    cfg = tiny_config(check_per_epoch=2, max_epochs=4)
    train(cfg, kg, run_dir=str(tmp_path / "whole"))

    epoch_fn = train_module._epoch

    def crash_in_epoch_4(config, params, opt, epoch, batches):
        if epoch == 4:
            raise RuntimeError("crash")
        return epoch_fn(config, params, opt, epoch, batches)

    monkeypatch.setattr(train_module, "_epoch", crash_in_epoch_4)
    with pytest.raises(RuntimeError, match="crash"):
        train(cfg, kg, run_dir=str(tmp_path / "crashed"))
    monkeypatch.setattr(train_module, "_epoch", epoch_fn)
    train(cfg, kg, run_dir=str(tmp_path / "crashed"), resume=True)

    whole = (tmp_path / "whole" / "train.log").read_bytes()
    assert (tmp_path / "crashed" / "train.log").read_bytes() == whole


def dir_bytes(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize(
    "fail_at", [(2, "last"), (4, "best"), (4, "last")], ids=["2-last", "4-best", "4-last"]
)
def test_resume_after_a_failed_save_matches_the_uninterrupted_run(
    monkeypatch, toy_kg, tmp_path, fail_at
):
    """The save of ``(epoch, slot)`` raises and ends the run; a resume ends it as the whole run.

    Validation MRR improves at epochs 1 and 4, so epoch 4 saves ``best`` and then ``last``.
    """
    _, kg = toy_kg
    cfg = tiny_config(model="transe", check_per_epoch=1, max_epochs=5, patience=10)
    whole = tmp_path / "whole"
    train(cfg, kg, run_dir=str(whole))

    save = train_module.save_checkpoint
    failed = []

    def fail_once(ckpt, directory):
        if (ckpt.epoch, os.path.basename(directory)) == fail_at and not failed:
            failed.append(directory)
            raise OSError("injected save failure")
        save(ckpt, directory)

    crashed = tmp_path / "crashed"
    monkeypatch.setattr(train_module, "save_checkpoint", fail_once)
    with pytest.raises(OSError, match="injected save failure"):
        train(cfg, kg, run_dir=str(crashed))
    monkeypatch.setattr(train_module, "save_checkpoint", save)
    assert len(failed) == 1
    train(cfg, kg, run_dir=str(crashed), resume=True)

    assert (crashed / "train.log").read_bytes() == (whole / "train.log").read_bytes()
    assert dir_bytes(crashed / "last") == dir_bytes(whole / "last")
    assert dir_bytes(crashed / "best") == dir_bytes(whole / "best")


def test_resume_after_an_early_stop_trains_nothing(matching_kg, tmp_path):
    """The run stops at epoch 4; resuming it leaves the epoch, the log and ``last/`` alone."""
    _, kg = matching_kg
    cfg = tiny_config(
        model="transe", lr=0.5, max_epochs=100, check_per_epoch=1, patience=2, seed=3
    )
    run_dir = tmp_path / "run"
    first = train(cfg, kg, run_dir=str(run_dir))
    assert first.log[-1].startswith("4\tvalid\tearly_stop")

    def files(d):
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    log, last = (run_dir / "train.log").read_bytes(), files(run_dir / "last")
    resumed = train(cfg, kg, run_dir=str(run_dir), resume=True)
    assert resumed.last.epoch == first.last.epoch == 4
    assert resumed.history == first.history
    assert (run_dir / "train.log").read_bytes() == log
    assert files(run_dir / "last") == last


# --- rgcn ------------------------------------------------------------------


def test_rgcn_trains_and_improves(matching_kg):
    _, kg = matching_kg
    cfg = TrainConfig(
        model="rgcn",
        dim=8,
        n_bases=2,
        lr=0.05,
        optimizer="adam",
        loss="bce",
        n_neg=4,
        max_epochs=80,
        check_per_epoch=20,
        patience=10,
        seed=2,
        edge_dropout=0.1,
    )
    result = train(cfg, kg)
    from kgembed.gnn import init_rgcn

    untrained = init_rgcn(kg.n_entities, kg.n_relations, dim=8, n_bases=2, seed=2)
    base = final_report(untrained, kg, split="valid")
    trained = final_report(result.best.params, kg, split="valid")
    assert trained.mrr > base.mrr


@pytest.mark.parametrize(
    "params,sizes",
    [
        (kgembed.models.init_params("distmult", 2, 3, 4, seed=0), (2, 3)),
        (kgembed.gnn.init_rgcn(6, 2, dim=4, n_bases=2, seed=0), (6, 2)),
    ],
    ids=["distmult", "rgcn"],
)
def test_final_report_rejects_params_of_another_size(toy_kg, params, sizes):
    """Evaluation names both sizes instead of failing on an out-of-range row."""
    _, kg = toy_kg  # 6 entities, 3 relations
    want = (f"^parameters for {sizes[0]} entities and {sizes[1]} relations; "
            "the KG has 6 entities and 3 relations$")
    with pytest.raises(ValueError, match=want):
        final_report(params, kg)


def test_final_report_rejects_an_unknown_split_name(toy_kg):
    _, kg = toy_kg
    params = kgembed.models.init_params("distmult", kg.n_entities, kg.n_relations, 4, seed=0)
    with pytest.raises(ValueError, match="unknown split 'Test': expected 'train', 'valid' or 'test'"):
        final_report(params, kg, split="Test")


def test_rgcn_subsampled_epochs(toy_kg):
    _, kg = toy_kg
    cfg = TrainConfig(
        model="rgcn",
        dim=4,
        n_bases=2,
        lr=0.01,
        loss="bce",
        n_neg=2,
        max_epochs=2,
        check_per_epoch=5,
        seed=0,
        full_graph_threshold=4,  # force subsampling
        graph_batch_edges=5,
        edge_dropout=0.0,
    )
    result = train(cfg, kg)
    assert len(result.log) == 2


# --- non-finite gradients ---------------------------------------------------


def nan_entity_row(params):
    params.tables["ent"][2] = np.nan


def nan_relation_row(model):
    model.rel_emb[1] = np.nan


@pytest.mark.parametrize(
    "module,init_name,plant,cfg",
    [
        (
            kgembed.models,
            "init_params",
            nan_entity_row,
            tiny_config(model="transe", loss="self_adversarial", batch_size=4, max_epochs=1),
        ),
        (
            kgembed.gnn,
            "init_rgcn",
            nan_relation_row,
            TrainConfig(model="rgcn", dim=4, n_bases=2, loss="bce", n_neg=2, max_epochs=1, seed=0),
        ),
    ],
    ids=["transe", "rgcn"],
)
def test_non_finite_gradient_names_epoch_batch_and_model(
    monkeypatch, toy_kg, module, init_name, plant, cfg
):
    """A NaN planted in a parameter table before ``train()``."""
    _, kg = toy_kg
    init = getattr(module, init_name)

    def planted(*args, **kwargs):
        made = init(*args, **kwargs)
        plant(made)
        return made

    monkeypatch.setattr(module, init_name, planted)
    with pytest.raises(NonFiniteGradientError) as err:
        train(cfg, kg)
    pattern = rf"epoch 1, batch 0, model {cfg.model}: non-finite gradient in table '[\w.]+' at row \d+"
    assert re.fullmatch(pattern, str(err.value)), str(err.value)


def test_non_finite_loss_names_epoch_batch_and_model(monkeypatch, toy_kg):
    """A margin pair holding a NaN gets a zero coefficient, so its gradient rows stay finite."""
    _, kg = toy_kg
    init = kgembed.models.init_params

    def planted(*args, **kwargs):
        made = init(*args, **kwargs)
        nan_entity_row(made)
        return made

    monkeypatch.setattr(kgembed.models, "init_params", planted)
    cfg = tiny_config(model="transe", loss="margin", batch_size=len(kg.train), max_epochs=1)
    with pytest.raises(ValueError) as err:
        train(cfg, kg)
    assert not isinstance(err.value, NonFiniteGradientError)
    assert str(err.value) == "epoch 1, batch 0, model transe: non-finite training loss nan"


# --- rule injection ---------------------------------------------------------


def test_rule_zero_weight_matches_plain_trajectory(toy_kg):
    _, kg = toy_kg
    plain_cfg = tiny_config(model="complex", loss="bce", max_epochs=3, check_per_epoch=10)
    rule_cfg = plain_cfg.with_overrides(rule_file="unused.tsv", rule_weight=0.0)
    gs = rule_groundings(kg)
    plain = train(plain_cfg, kg)
    ruled = train(rule_cfg, kg, groundings=gs)
    for name, table in plain.last.params.tables.items():
        assert table.tobytes() == ruled.last.params.tables[name].tobytes()


def test_rule_mode_trains_with_positive_weight(toy_kg):
    _, kg = toy_kg
    cfg = tiny_config(
        model="complex", loss="bce", rule_file="unused.tsv", rule_weight=0.8, max_epochs=3
    )
    result = train(cfg, kg, groundings=rule_groundings(kg))
    assert all(np.isfinite(t).all() for t in result.last.params.tables.values())


def test_a_groundings_file_trains_exactly_like_the_grounded_table(toy_kg, tmp_path):
    """RUGE from a written groundings file: the same tables and log as from memory."""
    vocab, kg = toy_kg
    r1, r2, r3 = (vocab.relation_to_id[f"r{i}"] for i in (1, 2, 3))
    rules = [
        Rule(body_relations=(r1, r2), head_relation=r3, confidence=0.7),
        Rule(body_relations=(r3,), head_relation=r1, confidence=0.123456789),
    ]
    groundings = ground_rules(rules, kg)
    assert set(groundings.bodies[:, 1, 0] >= 0) == {True, False}  # one- and two-atom bodies
    assert not groundings.in_train.all()  # some conclusions get soft labels
    path = str(tmp_path / "groundings.tsv")
    write_groundings(groundings, path)
    cfg = tiny_config(
        model="complex", loss="bce", rule_file=path, rule_weight=0.8, max_epochs=3, check_per_epoch=1
    )
    from_file = train(cfg, kg, run_dir=str(tmp_path / "file"))
    in_memory = train(cfg, kg, groundings=groundings, run_dir=str(tmp_path / "memory"))
    for name, table in in_memory.last.params.tables.items():
        assert table.tobytes() == from_file.last.params.tables[name].tobytes(), name
    file_run, memory_run = tmp_path / "file", tmp_path / "memory"
    assert (file_run / "train.log").read_bytes() == (memory_run / "train.log").read_bytes()
    for slot in ("best", "last"):
        assert dir_bytes(file_run / slot) == dir_bytes(memory_run / slot)


def test_all_sampler_runs_write_identical_logs_and_checkpoints(monkeypatch, toy_kg, tmp_path):
    """Each step trains on [B, E] labels, no B·E triples; two runs write the same bytes."""
    _, kg = toy_kg
    shapes = []
    plain = kgembed.models.grad

    def recorded(params, batch, loss_spec, soft=None):
        shapes.append((batch.triples.shape, batch.labels.shape))
        return plain(params, batch, loss_spec, soft)

    monkeypatch.setattr(kgembed.models, "grad", recorded)
    cfg = tiny_config(sampler="all", loss="bce", max_epochs=4, check_per_epoch=2, patience=10)
    runs = tmp_path / "a", tmp_path / "b"
    for run_dir in runs:
        train(cfg, kg, run_dir=str(run_dir))
    # 10 train triples in batches of 8 and 2, over 6 entities, for 4 epochs per run
    assert shapes == 8 * [((8, 3), (8, 6)), ((2, 3), (2, 6))]
    a, b = runs
    assert (a / "train.log").read_bytes() == (b / "train.log").read_bytes()
    for slot in ("best", "last"):
        assert dir_bytes(a / slot) == dir_bytes(b / slot)


def test_rule_mode_trains_with_the_all_sampler(monkeypatch, toy_kg):
    """RUGE with ``sampler: all``: a [B, E] batch group and an [n] soft group per ``grad`` call."""
    _, kg = toy_kg
    cfg = tiny_config(
        model="complex", loss="bce", sampler="all", rule_file="unused.tsv", rule_weight=0.8,
        max_epochs=3, check_per_epoch=3,
    )
    without_rules = train(cfg.with_overrides(rule_file=""), kg)
    shapes = []
    plain = kgembed.rules.grad

    def recorded(params, batch, loss_spec, soft=None):
        shapes.append((batch.labels.shape, soft.labels.shape))
        return plain(params, batch, loss_spec, soft)

    monkeypatch.setattr(kgembed.rules, "grad", recorded)
    ruled = train(cfg, kg, groundings=rule_groundings(kg))
    assert len(shapes) == 6  # two batches per epoch
    for batch_shape, soft_shape in shapes:
        assert batch_shape[1:] == (kg.n_entities,) and len(soft_shape) == 1 and soft_shape[0] > 0
    for name, table in ruled.last.params.tables.items():
        assert np.isfinite(table).all(), name
    assert any(
        table.tobytes() != without_rules.last.params.tables[name].tobytes()
        for name, table in ruled.last.params.tables.items()
    )


def test_a_bad_log_epoch_names_its_line(toy_kg, tmp_path):
    """A resume that meets a log line whose epoch is not an integer names that line."""
    _, kg = toy_kg
    cfg = tiny_config(check_per_epoch=1, max_epochs=2, patience=10)
    train(cfg, kg, run_dir=str(tmp_path))
    log = tmp_path / "train.log"
    lines = log.read_bytes().splitlines(keepends=True)
    log.write_bytes(b"".join(lines[:1]) + b"x2\ttrain\tloss\t1\n" + b"".join(lines[1:]))
    with pytest.raises(CheckpointError, match=r"train\.log:2: epoch 'x2' is not an integer"):
        train(cfg, kg, run_dir=str(tmp_path), resume=True)


def test_rule_mode_requires_complex_and_bce(toy_kg):
    _, kg = toy_kg
    with pytest.raises(ConfigError, match="complex"):
        train(tiny_config(model="transe", rule_file="x.tsv", loss="bce"), kg)
    with pytest.raises(ConfigError, match="bce"):
        train(tiny_config(model="complex", rule_file="x.tsv", loss="margin"), kg)
