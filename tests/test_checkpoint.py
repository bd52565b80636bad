import importlib
import os

import numpy as np
import pytest

from kgembed.checkpoint import (
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from kgembed.config import TrainConfig
from kgembed.gnn import init_rgcn
from kgembed.models import init_params
from kgembed.optim import init_optimizer
from kgembed.train import train

from conftest import make_kg


def roundtrip(ckpt, path):
    save_checkpoint(ckpt, str(path))
    return load_checkpoint(str(path))


def assert_tables_equal(a, b):
    ta = a.tables if isinstance(a.tables, dict) else a.tables()
    tb = b.tables if isinstance(b.tables, dict) else b.tables()
    assert set(ta) == set(tb)
    for name in ta:
        assert ta[name].tobytes() == tb[name].tobytes(), name
        assert ta[name].shape == tb[name].shape


@pytest.mark.parametrize("model", ["transe", "transh", "transr", "complex", "rotate", "simple"])
@pytest.mark.parametrize("opt", ["sgd", "adagrad", "adam"])
def test_round_trip_bitwise(tmp_path, model, opt):
    params = init_params(model, 9, 4, 5, seed=3)
    params.version = 17
    state = init_optimizer(opt, params.tables)
    rng = np.random.default_rng(0)
    for slots in state.slots.values():
        for arr in slots.values():
            arr[...] = rng.random(arr.shape).astype(np.float32)
    config = TrainConfig(model=model, dim=5, optimizer=opt, max_epochs=7)
    ckpt = Checkpoint(
        params=params,
        opt_state=state,
        epoch=7,
        best_metric=0.4375,
        config=config,
        history=[(3, 0.25), (6, 0.4375)],
    )
    back = roundtrip(ckpt, tmp_path / "ck")
    assert_tables_equal(ckpt.params, back.params)
    assert back.epoch == 7 and back.best_metric == 0.4375
    assert back.history == [(3, 0.25), (6, 0.4375)]
    assert back.params.version == 17
    assert back.config == config
    for tname, slots in state.slots.items():
        for sname, arr in slots.items():
            assert arr.tobytes() == back.opt_state.slots[tname][sname].tobytes()


def test_round_trip_rgcn(tmp_path):
    model = init_rgcn(8, 3, dim=4, n_bases=2, seed=1)
    config = TrainConfig(model="rgcn", dim=4, n_bases=2, n_layers=2)
    state = init_optimizer("adam", model.tables())
    ckpt = Checkpoint(
        params=model, opt_state=state, epoch=2, best_metric=float("nan"), config=config, history=[]
    )
    back = roundtrip(ckpt, tmp_path / "ck")
    assert_tables_equal(model, back.params)
    assert [l.activation for l in back.params.layers] == ["relu", "identity"]
    assert np.isnan(back.best_metric)


def test_corrupted_table_rejected(tmp_path):
    params = init_params("distmult", 5, 2, 3, seed=0)
    ckpt = Checkpoint(
        params=params,
        opt_state=init_optimizer("sgd", params.tables),
        epoch=1,
        best_metric=0.1,
        config=TrainConfig(model="distmult", dim=3, optimizer="sgd"),
        history=[],
    )
    save_checkpoint(ckpt, str(tmp_path))
    victim = tmp_path / "param__ent.bin"
    blob = bytearray(victim.read_bytes())
    blob[-1] ^= 0xFF
    victim.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(str(tmp_path))


def test_corrupted_meta_rejected(tmp_path):
    params = init_params("distmult", 5, 2, 3, seed=0)
    ckpt = Checkpoint(
        params=params,
        opt_state=init_optimizer("sgd", params.tables),
        epoch=1,
        best_metric=0.1,
        config=TrainConfig(model="distmult", dim=3, optimizer="sgd"),
        history=[],
    )
    save_checkpoint(ckpt, str(tmp_path))
    meta = tmp_path / "meta"
    meta.write_text(meta.read_text().replace("config.lr: 0.01", "config.lr: 0.02"))
    with pytest.raises(CheckpointError, match="hash"):
        load_checkpoint(str(tmp_path))


def test_missing_directory_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="missing meta"):
        load_checkpoint(str(tmp_path / "nope"))


def test_write_failure_cleans_partial_state(tmp_path, monkeypatch):
    params = init_params("complex", 5, 2, 3, seed=0)
    ckpt = Checkpoint(
        params=params,
        opt_state=init_optimizer("adam", params.tables),
        epoch=1,
        best_metric=0.5,
        config=TrainConfig(model="complex", dim=3),
        history=[],
    )
    import kgembed.checkpoint as cp

    real = cp._write_table
    calls = {"n": 0}

    def failing(path, arr):
        calls["n"] += 1
        if calls["n"] == 3:
            raise OSError("disk full")
        return real(path, arr)

    monkeypatch.setattr(cp, "_write_table", failing)
    target = tmp_path / "ck"
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(ckpt, str(target))
    assert os.listdir(target) == []  # nothing left behind


def numbered_checkpoint(epoch):
    """A ComplEx + Adam checkpoint whose every table depends on ``epoch``."""
    params = init_params("complex", 5, 2, 3, seed=epoch)
    state = init_optimizer("adam", params.tables)
    rng = np.random.default_rng(epoch)
    for slots in state.slots.values():
        for arr in slots.values():
            arr[...] = rng.random(arr.shape).astype(np.float32)
    config = TrainConfig(model="complex", dim=3)
    return Checkpoint(params, state, epoch, 0.5, config, [(epoch, 0.5)])


def file_bytes(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


# every write of a save: two parameter tables, four Adam slots, meta, and the
# two renames that swap the new directory in
WRITE_POINTS = [("table", k) for k in range(1, 7)] + [("meta", 1), ("replace", 1), ("replace", 2)]


@pytest.mark.parametrize("point", WRITE_POINTS, ids=[f"{kind}{k}" for kind, k in WRITE_POINTS])
def test_a_failed_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch, point):
    import kgembed.checkpoint as cp

    target = tmp_path / "last"
    save_checkpoint(numbered_checkpoint(1), str(target))
    before = file_bytes(target)

    kind, fail_at = point
    calls = {"n": 0}

    def fail_on_call(real, applies=lambda *a: True):
        def wrapper(*args, **kwargs):
            if applies(*args):
                calls["n"] += 1
                if calls["n"] == fail_at:
                    raise OSError(f"injected failure at {kind} {fail_at}")
            return real(*args, **kwargs)

        return wrapper

    if kind == "table":
        monkeypatch.setattr(cp, "_write_table", fail_on_call(cp._write_table))
    elif kind == "meta":
        on_meta = fail_on_call(open, lambda path, *rest: os.path.basename(path) == "meta")
        monkeypatch.setattr(cp, "open", on_meta, raising=False)
    else:
        monkeypatch.setattr(os, "replace", fail_on_call(os.replace))
    with pytest.raises(OSError, match="injected failure"):
        save_checkpoint(numbered_checkpoint(2), str(target))
    monkeypatch.undo()

    assert os.listdir(tmp_path) == ["last"]  # no temporary directory left beside it
    assert file_bytes(target) == before
    back = load_checkpoint(str(target))
    assert back.epoch == 1 and back.history == [(1, 0.5)]
    assert_tables_equal(numbered_checkpoint(1).params, back.params)


def test_a_save_replaces_the_previous_checkpoint_whole(tmp_path):
    target = tmp_path / "last"
    save_checkpoint(numbered_checkpoint(1), str(target))
    (target / "stray.bin").write_bytes(b"left by hand")
    save_checkpoint(numbered_checkpoint(2), str(target))
    assert os.listdir(tmp_path) == ["last"]
    assert "stray.bin" not in os.listdir(target)
    back = load_checkpoint(str(target))
    assert back.epoch == 2
    assert_tables_equal(numbered_checkpoint(2).params, back.params)


def test_a_save_stopped_between_its_renames_loads_from_old(tmp_path):
    """A kill between the two renames leaves no ``last``, only a complete ``last.old``."""
    target = tmp_path / "last"
    save_checkpoint(numbered_checkpoint(1), str(target))
    before = file_bytes(target)
    os.replace(target, tmp_path / "last.old")

    back = load_checkpoint(str(target))
    assert back.epoch == 1 and back.history == [(1, 0.5)]
    assert_tables_equal(numbered_checkpoint(1).params, back.params)
    save_checkpoint(back, str(tmp_path / "again"))
    assert file_bytes(tmp_path / "again") == before


def test_a_save_after_a_stopped_one_puts_the_old_checkpoint_back_first(tmp_path, monkeypatch):
    """So a failure in that save still leaves the old checkpoint loadable."""
    import kgembed.checkpoint as cp

    target = tmp_path / "last"
    save_checkpoint(numbered_checkpoint(1), str(target))
    before = file_bytes(target)
    os.replace(target, tmp_path / "last.old")

    def full_disk(path, arr):
        raise OSError("disk full")

    with monkeypatch.context() as m:
        m.setattr(cp, "_write_table", full_disk)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(numbered_checkpoint(2), str(target))
    assert os.listdir(tmp_path) == ["last"]
    assert file_bytes(target) == before

    save_checkpoint(numbered_checkpoint(2), str(target))
    assert os.listdir(tmp_path) == ["last"]
    assert load_checkpoint(str(target)).epoch == 2


def test_old_is_not_read_while_the_directory_exists(tmp_path):
    target = tmp_path / "last"
    save_checkpoint(numbered_checkpoint(1), str(target))
    save_checkpoint(numbered_checkpoint(2), str(tmp_path / "last.old"))
    assert load_checkpoint(str(target)).epoch == 1
    (target / "meta").unlink()
    with pytest.raises(CheckpointError, match="missing meta"):
        load_checkpoint(str(target))


def test_vocab_reference_mismatch_rejected(tmp_path):
    params = init_params("distmult", 5, 2, 3, seed=0)
    ckpt = Checkpoint(
        params=params,
        opt_state=init_optimizer("sgd", params.tables),
        epoch=1,
        best_metric=0.5,
        config=TrainConfig(model="distmult", dim=3, optimizer="sgd"),
        history=[],
    )
    save_checkpoint(ckpt, str(tmp_path))
    meta = tmp_path / "meta"
    meta.write_text(meta.read_text().replace("vocab.n_entities: 5", "vocab.n_entities: 6"))
    with pytest.raises(CheckpointError, match="n_entities"):
        load_checkpoint(str(tmp_path))


@pytest.mark.parametrize(
    "key, bad",
    [
        ("epoch", "x"),
        ("best_metric", "x"),
        ("params_version", "1.5"),
        ("vocab.n_entities", "five"),
        ("vocab.n_relations", "2.0"),
        ("history", "1,abc"),
    ],
)
def test_bad_meta_number_names_its_key(tmp_path, key, bad):
    params = init_params("distmult", 5, 2, 3, seed=0)
    ckpt = Checkpoint(
        params=params,
        opt_state=init_optimizer("sgd", params.tables),
        epoch=1,
        best_metric=0.5,
        config=TrainConfig(model="distmult", dim=3, optimizer="sgd"),
        history=[(1, 0.5)],
    )
    save_checkpoint(ckpt, str(tmp_path))
    meta = tmp_path / "meta"
    lines = meta.read_text().splitlines()
    lines = [f"{key}: {bad}" if l.startswith(f"{key}: ") else l for l in lines]
    meta.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError, match=f"^meta {key}: '"):
        load_checkpoint(str(tmp_path))


def test_missing_optimizer_slots_rejected(tmp_path):
    params = init_params("distmult", 5, 2, 3, seed=0)
    state = init_optimizer("adam", params.tables)
    ckpt = Checkpoint(
        params=params,
        opt_state=state,
        epoch=1,
        best_metric=0.5,
        config=TrainConfig(model="distmult", dim=3),
        history=[],
    )
    save_checkpoint(ckpt, str(tmp_path))
    meta = tmp_path / "meta"
    lines = [l for l in meta.read_text().splitlines() if not l.startswith("opt.ent.m")]
    meta.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError, match="incomplete"):
        load_checkpoint(str(tmp_path))


# --- resume ------------------------------------------------------------------


def train_config(**kv):
    base = dict(
        model="complex",
        dim=6,
        lr=0.05,
        optimizer="adam",
        loss="margin",
        sampler="uniform",
        n_neg=3,
        batch_size=8,
        max_epochs=5,
        check_per_epoch=1,
        patience=50,
        seed=9,
    )
    base.update(kv)
    return TrainConfig(**base)


def test_a_run_writes_each_checkpoint_once(tmp_path, toy_kg, monkeypatch):
    """One epoch, one evaluation: ``best`` and ``last`` are written there and not again at the end."""
    train_module = importlib.import_module("kgembed.train")  # the package's ``train`` is the function
    _, kg = toy_kg
    saved = []
    plain = train_module.save_checkpoint

    def counted(ckpt, directory):
        saved.append(os.path.basename(directory))
        plain(ckpt, directory)

    monkeypatch.setattr(train_module, "save_checkpoint", counted)
    result = train(train_config(max_epochs=1), kg, run_dir=str(tmp_path))
    assert saved == ["best", "last"]
    assert file_bytes(tmp_path / "last") == file_bytes(tmp_path / "best")
    assert load_checkpoint(str(tmp_path / "last")).epoch == result.last.epoch == 1


def test_resume_matches_uninterrupted(tmp_path, toy_kg):
    _, kg = toy_kg
    cfg = train_config()  # 5 epochs, checkpoint every epoch
    full = train(cfg, kg)

    # epoch-by-epoch state does not depend on max_epochs, so a finished
    # 3-epoch run is exactly "interrupted after epoch 3" once its stored
    # config is relabeled to the 5-epoch one
    three = train(cfg.with_overrides(max_epochs=3), kg)
    resume_dir = tmp_path / "resume"
    for slot, ck in (("last", three.last), ("best", three.best)):
        save_checkpoint(
            Checkpoint(
                params=ck.params,
                opt_state=ck.opt_state,
                epoch=ck.epoch,
                best_metric=ck.best_metric,
                config=cfg,
                history=ck.history,
            ),
            str(resume_dir / slot),
        )
    resumed = train(cfg, kg, run_dir=str(resume_dir), resume=True)
    for name, table in full.last.params.tables.items():
        assert table.tobytes() == resumed.last.params.tables[name].tobytes(), name
    assert resumed.history == full.history
    assert resumed.best.best_metric == full.best.best_metric
    for name, table in full.best.params.tables.items():
        assert table.tobytes() == resumed.best.params.tables[name].tobytes(), name


@pytest.mark.parametrize(
    "stopped", [("last",), ("best",), ("last", "best")], ids=["last", "best", "both"]
)
def test_resume_from_saves_stopped_between_their_renames(tmp_path, toy_kg, stopped):
    """``last`` and ``best`` are found at ``.old``; the run ends as the uninterrupted one."""
    _, kg = toy_kg
    cfg = train_config()
    full = train(cfg, kg, run_dir=str(tmp_path / "full"))
    three = train(cfg.with_overrides(max_epochs=3), kg)
    resume_dir = tmp_path / "resume"
    for slot, ck in (("last", three.last), ("best", three.best)):
        relabeled = Checkpoint(
            ck.params, ck.opt_state, ck.epoch, ck.best_metric, cfg, ck.history
        )
        save_checkpoint(relabeled, str(resume_dir / slot))
    for slot in stopped:
        os.replace(resume_dir / slot, resume_dir / f"{slot}.old")
    resumed = train(cfg, kg, run_dir=str(resume_dir), resume=True)
    assert resumed.history == full.history
    assert resumed.best.best_metric == full.best.best_metric
    assert sorted(os.listdir(resume_dir)) == ["best", "last", "train.log"]
    for slot in ("last", "best"):
        assert file_bytes(resume_dir / slot) == file_bytes(tmp_path / "full" / slot), slot


def test_resume_rejects_config_drift(tmp_path, toy_kg):
    _, kg = toy_kg
    cfg = train_config(max_epochs=2)
    train(cfg, kg, run_dir=str(tmp_path))
    from kgembed.config import ConfigError

    with pytest.raises(ConfigError, match="config"):
        train(cfg.with_overrides(lr=0.1), kg, run_dir=str(tmp_path), resume=True)


@pytest.mark.parametrize("dataset", ["007", "1e5", "true"])
def test_config_meta_parsed_by_declared_type(tmp_path, toy_kg, dataset):
    _, kg = toy_kg
    cfg = train_config(dataset=dataset, max_epochs=1)
    train(cfg, kg, run_dir=str(tmp_path))
    back = load_checkpoint(str(tmp_path / "last"))
    assert back.config == cfg
    assert back.config.dataset == dataset
