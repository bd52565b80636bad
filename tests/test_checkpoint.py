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
from kgembed.config import ConfigError, TrainConfig, config_hash
from kgembed.data import DataFormatError
from kgembed.gnn import init_rgcn, param_tables
from kgembed.models import init_params
from kgembed.optim import init_optimizer
from kgembed.train import train

from conftest import make_kg, rule_groundings


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


def test_an_edited_epoch_loads_unless_it_is_negative(tmp_path):
    save_checkpoint(numbered_checkpoint(2), str(tmp_path))
    set_meta(tmp_path, "epoch", "0")
    assert load_checkpoint(str(tmp_path)).epoch == 0
    set_meta(tmp_path, "epoch", "-3")
    with pytest.raises(CheckpointError, match="^meta epoch: '-3' is negative$"):
        load_checkpoint(str(tmp_path))


def test_meta_bytes_that_are_not_utf8_name_the_line(tmp_path):
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
    lines = meta.read_bytes().split(b"\n")
    lines[2] += b"\xff"
    meta.write_bytes(b"\n".join(lines))
    with pytest.raises(CheckpointError, match=r"^meta:3: not UTF-8"):
        load_checkpoint(str(tmp_path))


def test_a_repeated_meta_key_names_its_line(tmp_path):
    """A second ``epoch:`` line is rejected, not read over the first."""
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
    n_lines = len(meta.read_text().splitlines())
    meta.write_text(meta.read_text() + "epoch: 99\n")
    with pytest.raises(CheckpointError, match=rf"^meta:{n_lines + 1}: duplicate key 'epoch'$"):
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


def adam_checkpoint(path):
    """A saved distmult checkpoint (6 entities, d 4) with adam slots; returns its meta path."""
    params = init_params("distmult", 6, 2, 4, seed=0)
    config = TrainConfig(model="distmult", dim=4, optimizer="adam")
    ckpt = Checkpoint(params=params, opt_state=init_optimizer("adam", params.tables), epoch=1,
                      best_metric=0.5, config=config, history=[])
    save_checkpoint(ckpt, str(path))
    return path / "meta"


def test_a_meta_shape_that_disagrees_with_its_file_header_names_the_file(tmp_path):
    """6x4 stored, 12x2 in meta: the same number of values, but not the file's shape."""
    meta = adam_checkpoint(tmp_path)
    meta.write_text(meta.read_text().replace("opt.ent.m: 6x4 ", "opt.ent.m: 12x2 "))
    with pytest.raises(CheckpointError, match=r"opt__ent__m\.bin holds 6x4 values, meta says 12x2"):
        load_checkpoint(str(tmp_path))


def test_an_optimizer_slot_of_another_shape_than_its_table_names_the_meta_key(tmp_path):
    """A 12x2 slot file with a matching header, hash and meta line, for a 6x4 table."""
    from kgembed.checkpoint import _write_table

    meta = adam_checkpoint(tmp_path)
    sha = _write_table(str(tmp_path / "opt__ent__m.bin"), np.zeros((12, 2), dtype=np.float32))
    lines = [f"opt.ent.m: 12x2 {sha}" if l.startswith("opt.ent.m:") else l
             for l in meta.read_text().splitlines()]
    meta.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError, match=r"meta opt\.ent\.m: shape 12x2, its table needs 6x4"):
        load_checkpoint(str(tmp_path))


def test_a_vocab_count_too_large_to_allocate_is_rejected_before_any_allocation(tmp_path):
    """vocab.n_entities 2**40 (meta's vocab is not hashed): its [2**40, 4] tables are more
    than numpy can allocate, so the headers are checked against the config's shapes first."""
    meta = adam_checkpoint(tmp_path)
    meta.write_text(meta.read_text().replace("vocab.n_entities: 6", f"vocab.n_entities: {2**40}"))
    with pytest.raises(CheckpointError, match=rf"^meta table\.ent: shape 6x4, its table needs "
                                              rf"{2**40}x4 \(vocab\.n_entities {2**40}, "):
        load_checkpoint(str(tmp_path))


def state_arrays(params, opt):
    arrays = dict(param_tables(params))
    arrays.update({(t, k): a for t, slots in opt.slots.items() for k, a in slots.items()})
    return arrays


@pytest.mark.parametrize("optimizer", ["sgd", "adagrad", "adam"])
@pytest.mark.parametrize("model", ["transh", "transr", "rotate", "simple", "rgcn"])
def test_a_shapes_only_state_has_the_drawn_shapes_and_holds_no_memory(model, optimizer):
    from kgembed.checkpoint import init_state

    config = TrainConfig(model=model, dim=4, n_bases=2, optimizer=optimizer)
    drawn = state_arrays(*init_state(config, 7, 3))
    blank = state_arrays(*init_state(config, 7, 3, shapes_only=True))
    assert {k: a.shape for k, a in blank.items()} == {k: a.shape for k, a in drawn.items()}
    assert all(a.strides[0] == 0 and not a.flags.writeable for a in blank.values())


def set_meta(directory, key, value):
    """Replace meta ``key``'s line with ``value``, or drop it for None."""
    meta = directory / "meta"
    lines = [l for l in meta.read_text().splitlines() if not l.startswith(f"{key}: ")]
    meta.write_text("\n".join(lines + ([f"{key}: {value}"] if value is not None else [])) + "\n")


def put_array(directory, key, arr):
    """Write ``arr`` as meta ``key``'s file, with a meta line matching its header and hash."""
    from kgembed.checkpoint import _write_table

    kind, _, name = key.partition(".")
    fname = f"param__{name}.bin" if kind == "table" else "opt__{}__{}.bin".format(*name.rsplit(".", 1))
    sha = _write_table(str(directory / fname), arr)
    set_meta(directory, key, f"{'x'.join(map(str, arr.shape))} {sha}")


def zeros(*shape):
    return np.zeros(shape, dtype=np.float32)


def wider_rel(d):
    for key in ("table.rel", "opt.rel.m", "opt.rel.v"):
        put_array(d, key, zeros(2, 5))


def invalid_lr(d):
    config = TrainConfig(model="distmult", dim=4, optimizer="sgd", lr=-0.5)
    set_meta(d, "config.lr", "-0.5")
    set_meta(d, "config_hash", config_hash(config))


SGD_DISTMULT = TrainConfig(model="distmult", dim=4, optimizer="sgd")
SGD_RGCN = TrainConfig(model="rgcn", dim=4, n_bases=2, optimizer="sgd")

# (config, its parameters as saved, an edit of the saved directory, the load error)
FOREIGN_STATE = {
    "table_of_another_dim": (
        TrainConfig(model="distmult", dim=4),
        lambda: init_params("distmult", 6, 2, 4, seed=0),
        wider_rel,
        r"^meta table\.rel: shape 2x5, its table needs 2x4 "
        r"\(vocab\.n_entities 6, vocab\.n_relations 2\)$",
    ),
    "extra_table": (
        SGD_DISTMULT,
        lambda: init_params("distmult", 6, 2, 4, seed=0),
        lambda d: put_array(d, "table.foo", zeros(3, 4)),
        r"for its config: missing \[\], unexpected \['table\.foo'\]$",
    ),
    "transh_without_normals": (
        TrainConfig(model="transh", dim=4, optimizer="sgd"),
        lambda: init_params("transh", 6, 2, 4, seed=0),
        lambda d: set_meta(d, "table.norm", None),
        r"for its config: missing \['table\.norm'\], unexpected \[\]$",
    ),
    "rgcn_layer_past_n_layers": (
        SGD_RGCN,
        lambda: init_rgcn(8, 3, dim=4, n_bases=2, n_layers=3, seed=1),
        lambda d: None,
        r"unexpected \['table\.layer2\.basis', 'table\.layer2\.coeff', 'table\.layer2\.self'\]$",
    ),
    "rgcn_basis_past_n_bases": (
        SGD_RGCN,
        lambda: init_rgcn(8, 3, dim=4, n_bases=2, seed=1),
        lambda d: put_array(d, "table.layer0.basis", zeros(3, 4, 4)),
        r"^meta table\.layer0\.basis: shape 3x4x4, its table needs 2x4x4 ",
    ),
    "rgcn_activations": (
        SGD_RGCN,
        lambda: init_rgcn(8, 3, dim=4, n_bases=2, seed=1),
        lambda d: set_meta(d, "rgcn.activations", "relu,relu"),
        r"^meta rgcn\.activations: 'relu,relu', its config builds 'relu,identity'$",
    ),
    "optimizer_of_another_kind": (
        TrainConfig(model="distmult", dim=4),
        lambda: init_params("distmult", 6, 2, 4, seed=0),
        lambda d: set_meta(d, "optimizer", "adagrad"),
        r"^meta optimizer: 'adagrad', its config has 'adam'$",
    ),
    "invalid_config": (
        SGD_DISTMULT,
        lambda: init_params("distmult", 6, 2, 4, seed=0),
        invalid_lr,
        r"^meta: config field 'lr' must be > 0, got -0\.5$",
    ),
}


@pytest.mark.parametrize("case", list(FOREIGN_STATE))
def test_a_checkpoint_must_fill_exactly_its_configs_state(tmp_path, case):
    """Every case has consistent files, headers and hashes; only the config's state rejects it."""
    config, make_params, edit, message = FOREIGN_STATE[case]
    params = make_params()
    state = init_optimizer(config.optimizer, param_tables(params))
    save_checkpoint(Checkpoint(params, state, 1, 0.5, config, []), str(tmp_path))
    edit(tmp_path)
    with pytest.raises(CheckpointError, match=message):
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


def assert_resume_matches_uninterrupted(cfg, kg, resume_dir, groundings=None):
    full = train(cfg, kg, groundings=groundings)

    # epoch-by-epoch state does not depend on max_epochs, so a finished
    # 3-epoch run is exactly "interrupted after epoch 3" once its stored
    # config is relabeled to the 5-epoch one
    three = train(cfg.with_overrides(max_epochs=3), kg, groundings=groundings)
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
    resumed = train(cfg, kg, groundings=groundings, run_dir=str(resume_dir), resume=True)
    assert_tables_equal(full.last.params, resumed.last.params)
    assert resumed.history == full.history
    assert resumed.best.best_metric == full.best.best_metric
    assert_tables_equal(full.best.params, resumed.best.params)


def test_resume_matches_uninterrupted(tmp_path, toy_kg):
    _, kg = toy_kg
    assert_resume_matches_uninterrupted(train_config(), kg, tmp_path / "resume")  # 5 epochs


@pytest.mark.parametrize("family", ["rgcn", "ruge"])
def test_resume_matches_uninterrupted_for_every_family(tmp_path, toy_kg, family):
    """RGCN on sampled subgraphs with edge dropout, and RUGE, resume bit for bit too."""
    _, kg = toy_kg
    if family == "rgcn":
        cfg = train_config(model="rgcn", n_bases=2, loss="bce", n_neg=2,
                           full_graph_threshold=4, graph_batch_edges=4, edge_dropout=0.3)
        groundings = None
    else:
        cfg = train_config(loss="bce", rule_file="unused.tsv", rule_weight=0.8, rule_batch=2)
        groundings = rule_groundings(kg)
    assert_resume_matches_uninterrupted(cfg, kg, tmp_path / "resume", groundings)


def test_resume_rejects_a_kg_of_another_size(tmp_path, toy_kg):
    """A checkpoint of 6 entities does not resume on 3; the error names both sizes."""
    _, kg = toy_kg
    cfg = train_config(model="distmult")
    train(cfg.with_overrides(max_epochs=1), kg, run_dir=str(tmp_path / "small"))
    last = load_checkpoint(str(tmp_path / "small" / "last"))
    save_checkpoint(
        Checkpoint(last.params, last.opt_state, last.epoch, last.best_metric, cfg, last.history),
        str(tmp_path / "run" / "last"),
    )
    _, other = make_kg([("x", "r1", "y"), ("y", "r2", "z")])
    with pytest.raises(CheckpointError, match=r"^parameters for 6 entities and 3 relations; "
                       r"the KG has 3 entities and 2 relations$"):
        train(cfg, other, run_dir=str(tmp_path / "run"), resume=True)
    assert load_checkpoint(str(tmp_path / "run" / "last")).epoch == 1  # nothing trained


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


def test_an_int_in_a_float_field_survives_save_load_and_resume(tmp_path, toy_kg):
    """``lr=1`` and ``margin=2`` built in code are hashed as the floats meta gives back."""
    _, kg = toy_kg
    cfg = train_config(lr=1, margin=2, max_epochs=2)
    first = train(cfg, kg, run_dir=str(tmp_path))
    assert load_checkpoint(str(tmp_path / "last")).config == cfg
    resumed = train(cfg, kg, run_dir=str(tmp_path), resume=True)
    assert resumed.history == first.history
    assert_tables_equal(resumed.last.params, first.last.params)


@pytest.mark.parametrize("dataset", ["007", "1e5", "true"])
def test_config_meta_parsed_by_declared_type(tmp_path, toy_kg, dataset):
    _, kg = toy_kg
    cfg = train_config(dataset=dataset, max_epochs=1)
    train(cfg, kg, run_dir=str(tmp_path))
    back = load_checkpoint(str(tmp_path / "last"))
    assert back.config == cfg
    assert back.config.dataset == dataset


@pytest.mark.parametrize("line_break", ["\n", "\r"])
def test_a_dataset_name_with_a_line_break_fails_before_the_run_directory(
    tmp_path, toy_kg, line_break
):
    """Its checkpoints could not be read back: the name would split its meta line."""
    _, kg = toy_kg
    cfg = train_config(dataset=f"toy{line_break}set", max_epochs=1)
    with pytest.raises(ConfigError, match="config field 'dataset' must be one line"):
        train(cfg, kg, run_dir=str(tmp_path / "run"))
    assert not (tmp_path / "run").exists()


def test_a_checkpoint_with_the_former_vocab_dataset_line_loads(tmp_path, toy_kg):
    """Checkpoints once also wrote ``vocab.dataset``, which no reader needs."""
    _, kg = toy_kg
    cfg = train_config(dataset="toy", max_epochs=1)
    train(cfg, kg, run_dir=str(tmp_path))
    meta = tmp_path / "last" / "meta"
    text = meta.read_text(encoding="utf-8")
    assert "vocab.dataset" not in text
    meta.write_text(text.replace("vocab.n_entities:", "vocab.dataset: toy\nvocab.n_entities:"),
                    encoding="utf-8")
    back = load_checkpoint(str(tmp_path / "last"))
    assert back.config == cfg


def test_a_fresh_run_that_fails_before_writing_leaves_no_directory(tmp_path, toy_kg):
    """A missing rule file fails the set-up: the run directory train() made is removed,
    one that was there is kept."""
    _, kg = toy_kg
    cfg = train_config(loss="bce", rule_file=str(tmp_path / "missing.tsv"), max_epochs=1)
    with pytest.raises(DataFormatError, match="file not found"):
        train(cfg, kg, run_dir=str(tmp_path / "fresh"))
    assert not (tmp_path / "fresh").exists()
    (tmp_path / "kept").mkdir()
    with pytest.raises(DataFormatError, match="file not found"):
        train(cfg, kg, run_dir=str(tmp_path / "kept"))
    assert os.listdir(tmp_path / "kept") == []
