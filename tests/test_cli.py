import os
import subprocess
import sys
import time

import numpy as np
import pytest

import kgembed
from kgembed.cli import main

from conftest import write_dataset


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def dataset(tmp_path):
    pairs = [(f"a{i}", f"b{i}") for i in range(4)]
    train = [(a, "fwd", b) for a, b in pairs] + [(b, "rev", a) for a, b in pairs]
    return str(write_dataset(tmp_path / "toy", train, train[:4], train[4:]))


@pytest.fixture
def config_path(tmp_path, dataset):
    p = tmp_path / "train.conf"
    p.write_text(
        f"dataset: {dataset}\n"
        "model: transe\n"
        "dim: 8\n"
        "lr: 0.05\n"
        "loss: margin\n"
        "margin: 2.0\n"
        "sampler: uniform\n"
        "n_neg: 2\n"
        "batch_size: 8\n"
        "max_epochs: 6\n"
        "check_per_epoch: 3\n"
        "patience: 5\n"
        "seed: 1\n"
    )
    return str(p)


# --- preprocess --------------------------------------------------------------


def test_preprocess_summary_and_dumps(capsys, dataset, tmp_path):
    out = str(tmp_path / "dumps")
    code, stdout, _ = run(capsys, "preprocess", dataset, "--out", out)
    assert code == 0
    assert "entities=8 relations=2 train=8" in stdout
    first = open(os.path.join(out, "entities.tsv")).read()
    code, _, _ = run(capsys, "preprocess", dataset, "--out", out)
    assert code == 0
    assert open(os.path.join(out, "entities.tsv")).read() == first  # idempotent


def test_preprocess_missing_file_names_it(capsys, tmp_path):
    d = tmp_path / "broken"
    d.mkdir()
    (d / "train.txt").write_text("a\tr\tb\n")
    (d / "valid.txt").write_text("a\tr\tb\n")
    code, _, err = run(capsys, "preprocess", str(d))
    assert code == 1
    assert "test.txt" in err


# --- ground ------------------------------------------------------------------


def test_ground_writes_expected_lines(capsys, dataset, tmp_path):
    rules = tmp_path / "rules.tsv"
    rules.write_text("0.9\trev\tfwd\n")
    out = tmp_path / "groundings.tsv"
    code, stdout, _ = run(capsys, "ground", dataset, str(rules), str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # one per fwd train triple
    # join oracle: fwd maps a_i (id 2i) to b_i (id 2i+1); conclusion swaps pair
    assert lines[0].startswith("0.9\t")
    conf, concl, body = lines[0].split("\t")
    bh, br, bt = (int(x) for x in body.split(","))
    ch, cr, ct = (int(x) for x in concl.split(","))
    assert (ch, ct) == (bh, bt) and br != cr


def test_ground_empty_rule_file(capsys, dataset, tmp_path):
    rules = tmp_path / "rules.tsv"
    rules.write_text("")
    out = tmp_path / "g.tsv"
    code, _, _ = run(capsys, "ground", dataset, str(rules), str(out))
    assert code == 0
    assert out.read_text() == ""


def test_ground_bad_confidence(capsys, dataset, tmp_path):
    rules = tmp_path / "rules.tsv"
    rules.write_text("1.5\trev\tfwd\n")
    code, _, err = run(capsys, "ground", dataset, str(rules), str(tmp_path / "g.tsv"))
    assert code == 1
    assert "confidence" in err


# --- train / eval ------------------------------------------------------------


def test_train_writes_checkpoint_and_log(capsys, config_path, tmp_path):
    out = str(tmp_path / "run")
    code, stdout, _ = run(capsys, "train", config_path, "--out", out)
    assert code == 0
    assert os.path.exists(os.path.join(out, "best", "meta"))
    assert os.path.exists(os.path.join(out, "last", "meta"))
    log = open(os.path.join(out, "train.log")).read().splitlines()
    assert any("\ttrain\tloss\t" in l for l in log)
    assert any("\tvalid\tmrr\t" in l for l in log)
    assert "best valid MRR" in stdout


# trains ``argv[2]`` into ``argv[1]``, its first epoch held until the file ``argv[3]/go`` exists
HELD_RUN = """
import importlib, os, sys, time
from kgembed.cli import main

run_dir, config, marks = sys.argv[1:]
module = importlib.import_module("kgembed.train")  # the package's ``train`` is the function
epoch = module._epoch

def held(*args):
    open(os.path.join(marks, "started"), "w").close()
    while not os.path.exists(os.path.join(marks, "go")):
        time.sleep(0.01)
    return epoch(*args)

module._epoch = held
sys.exit(main(["train", config, "--out", run_dir]))
"""


def test_a_second_run_on_a_run_directory_in_use_exits_2(capsys, config_path, tmp_path):
    """Two processes: while one trains in ``run``, a second ``train --out run`` exits 2 at once,
    naming it; the first writes its whole log, and the directory is free once it ends."""
    run_dir = tmp_path / "run"
    src = os.path.dirname(os.path.dirname(kgembed.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-c", HELD_RUN, str(run_dir), config_path, str(tmp_path)]
    first = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        deadline = time.monotonic() + 60
        while not (tmp_path / "started").exists():
            if first.poll() is not None or time.monotonic() > deadline:
                pytest.fail("the first run never trained")
            time.sleep(0.01)
        code, _, err = run(capsys, "train", config_path, "--out", str(run_dir))
    finally:
        (tmp_path / "go").touch()
        try:
            output = first.communicate(timeout=120)[0].decode()
        except subprocess.TimeoutExpired:
            first.kill()
            first.communicate()
            pytest.fail("the first run did not end")
    assert code == 2
    assert f"run directory {run_dir} is in use by another run" in err
    assert first.returncode == 0, output
    log = (run_dir / "train.log").read_text().splitlines()
    epochs = [line.split("\t")[0] for line in log if "\ttrain\t" in line]
    assert epochs == [str(e) for e in range(1, 7)]
    assert sorted(os.listdir(run_dir)) == ["best", "last", "train.log"]
    assert run(capsys, "train", config_path, "--out", str(run_dir))[0] == 0


def test_train_then_eval_prints_metrics(capsys, config_path, tmp_path):
    out = str(tmp_path / "run")
    assert run(capsys, "train", config_path, "--out", out)[0] == 0
    code, stdout, _ = run(capsys, "eval", os.path.join(out, "best"), "--split", "test")
    assert code == 0
    machine = [l for l in stdout.splitlines() if l.startswith("METRICS\t")]
    assert len(machine) == 1
    fields = machine[0].split("\t")
    assert fields[1] == "test" and len(fields) == 7
    assert 0 < float(fields[2]) <= 1


def test_eval_untrained_random_checkpoint_sanity_band(capsys, config_path, tmp_path, dataset):
    # zero-epoch training: random params; filtered MRR should sit near the
    # analytic expectation for uniform random ranks and far from 1.0
    p = tmp_path / "zero.conf"
    p.write_text(open(config_path).read().replace("max_epochs: 6", "max_epochs: 0"))
    out = str(tmp_path / "zrun")
    assert run(capsys, "train", str(p), "--out", out)[0] == 0
    code, stdout, _ = run(capsys, "eval", os.path.join(out, "best"), "--split", "test")
    assert code == 0
    mrr = float([l for l in stdout.splitlines() if l.startswith("METRICS")][0].split("\t")[2])
    # 8 entities, ~7 filtered candidates: E[MRR] = H_7/7 ~ 0.37; allow a wide band
    assert 0.05 < mrr < 0.85


def test_eval_rejects_a_bad_threads_override(capsys, config_path, tmp_path):
    p = tmp_path / "zero.conf"
    p.write_text(open(config_path).read().replace("max_epochs: 6", "max_epochs: 0"))
    out = str(tmp_path / "zrun")
    assert run(capsys, "train", str(p), "--out", out)[0] == 0
    for command in (["train", str(p), "--out", out], ["eval", os.path.join(out, "best")]):
        code, stdout, err = run(capsys, *command, "--threads", "-3")
        assert code == 1 and not stdout
        assert "config field 'threads' must be >= 1" in err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_every_threads_override_below_one_exits_1(capsys, config_path, tmp_path, threads):
    """An explicit ``--threads 0`` is an override like any other, not "no override"."""
    p = tmp_path / "zero.conf"
    p.write_text(open(config_path).read().replace("max_epochs: 6", "max_epochs: 0"))
    out = str(tmp_path / "zrun")
    assert run(capsys, "train", str(p), "--out", out)[0] == 0
    tune = tmp_path / "tune.conf"
    tune.write_text(open(p).read() + "lr: [0.1, 0.01]\n")
    tune.write_text(tune.read_text().replace("lr: 0.05\n", ""))
    for command in (
        ["train", str(p), "--out", out], ["eval", os.path.join(out, "best")], ["tune", str(tune)]
    ):
        code, stdout, err = run(capsys, *command, "--threads", threads)
        assert code == 1 and not stdout, command
        assert "config field 'threads' must be >= 1" in err, command


def test_eval_on_a_kg_of_another_size_exits_2(capsys, config_path, tmp_path):
    """A checkpoint of 8 entities evaluated on a 10-entity dataset names both sizes."""
    out = str(tmp_path / "run")
    assert run(capsys, "train", config_path, "--out", out)[0] == 0
    rows = [(f"a{i}", "fwd", f"b{i}") for i in range(5)]
    bigger = str(write_dataset(tmp_path / "big", rows, rows[:2], rows[2:]))
    code, stdout, err = run(capsys, "eval", os.path.join(out, "best"), "--dataset", bigger)
    assert code == 2 and not stdout
    assert err == ("error: parameters for 8 entities and 2 relations; "
                   "the KG has 10 entities and 1 relations\n")


def test_eval_missing_checkpoint(capsys, tmp_path):
    code, _, err = run(capsys, "eval", str(tmp_path / "nope"))
    assert code == 2
    assert "meta" in err


def test_train_bad_config_key_exit_1(capsys, tmp_path, dataset):
    p = tmp_path / "bad.conf"
    p.write_text(f"dataset: {dataset}\nlearning_rate: 0.1\n")
    code, _, err = run(capsys, "train", str(p))
    assert code == 1
    assert "learning_rate" in err


def test_train_config_not_utf8_exit_1(capsys, tmp_path, dataset):
    p = tmp_path / "bad.conf"
    p.write_bytes(f"dataset: {dataset}\n".encode() + b"model: trans\xff\n")
    code, _, err = run(capsys, "train", str(p))
    assert code == 1
    assert "bad.conf:2: not UTF-8" in err


def test_usage_error_exit_1(capsys):
    assert main(["train"]) == 1  # missing config argument
    assert main(["frobnicate"]) == 1


# --- tune ---------------------------------------------------------------------


def test_tune_grid_prints_trials_and_best(capsys, tmp_path, dataset):
    p = tmp_path / "tune.conf"
    p.write_text(
        f"dataset: {dataset}\n"
        "model: transe\n"
        "dim: 8\n"
        "loss: margin\n"
        "n_neg: 2\n"
        "batch_size: 8\n"
        "max_epochs: 2\n"
        "check_per_epoch: 5\n"
        "seed: 0\n"
        "lr: [0.1, 0.01]\n"
        "margin: [1.0, 2.0, 4.0]\n"
    )
    code, stdout, _ = run(capsys, "tune", str(p), "--strategy", "grid")
    assert code == 0
    lines = stdout.splitlines()
    trials = [l for l in lines if l.startswith("TRIAL\t")]
    best = [l for l in lines if l.startswith("BEST\t")]
    assert len(trials) == 6 and len(best) == 1


def test_dataset_root_env_var(capsys, tmp_path, dataset, monkeypatch):
    monkeypatch.chdir(tmp_path / "elsewhere") if (tmp_path / "elsewhere").mkdir() else None
    monkeypatch.setenv("KGEMBED_DATA_ROOT", os.path.dirname(dataset))
    code, stdout, _ = run(capsys, "preprocess", os.path.basename(dataset), "--out", str(tmp_path / "o"))
    assert code == 0 and "entities=8" in stdout


def test_train_reads_groundings_file(capsys, tmp_path, dataset):
    # full pipeline: ground writes the file, train consumes it via rule_file
    rules = tmp_path / "rules.tsv"
    rules.write_text("0.9\trev\tfwd\n")
    gfile = tmp_path / "groundings.tsv"
    assert run(capsys, "ground", dataset, str(rules), str(gfile))[0] == 0
    conf = tmp_path / "ruge.conf"
    conf.write_text(
        f"dataset: {dataset}\n"
        "model: complex\n"
        "dim: 8\n"
        "lr: 0.05\n"
        "loss: bce\n"
        "n_neg: 2\n"
        "batch_size: 8\n"
        "max_epochs: 4\n"
        "check_per_epoch: 2\n"
        "seed: 2\n"
        f"rule_file: {gfile}\n"
        "rule_weight: 0.5\n"
    )
    out = str(tmp_path / "run")
    code, stdout, err = run(capsys, "train", str(conf), "--out", out)
    assert code == 0, err
    assert os.path.exists(os.path.join(out, "best", "meta"))


def test_tune_random_deterministic(capsys, tmp_path, dataset):
    p = tmp_path / "tune.conf"
    p.write_text(
        f"dataset: {dataset}\nmodel: distmult\ndim: 4\nmax_epochs: 1\ncheck_per_epoch: 5\n"
        "lr: [0.1, 0.05, 0.01]\n"
    )
    code1, out1, _ = run(capsys, "tune", str(p), "--strategy", "random", "--trials", "4", "--seed", "7")
    code2, out2, _ = run(capsys, "tune", str(p), "--strategy", "random", "--trials", "4", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
