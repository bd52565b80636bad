"""Fast self-tests of the benchmark at tiny sizes: ``python3 -m pytest -q perfbench``."""

import importlib
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import kggen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from kgembed import TrainConfig, load_kg  # noqa: E402

ktrain = importlib.import_module("kgembed.train")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_zipf_kg_invariants(seed):
    shape = kggen.Shape(n_entities=101, n_relations=7, n_train=300, n_valid=20, n_test=25)
    kg = kggen.zipf_kg(shape, seed, "e{}", "r{}")
    assert (len(kg.train), len(kg.valid), len(kg.test)) == (300, 20, 25)
    train, valid, test = set(kg.train), set(kg.valid), set(kg.test)
    assert len(train) == 300 and len(valid) == 20 and len(test) == 25, "duplicate triples"
    assert not (train & valid) and not (train & test) and not (valid & test)
    assert {h for h, _, _ in kg.train} | {t for _, _, t in kg.train} == {f"e{i}" for i in range(101)}
    assert {r for _, r, _ in kg.train} == {f"r{i}" for i in range(7)}
    assert kggen.zipf_kg(shape, seed, "e{}", "r{}") == kg


def test_fb15k237_vocabulary_is_complete_in_a_small_train_split():
    kg = kggen.fb15k237_kg(3, n_train=7500, n_valid=10, n_test=10)
    entities = {h for h, _, _ in kg.train} | {t for _, _, t in kg.train}
    assert len(entities) == kggen.FB15K237.n_entities
    assert len({r for _, r, _ in kg.train}) == kggen.FB15K237.n_relations


def test_chain_kg_invariants(tmp_path):
    kg = kggen.chain_kg(5, groups=60, n_valid=5, n_test=10)
    train, valid, test = set(kg.train), set(kg.valid), set(kg.test)
    assert len(train) == len(kg.train) and not (train & valid) and not (train & test)
    train_entities = {h for h, _, _ in kg.train} | {t for _, _, t in kg.train}
    assert {h for h, _, _ in kg.test + kg.valid} | {t for _, _, t in kg.test + kg.valid} <= train_entities
    r0 = {(h, t) for h, r, t in kg.train if r == "r0"}
    r1 = {(h, t) for h, r, t in kg.train if r == "r1"}
    for a, _, c in kg.test:  # every held-out conclusion is a grounding of the rule
        assert any((a, b) in r0 and (b, c) in r1 for b in {b for _, b in r0})
    kggen.write_kg(kg, str(tmp_path))
    vocab, ikg = load_kg(str(tmp_path))
    assert ikg.n_entities == len(train_entities) and len(ikg.train) == len(kg.train)
    assert (tmp_path / "rules.txt").read_text() == "0.9\tr2\tr0\tr1\n"


@pytest.fixture
def tiny_kg(tmp_path):
    shape = kggen.Shape(n_entities=40, n_relations=3, n_train=150, n_valid=8, n_test=8)
    kggen.write_kg(kggen.zipf_kg(shape, 7, "e{}", "r{}"), str(tmp_path))
    return load_kg(str(tmp_path))[1]


def test_oracle_agrees_with_library_ranks(tiny_kg):
    filters = workloads.kevaluate.build_filter_sets(tiny_kg)
    for model in ("transe", "transr", "complex"):
        params = workloads.kmodels.init_params(model, tiny_kg.n_entities, tiny_kg.n_relations, 4, seed=1)
        checks = workloads.oracle_checks(model, params, tiny_kg, filters, tiny_kg.test[:4])
        assert len(checks) == 8 and all(c.ok for c in checks), [c for c in checks if not c.ok]
    rgcn = workloads.kgnn.init_rgcn(tiny_kg.n_entities, tiny_kg.n_relations, dim=4, n_bases=2, seed=1)
    assert all(c.ok for c in workloads.oracle_checks("rgcn", rgcn, tiny_kg, filters, tiny_kg.test[:4]))


class _OffByOneScorer:
    """Wraps a scorer and lifts one entity's score so query 0's tail rank changes."""

    def __init__(self, inner, entity):
        self.inner, self.entity = inner, entity

    def score_candidates(self, queries, slot):
        scores = self.inner.score_candidates(queries, slot)
        if slot == workloads.TAIL:
            scores[0, self.entity] = scores[0].max() + 1.0
        return scores


def test_oracle_flags_a_wrong_rank(tiny_kg):
    filters = workloads.kevaluate.build_filter_sets(tiny_kg)
    params = workloads.kmodels.init_params("distmult", tiny_kg.n_entities, tiny_kg.n_relations, 4, seed=1)
    h, r, t = tiny_kg.test[0].tolist()
    known = set(workloads.known_completions(tiny_kg, h, r, t, workloads.TAIL).tolist())
    wrong = next(e for e in range(tiny_kg.n_entities) if e not in known)
    scorer = _OffByOneScorer(ktrain.make_scorer(params, tiny_kg), wrong)
    checks = workloads.oracle_checks("distmult", params, tiny_kg, filters, tiny_kg.test[:2], scorer)
    failed = [c.name for c in checks if not c.ok]
    assert failed == ["oracle distmult tail query 0"]


def _targets():
    tr = tracing.Tracer()
    try:
        tracing.install_kgembed(tr)
        return {t: tracing._resolve_owner(t) for t in tr.installed}
    finally:
        tr.restore()


def test_tracer_restores_every_wrapper_and_records_spans(tiny_kg, tmp_path):
    targets = _targets()
    before = {t: getattr(owner, attr) for t, (owner, attr) in targets.items()}
    assert len(before) > 30
    config = TrainConfig(model="transe", dim=4, n_neg=2, batch_size=64, max_epochs=1,
                         check_per_epoch=1, patience=1, seed=0)
    plain = ktrain.train(config, tiny_kg)
    tr = tracing.Tracer()
    with tracing.traced(tr):
        with tr.span("train"):
            traced = ktrain.train(config, tiny_kg, run_dir=str(tmp_path / "run"))
    assert {t: getattr(owner, attr) for t, (owner, attr) in targets.items()} == before
    assert traced.log == plain.log
    assert workloads.param_bytes(traced.last.params) == workloads.param_bytes(plain.last.params)

    metrics = tracing.layer_metrics(tr)
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert metrics["models.grad.touched_rows"][0] > 0
    assert metrics["evaluate.queries"][0] == 2 * len(tiny_kg.valid)
    assert metrics["checkpoint.bytes_written"][0] > 0
    self_sum = sum(tr.self_times().values())
    root = tr.spans[0]
    assert root.name == "train" and self_sum == pytest.approx(root.end - root.start)
    assert {sp.group for sp in tr.spans if sp.name == "sampling.uniform_negatives"} == set(
        range(1, 4))


def test_missing_wrapper_target_leaves_its_metric_out():
    tr = tracing.Tracer()
    assert not tr.wrap("kgembed.models.no_such_function", "x")
    assert not tr.wrap("kgembed.no_such_module.f", "x")
    metrics = tracing.layer_metrics(tr)
    assert "models.score.busy_s" not in metrics and "train.self_s" in metrics
