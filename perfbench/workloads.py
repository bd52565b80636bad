"""The four benchmark workloads: inputs, set-up, one timed unit of work, output checks.

kgembed is reached only through its public functions, always looked up
on their module at call time (``kgembed.train.train``, not a local
alias), so the tracer's wrappers see every call the benchmark makes.

A *unit* is the fixed piece of work a workload repeats while the run
lasts: one ``train()`` call from scratch for the training workloads, one
filtered ranking pass under every model for ``eval-fb15k237``. Units of
one run are identical, so their outputs must be byte-identical too.
"""

from __future__ import annotations

import importlib
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import kggen

# The package re-exports functions named like its modules (``kgembed.train``
# is the train function), so the modules are taken from the import system.
kdata, kevaluate, kgnn, kmodels, ksampling, ktrain = (
    importlib.import_module(f"kgembed.{m}")
    for m in ("data", "evaluate", "gnn", "models", "sampling", "train")
)
from kgembed import TrainConfig  # noqa: E402

HEAD, TAIL = ksampling.HEAD, ksampling.TAIL

# Test queries ranked per model in one eval unit. With the candidate
# kernels as they were when the benchmark was defined, each count buys
# roughly the same scoring time, so no single model's kernel dominates the
# unit's wall time (rgcn's is mostly scorer construction, which encodes the
# whole train graph).
EVAL_QUERIES = {"transe": 8, "transh": 8, "transr": 4, "distmult": 16,
                "complex": 8, "rotate": 8, "simple": 8, "rgcn": 16}
EVAL_MODELS = tuple(EVAL_QUERIES)

ORACLE_QUERIES = 2  # per model / trained model, ranked in both directions


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class UnitResult:
    walls: dict[str, float]  # wall seconds per timed part: the train() call, or each model
    items: int  # train triples (times epochs) or ranked queries, both directions
    outputs: tuple  # compared byte for byte across units and with the traced run
    quality: dict = field(default_factory=dict)  # final_loss, mrr
    extra: dict = field(default_factory=dict)  # kept for the output checks


# ---------------------------------------------------------------------------
# helpers


def param_bytes(params) -> bytes:
    tables = params.tables if isinstance(params, kmodels.ModelParams) else params.tables()
    return b"".join(name.encode() + tables[name].tobytes() for name in sorted(tables))


def known_completions(kg, h: int, r: int, t: int, slot: int) -> np.ndarray:
    """Entities completing the open slot in any split, read from the raw id arrays."""
    every = np.concatenate([kg.train, kg.valid, kg.test])
    if slot == TAIL:
        return every[(every[:, 0] == h) & (every[:, 1] == r), 2]
    return every[(every[:, 1] == r) & (every[:, 2] == t), 0]


def oracle_ranks(score_fn, kg, queries: np.ndarray, slot: int, chunk: int = 1024) -> np.ndarray:
    """Brute-force filtered mid-ranks: score every candidate triple one by one.

    ``score_fn`` maps an [n, 3] id array to float64 scores (``models.score``
    or ``gnn.rgcn_score``). Known completions other than the target are
    dropped; rank = 1 + #greater + floor(#equal / 2), target included in
    the equal set (the protocol documented in ``kgembed.evaluate``).
    """
    n_e = kg.n_entities
    ranks = []
    for h, r, t in np.asarray(queries, dtype=np.int64).tolist():
        cand = np.empty((n_e, 3), dtype=np.int64)
        cand[:] = (h, r, t)
        cand[:, 0 if slot == HEAD else 2] = np.arange(n_e)
        scores = np.concatenate([score_fn(cand[lo : lo + chunk]) for lo in range(0, n_e, chunk)])
        target = t if slot == TAIL else h
        keep = np.ones(n_e, dtype=bool)
        keep[known_completions(kg, h, r, t, slot)] = False
        keep[target] = True
        s, ts = scores[keep], scores[target]
        ranks.append(1 + int(np.count_nonzero(s > ts)) + int(np.count_nonzero(s == ts)) // 2)
    return np.array(ranks, dtype=np.int64)


def oracle_score_fn(params, kg):
    if isinstance(params, kgnn.RGCNModel):
        graph = ksampling.full_graph(kg)
        encoded = kgnn.rgcn_forward(params.layers, graph, params.entity_emb.astype(np.float64))
        return lambda triples: kgnn.rgcn_score(encoded, params.rel_emb, triples)
    return lambda triples: kmodels.score(params, triples)


def oracle_checks(label: str, params, kg, filters, queries, scorer=None) -> list[Check]:
    """Library ranks of ``queries`` against the brute-force oracle, per direction."""
    if scorer is None:
        scorer = ktrain.make_scorer(params, kg)
    score_fn = oracle_score_fn(params, kg)
    checks = []
    for direction, slot in (("head", HEAD), ("tail", TAIL)):
        got = kevaluate.ranks_for_queries(scorer, queries, slot, filters)
        want = oracle_ranks(score_fn, kg, queries, slot)
        for i, (g, w) in enumerate(zip(got.tolist(), want.tolist())):
            checks.append(Check(f"oracle {label} {direction} query {i}", g == w,
                                f"rank {g}, oracle {w}"))
    return checks


def loss_checks(log: list[str]) -> list[Check]:
    out = []
    for line in log:
        epoch, split, metric, value = line.split("\t")
        if split == "train" and metric == "loss":
            out.append(Check(f"loss epoch {epoch} finite", math.isfinite(float(value)), value))
    return out


def final_loss(log: list[str]) -> float:
    losses = [float(line.split("\t")[3]) for line in log if "\ttrain\tloss\t" in line]
    return losses[-1]


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""

    def generate(self, seed: int, directory: str) -> None:
        raise NotImplementedError

    def setup(self, directory: str, seed: int):
        """Files on disk -> everything the first training step or ranking needs."""
        raise NotImplementedError

    def unit(self, state, run_dir: str, span) -> UnitResult:
        raise NotImplementedError

    def checks(self, state, result: UnitResult) -> list[Check]:
        raise NotImplementedError


class TrainingWorkload(Workload):
    """One ``train()`` call with a run directory; subclasses give KG and config."""

    rules = False

    def config(self, seed: int, directory: str) -> TrainConfig:
        raise NotImplementedError

    def setup(self, directory: str, seed: int):
        vocab, kg = kdata.load_kg(directory)
        groundings = None
        if self.rules:
            rules = kdata.load_rules(os.path.join(directory, "rules.txt"), vocab)
            groundings = kdata.ground_rules(rules, kg)
        filters = kevaluate.build_filter_sets(kg)
        return {"kg": kg, "groundings": groundings, "filters": filters,
                "config": self.config(seed, directory)}

    def unit(self, state, run_dir: str, span) -> UnitResult:
        shutil.rmtree(run_dir, ignore_errors=True)
        kg, config = state["kg"], state["config"]
        t0 = time.perf_counter()
        with span("train"):
            result = ktrain.train(config, kg, groundings=state["groundings"], run_dir=run_dir)
        wall = time.perf_counter() - t0
        with open(os.path.join(run_dir, "train.log"), encoding="utf-8") as fh:
            log_file = fh.read()
        params = result.last.params
        return UnitResult(
            walls={"train": wall},
            items=len(kg.train) * config.max_epochs,
            outputs=(tuple(result.log), log_file, param_bytes(params)),
            quality={"final_loss": final_loss(result.log)},
            extra={"params": params, "log": result.log},
        )

    def checks(self, state, result: UnitResult) -> list[Check]:
        kg = state["kg"]
        queries = kg.test[:ORACLE_QUERIES]
        return loss_checks(result.extra["log"]) + oracle_checks(
            self.name, result.extra["params"], kg, state["filters"], queries)


class TrainFB15K237(TrainingWorkload):
    """The TransE smoke recipe through train(): sampling, scoring, gradient
    scatter and the optimizer dominate; evaluation is one small validation pass."""

    name = "train-fb15k237"

    # The cover of 14,541 entities takes 7,271 triples; the rest are zipf draws.
    n_train, n_valid, n_test = 8192, 32, 32

    def generate(self, seed, directory):
        kggen.write_kg(kggen.fb15k237_kg(seed, n_train=self.n_train, n_valid=self.n_valid,
                                         n_test=self.n_test), directory)

    def config(self, seed, directory):
        # ROADMAP smoke recipe, one epoch, one validation pass at its end
        return TrainConfig(
            model="transe", dataset=directory, dim=64, transe_p=1, loss="self_adversarial",
            margin=9.0, adv_temperature=1.0, n_neg=64, batch_size=1024, optimizer="adam",
            lr=5e-4, sampler="uniform", entity_renorm=False, max_epochs=1, check_per_epoch=1,
            patience=1, seed=seed)


class RGCNWN18RR(TrainingWorkload):
    """RGCN on a sparse WN18RR-shaped KG: sampled subgraphs, edge dropout, local
    corruption and the gnn scatters; models.grad and rules stay idle."""

    name = "rgcn-wn18rr"

    def generate(self, seed, directory):
        kggen.write_kg(kggen.wn18rr_kg(seed, n_valid=32, n_test=32), directory)

    def config(self, seed, directory):
        # 86,835 train triples exceed full_graph_threshold (50,000): sampled-subgraph path
        return TrainConfig(
            model="rgcn", dataset=directory, dim=32, n_bases=4, n_layers=2, loss="bce",
            edge_dropout=0.2, n_neg=8, optimizer="adam", lr=0.01, max_epochs=1,
            check_per_epoch=1, patience=1, seed=seed)


class RugeChain(TrainingWorkload):
    """Rule-injected ComplEx on a chain-rule KG: the only workload where
    ground_rules and per-batch soft-label prediction run, and where MRR
    carries signal."""

    name = "ruge-chain"
    rules = True
    groups = 2500  # 10,000 groundings, 2,000 of them unlabeled conclusions

    def generate(self, seed, directory):
        kggen.write_kg(kggen.chain_kg(seed, groups=self.groups, n_valid=32, n_test=256), directory)

    def config(self, seed, directory):
        return TrainConfig(
            model="complex", dataset=directory, dim=32, loss="bce", n_neg=8, batch_size=512,
            optimizer="adam", lr=0.01, sampler="uniform", max_epochs=2, check_per_epoch=2,
            patience=1, seed=seed, rule_file=os.path.join(directory, "rules.txt"),
            rule_weight=0.5, rule_batch=512)

    def checks(self, state, result):
        """The common checks; also records the held-out MRR in ``result.quality``."""
        kg = state["kg"]
        report = kevaluate.evaluate(
            ktrain.make_scorer(result.extra["params"], kg), kg, "test", state["filters"])
        result.quality["mrr"] = report.mrr
        return super().checks(state, result) + [
            Check("held-out mrr finite", math.isfinite(report.mrr), f"{report.mrr}")]


class EvalFB15K237(Workload):
    """Filtered head+tail ranking on the full FB15K-237 shape under all eight
    models: read-only, bound by candidate scoring and the filter loop, with
    the data layer at full size in set-up."""

    name = "eval-fb15k237"

    def generate(self, seed, directory):
        kggen.write_kg(kggen.fb15k237_kg(seed), directory)

    def setup(self, directory, seed):
        _, kg = kdata.load_kg(directory)
        filters = kevaluate.build_filter_sets(kg)
        return {"kg": kg, "filters": filters, "seed": seed}

    def params(self, state):
        """Seeded d=64 parameters per model, made once per run outside any timing."""
        if "params" not in state:
            kg, seed = state["kg"], state["seed"]
            state["params"] = {
                m: (kgnn.init_rgcn(kg.n_entities, kg.n_relations, dim=64, n_bases=4, seed=seed)
                    if m == "rgcn"
                    else kmodels.init_params(m, kg.n_entities, kg.n_relations, 64, seed=seed))
                for m in EVAL_MODELS
            }
        return state["params"]

    def unit(self, state, run_dir, span):
        kg, filters = state["kg"], state["filters"]
        params = self.params(state)
        walls, outputs, scorers = {}, [], {}
        for m in EVAL_MODELS:
            queries = kg.test[: EVAL_QUERIES[m]]
            t0 = time.perf_counter()
            with span(f"bench.rank.{m}"):
                scorer = ktrain.make_scorer(params[m], kg)
                report = kevaluate.evaluate(scorer, kg, queries, filters)
            walls[m] = time.perf_counter() - t0
            scorers[m] = scorer
            outputs.append((m, report.head.mrr, report.tail.mrr,
                            tuple(sorted(report.head.hits.items())),
                            tuple(sorted(report.tail.hits.items()))))
        return UnitResult(
            walls=walls,
            items=2 * sum(EVAL_QUERIES.values()),
            outputs=tuple(outputs),
            extra={"scorers": scorers},
        )

    def checks(self, state, result):
        kg, params = state["kg"], self.params(state)
        out = []
        for m in EVAL_MODELS:
            out += oracle_checks(m, params[m], kg, state["filters"], kg.test[:ORACLE_QUERIES],
                                 scorer=result.extra["scorers"][m])
        return out


WORKLOADS = {w.name: w for w in (TrainFB15K237(), EvalFB15K237(), RGCNWN18RR(), RugeChain())}
