"""Print seeded output digests: one line per case, its name and a sha256 prefix of its outputs.

Public API only, so it checks any version: ``PYTHONPATH=src python3 tools/digests.py``"""

import hashlib
import os
import tempfile

import numpy as np

from kgembed import MODEL_KINDS, IndexedKG, LabeledBatch, LossSpec, NegBatch, Rule, TrainConfig
from kgembed import grad, ground_rules, init_params, score, train
from kgembed.losses import LOSS_KINDS
from kgembed.models import fast_candidates

N_ENT, N_REL, DIM = 29, 3, 16


def digest(*parts) -> str:
    sha = hashlib.sha256()
    for part in parts:
        a = np.ascontiguousarray(np.frombuffer(part.encode(), np.uint8) if isinstance(part, str) else part)
        sha.update(f"{a.dtype}{a.shape}".encode() + a.tobytes())
    return sha.hexdigest()[:16]


def grad_digest(loss, grads) -> str:
    return digest(np.float64(loss), *[x for name in sorted(grads) for x in (name, *grads[name])])


def triples(rng, n):
    return np.stack([rng.integers(0, N_ENT, n), rng.integers(0, N_REL, n), rng.integers(0, N_ENT, n)], 1)


def scorer_cases(name, model, transe_p=1):
    rng = np.random.default_rng(7)
    params = init_params(model, N_ENT, N_REL, DIM, seed=3)
    params.transe_p = transe_p
    for table in params.tables.values():  # TransR's projections move off the identity
        table += rng.normal(0.0, 0.2, table.shape).astype(np.float32)
    pos, slots = triples(rng, 6), rng.integers(0, 2, (6, 4)).astype(np.uint8)
    neg = NegBatch(pos, rng.integers(0, N_ENT, (6, 4)), slots, np.zeros((6, 4), dtype=bool))
    yield f"{name}/score", digest(score(params, triples(rng, 20)))
    for kind in LOSS_KINDS:
        yield f"{name}/grad/{kind}", grad_digest(*grad(params, neg, LossSpec(kind, margin=2.0)))
    labeled, soft = (LabeledBatch(triples(rng, n), rng.uniform(0.0, 1.0, n)) for n in (5, 4))
    bce = LossSpec("bce", label_smoothing=0.1)
    yield f"{name}/grad/bce-soft", grad_digest(*grad(params, labeled, bce, soft=soft))
    sweep = LabeledBatch(pos, (rng.uniform(0.0, 1.0, (6, N_ENT)) < 0.3).astype(np.float64))
    yield f"{name}/grad/sampler-all", grad_digest(*grad(params, sweep, bce))
    for slot in (0, 1):
        yield f"{name}/fast_candidates/slot{slot}", digest(*fast_candidates(params, pos, slot))


def train_digest(config, kg, groundings=None) -> str:
    """The digest of a run's ``train.log`` and of every file of its last and best checkpoints."""
    with tempfile.TemporaryDirectory() as run_dir:
        train(config, kg, groundings=groundings, run_dir=run_dir)
        files = ["train.log"] + [os.path.join(c, f) for c in ("last", "best")
                                 for f in sorted(os.listdir(os.path.join(run_dir, c)))]
        return digest(*[x for f in files for x in (f, np.fromfile(os.path.join(run_dir, f), np.uint8))])


def main():
    scorers = [("transe/p1", "transe", 1), ("transe/p2", "transe", 2)]
    for name, model, p in scorers + [(m, m, 1) for m in MODEL_KINDS if m != "transe"]:
        yield from scorer_cases(name, model, p)
    rng = np.random.default_rng(11)
    kg = IndexedKG(triples(rng, 40), triples(rng, 6), triples(rng, 6), N_ENT, N_REL)
    common = dict(dim=4, lr=0.01, loss="bce", n_neg=2, batch_size=16, max_epochs=3, check_per_epoch=1)
    yield "rgcn/train", train_digest(TrainConfig(model="rgcn", n_bases=2, seed=1, **common), kg)
    rules = [Rule((0,), 1, 0.9), Rule((1, 2), 0, 0.8)]
    ruge = TrainConfig(model="complex", rule_file="in-memory", rule_batch=8, seed=2, **common)
    yield "ruge/train", train_digest(ruge, kg, ground_rules(rules, kg))
    # improves at epochs 1-5, falls at 6 and 7 and stops early at 7: a best held as a copy
    lifecycle = TrainConfig(model="transe", dim=4, lr=0.1, n_neg=2, batch_size=16, max_epochs=8,
                            check_per_epoch=1, patience=2, seed=1)
    yield "transe/train-lifecycle", train_digest(lifecycle, kg)


if __name__ == "__main__":
    for case, value in main():
        print(case, value)
