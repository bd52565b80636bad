"""Command-line entry point: preprocess, ground, train, eval, tune.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime error.
Dataset paths resolve relative to the working directory, then under
$KGEMBED_DATA_ROOT if set.
"""

from __future__ import annotations

import argparse
import os
import sys

from .checkpoint import CheckpointError, load_checkpoint
from .config import ConfigError, build_train_config, parse_config_file
from .data import (
    DataFormatError,
    add_inverse_relations,
    ground_rules,
    load_kg,
    load_rules,
    write_groundings,
    write_vocab,
)
from .evaluate import RankingReport
from .search import grid_search, random_search
from .train import final_report, train

DATA_ROOT_ENV = "KGEMBED_DATA_ROOT"


def resolve_dataset(path: str) -> str:
    if os.path.isabs(path) or os.path.isdir(path):
        return path
    root = os.environ.get(DATA_ROOT_ENV)
    if root:
        candidate = os.path.join(root, path)
        if os.path.isdir(candidate):
            return candidate
    return path


def _print_report(split: str, report: RankingReport) -> None:
    print(f"{'':<12}{'MRR':>8}{'Hits@1':>8}{'Hits@3':>8}{'Hits@10':>9}")
    for name, d in (("head", report.head), ("tail", report.tail)):
        print(
            f"{name:<12}{d.mrr:>8.4f}{d.hits[1]:>8.4f}{d.hits[3]:>8.4f}{d.hits[10]:>9.4f}"
        )
    print(
        f"{'averaged':<12}{report.mrr:>8.4f}{report.hits(1):>8.4f}"
        f"{report.hits(3):>8.4f}{report.hits(10):>9.4f}"
    )
    # machine-readable: split, mrr, hits@1, hits@3, hits@10, n_queries
    print(
        "METRICS\t%s\t%.6g\t%.6g\t%.6g\t%.6g\t%d"
        % (split, report.mrr, report.hits(1), report.hits(3), report.hits(10), report.n_queries)
    )


def cmd_preprocess(args) -> int:
    dataset = resolve_dataset(args.dataset)
    vocab, kg = load_kg(dataset)
    out = args.out or dataset
    write_vocab(vocab, out)
    print(
        f"entities={kg.n_entities} relations={kg.n_relations} "
        f"train={len(kg.train)} valid={len(kg.valid)} test={len(kg.test)}"
    )
    return 0


def cmd_ground(args) -> int:
    dataset = resolve_dataset(args.dataset)
    vocab, kg = load_kg(dataset)
    rules = load_rules(args.rules, vocab)
    groundings = ground_rules(rules, kg)
    write_groundings(groundings, args.out)
    print(f"rules={len(rules)} groundings={len(groundings)} -> {args.out}")
    return 0


def _load_for_config(config):
    dataset = resolve_dataset(config.dataset)
    if not dataset:
        raise ConfigError("config field 'dataset' is required")
    vocab, kg = load_kg(dataset)
    if config.inverse_relations:
        kg = add_inverse_relations(kg)
    return vocab, kg


def cmd_train(args) -> int:
    doc = parse_config_file(args.config)
    config, space = build_train_config(doc, allow_lists=False)
    if args.threads is not None:
        config = config.with_overrides(threads=args.threads)
    _, kg = _load_for_config(config)
    run_dir = args.out or "run"
    result = train(config, kg, run_dir=run_dir, resume=args.resume)
    best = result.best
    metric = f"{best.best_metric:.6g}" if best.best_metric == best.best_metric else "n/a"
    print(f"trained {config.model} for {result.last.epoch} epochs; best valid MRR {metric}")
    print(f"checkpoints: {run_dir}/best {run_dir}/last; log: {run_dir}/train.log")
    return 0


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    config = ckpt.config
    if args.dataset:
        config = config.with_overrides(dataset=args.dataset)
    if args.threads is not None:
        config = config.with_overrides(threads=args.threads)
    config.validate()
    _, kg = _load_for_config(config)
    report = final_report(ckpt.params, kg, split=args.split, threads=config.threads)
    _print_report(args.split, report)
    return 0


def cmd_tune(args) -> int:
    doc = parse_config_file(args.config)
    base, space = build_train_config(doc, allow_lists=True)
    if args.threads is not None:
        base = base.with_overrides(threads=args.threads)
    _, kg = _load_for_config(base)
    if args.strategy == "grid":
        best, trials = grid_search(space, base, kg)
    else:
        best, trials = random_search(space, base, kg, n_trials=args.trials, seed=args.seed)
    keys = sorted(space)
    for t in trials:
        setting = " ".join(f"{k}={getattr(t.config, k)}" for k in keys)
        print(f"TRIAL\t{t.index}\t{t.mrr:.6g}\t{setting}")
    setting = " ".join(f"{k}={getattr(best.config, k)}" for k in keys)
    print(f"BEST\t{best.index}\t{best.mrr:.6g}\t{setting}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgembed", description="knowledge graph embedding toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="index a dataset directory and dump vocabularies")
    p.add_argument("dataset", help="directory with train.txt/valid.txt/test.txt")
    p.add_argument("--out", help="output directory for vocab dumps (default: dataset dir)")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("ground", help="instantiate rules against the train split")
    p.add_argument("dataset")
    p.add_argument("rules", help="rule file: confidence<TAB>head_rel<TAB>body_rel[<TAB>body_rel2]")
    p.add_argument("out", help="groundings output file")
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("config")
    p.add_argument("--out", help="run directory (default: ./run)")
    p.add_argument("--resume", action="store_true", help="continue from <out>/last")
    p.add_argument("--threads", type=int, help="evaluation worker threads")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("checkpoint", help="checkpoint directory (e.g. run/best)")
    p.add_argument("--split", choices=("valid", "test", "train"), default="test")
    p.add_argument("--dataset", help="override the dataset recorded in the checkpoint")
    p.add_argument("--threads", type=int)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("tune", help="hyperparameter search from a config with list values")
    p.add_argument("config")
    p.add_argument("--strategy", choices=("grid", "random"), default="grid")
    p.add_argument("--trials", type=int, default=10, help="random search trial count")
    p.add_argument("--seed", type=int, default=0, help="random search seed")
    p.add_argument("--threads", type=int)
    p.set_defaults(func=cmd_tune)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse uses status 2 for usage errors; this tool reserves 2 for runtime
        return 1 if e.code == 2 else int(e.code or 0)
    try:
        return args.func(args)
    except (ConfigError, DataFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (CheckpointError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
