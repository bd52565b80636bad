"""kgembed benchmark: one command, seeded synthetic workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # the four workloads in one process

Run from the root of a kgembed checkout; the benchmark imports kgembed
from ``src/`` there and exits with status 2 if it is missing. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (output checks made and failed) and ``metrics``, the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. See README.md beside this file for every metric.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "work")
BLAS_THREADS = 1  # pinned before numpy loads; at most nproc, and steadier on a shared box

WORKLOAD_NAMES = ("train-fb15k237", "eval-fb15k237", "rgcn-wn18rr", "ruge-chain")
# set-ups per measured run (setup_s is their median): at least three, more
# while they add up to under three seconds, so a cheap set-up is sampled often
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_BUDGET_S = 3, 25, 3.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_blas() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def pin_allocator() -> str:
    """Keep freed memory in the process heap instead of returning it to the kernel.

    kgembed allocates and frees tens of MiB of temporaries per training
    step. Under glibc's defaults those come from fresh mmap()s, and the
    page faults that fill them cost a quarter of a training unit's time on
    a two-core VM, with the kernel-side cost varying several-fold from
    minute to minute. Serving them from a heap that is never trimmed
    removes that fault cost and most of the run-to-run noise; the
    arithmetic and memory traffic of the temporaries are still measured.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return "default (no glibc)"
    libc.mallopt.argtypes, libc.mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    never = 2**31 - 1  # the largest C int: no block is ever mmap()ed or trimmed
    ok = libc.mallopt(m_mmap_threshold, never) and libc.mallopt(m_trim_threshold, never)
    return "glibc heap, no mmap, no trim" if ok else "default (mallopt refused)"


def machine_info() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
    }


def peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def untraced_span(name, new_group=False):
    return nullcontext()


def measure(workload, seed: int, seconds: float, workdir: str) -> dict:
    """Set up several times, repeat units for ``seconds``, then check the outputs."""
    data = os.path.join(workdir, "data")
    workload.generate(seed, data)

    setup_walls = []
    state = None
    while len(setup_walls) < SETUP_MIN_REPEATS or (
        len(setup_walls) < SETUP_MAX_REPEATS and sum(setup_walls) < SETUP_BUDGET_S
    ):
        state = None  # release the previous set-up before timing the next
        t0 = time.perf_counter()
        state = workload.setup(data, seed)
        setup_walls.append(time.perf_counter() - t0)

    # The first unit warms the heap and caches and is not timed; timed units
    # follow until ``seconds`` have passed since it started, at least two.
    units = []
    start = time.perf_counter()
    while len(units) < 3 or time.perf_counter() - start < seconds:
        units.append(workload.unit(state, os.path.join(workdir, "run"), untraced_span))
    rss = peak_rss_mib()

    from workloads import EVAL_QUERIES, Check

    first, timed = units[0], units[1:]
    checks = [Check(f"unit {i} output equals unit 0", u.outputs == first.outputs)
              for i, u in enumerate(timed, start=1)]
    checks += workload.checks(state, first)

    # each timed part's median over the units; a unit's time is the sum of its parts
    part_wall = {p: statistics.median(u.walls[p] for u in timed) for p in first.walls}
    work_per_s = first.items / sum(part_wall.values())
    e2e = {
        "setup_s": (statistics.median(setup_walls), "s"),
        "work_per_s": (work_per_s, "1/s"),
        "peak_rss_mib": (rss, "MiB"),
    }
    # the workload-specific figures, printed by name
    named = {}
    if "final_loss" in first.quality:
        named["train_triples_per_s"] = (work_per_s, "1/s")
        named["final_loss"] = (first.quality["final_loss"], "loss")
    if "mrr" in first.quality:
        named["mrr"] = (first.quality["mrr"], "mrr")
    for m, t in part_wall.items():
        if m in EVAL_QUERIES:
            named[f"eval_qps.{m}"] = (2 * EVAL_QUERIES[m] / t, "1/s")
    info = {"timed_units": len(timed),
            "unit_wall_s (first untimed)": [round(sum(u.walls.values()), 4) for u in units],
            "setup_wall_s": [round(t, 4) for t in setup_walls]}
    return {"checks": checks, "metrics": e2e, "named": named, "info": info}


def traced_run(workload, seed: int, workdir: str, trace_path: str) -> dict:
    """Untraced and traced set-up + unit passes; per-layer metrics from the traced one."""
    from tracing import Tracer, layer_metrics, traced
    from workloads import Check

    data = os.path.join(workdir, "data")
    workload.generate(seed, data)
    run_dir = os.path.join(workdir, "run")

    def untraced_pass():
        t0 = time.perf_counter()
        state = workload.setup(data, seed)
        unit = workload.unit(state, run_dir, untraced_span)
        return time.perf_counter() - t0, unit

    # an untimed warm-up pass, then untraced passes before and after the
    # traced one, so drift weighs on both sides of the overhead ratio
    _, plain = untraced_pass()
    wall_before, plain_before = untraced_pass()
    tr = Tracer()
    t0 = time.perf_counter()
    with traced(tr):
        with tr.span("bench.setup", new_group=True):
            state = workload.setup(data, seed)
        with tr.span("bench.unit", new_group=True):
            traced_unit = workload.unit(state, run_dir, tr.span)
    wall_traced = time.perf_counter() - t0
    tr.write(trace_path)
    checks = [Check("traced outputs equal untraced outputs", traced_unit.outputs == plain.outputs)]
    checks += workload.checks(state, traced_unit)
    state = traced_unit = None
    wall_after, plain_after = untraced_pass()
    checks += [Check(f"untraced pass {i} outputs repeat", u.outputs == plain.outputs)
               for i, u in ((2, plain_before), (4, plain_after))]
    wall_plain = 0.5 * (wall_before + wall_after)

    layers = layer_metrics(tr)
    overhead = wall_traced / wall_plain - 1.0
    layers["trace.overhead_frac"] = (overhead, "fraction")
    self_sum = sum(tr.self_times().values())
    info = {"untraced_wall_s": round(wall_plain, 4), "traced_wall_s": round(wall_traced, 4),
            "span_self_sum_s": round(self_sum, 4), "spans": len(tr.spans), "trace_file": trace_path}
    return {"checks": checks, "metrics": layers, "named": {}, "info": info}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    # benchmark modules load numpy, so they are imported only after main() pinned BLAS
    from workloads import WORKLOADS

    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{name}-seed{seed}-pid{os.getpid()}")
    try:
        if trace:
            trace_path = os.path.join(WORK, f"trace-{name}-seed{seed}.tsv")
            return traced_run(WORKLOADS[name], seed, workdir, trace_path)
        return measure(WORKLOADS[name], seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(name: str, res: dict) -> None:
    print(f"== {name}")
    for key, value in res["info"].items():
        print(f"   {key}: {value}")
    for metric, (value, unit) in {**res["metrics"], **res["named"]}.items():
        print(f"   {metric:<42} {value:>16.6g} {unit}")
    for c in res["checks"]:
        if not c.ok:
            print(f"   FAILED CHECK {c.name}: {c.detail}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kgembed", "__init__.py")):
        print(f"perfbench: no kgembed sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    pin_blas()
    allocator = pin_allocator()
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

    print("machine:", json.dumps({**machine_info(), "allocator": allocator}))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_one(name, args.seed, args.seconds, bool(args.trace))
        report(name, results[name])

    attempted = sum(len(r["checks"]) for r in results.values())
    failed = sum(not c.ok for r in results.values() for c in r["checks"])
    if args.workload == "all":
        metrics = {f"{n}.{k}": {"value": v, "unit": u}
                   for n, r in results.items() for k, (v, u) in {**r["metrics"], **r["named"]}.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in results[names[0]]["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
