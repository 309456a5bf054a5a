"""Benchmark of ldl: per-prime tabulation, explicit-formula sweep, cold CLI.

    python3 perfbench/run.py --workload {tabulate,sweep,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
src/ directory.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones
from a traced run, whose spans are also written to .perfbench/.  Problems
found by the checks go to standard error.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def import_ldl() -> None:
    """Import the checkout's own ldl, or stop without a result."""
    if not (SRC / "ldl" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ldl sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ldl
    if Path(ldl.__file__).resolve().parent != SRC / "ldl":
        sys.exit(f"perfbench: imported ldl from {ldl.__file__}, not {SRC}")


def measure_import() -> float:
    """Median wall time of fresh processes that start the interpreter and
    import ldl."""
    import workloads
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ldl"], cwd=ROOT,
                       env=workloads.child_env(), check=True,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def read_dumps(span_dir: Path) -> list:
    dumps = []
    for path in sorted(span_dir.glob("*.json")):
        dumps.extend(json.loads(path.read_text()))
    return dumps


def run_tabulate(args, rngs, trace_dir):
    import workloads as wl
    rss_kb = []
    ops = wl.tabulate_child_ops(trace_dir, rss_kb)
    rounds = wl.run_rounds(ops, rngs["order"], args.seconds,
                           max_rounds=1 if trace_dir else None)
    rss = max(rss_kb) / 1024.0
    judged = wl.judge(ops, rounds, wl.check_tabulate_op,
                      wl.check_tabulate_round)
    judged[2].extend(wl.tabulate_spot_checks(rngs["sample"]))
    dumps = read_dumps(trace_dir) if trace_dir else []
    return ops, rounds, rss, judged, dumps, 0.0


def run_sweep(args, rngs, trace_dir):
    import tracer
    import workloads as wl
    trc = None
    if trace_dir:
        trc = tracer.Tracer()
        trc.install()
    t0 = time.perf_counter()
    pair = wl.sweep_warm()
    warm_s = time.perf_counter() - t0
    ops = wl.sweep_ops(pair)
    rounds = wl.run_rounds(ops, rngs["order"], args.seconds,
                           max_rounds=1 if trace_dir else None)
    rss = wl.peak_rss_self_mb()
    if trc:
        trc.enabled = False
    limit = wl.noncm_target()
    judged = wl.judge(ops, rounds, wl.check_sweep_op,
                      lambda outs: wl.check_sweep_round(outs, limit))
    return ops, rounds, rss, judged, [trc.dump()] if trc else [], warm_s


def run_cli(args, rngs, trace_dir):
    import workloads as wl
    ops = wl.cli_ops(trace_dir)
    rounds = wl.run_rounds(ops, rngs["order"], args.seconds,
                           max_rounds=1 if trace_dir else None)
    rss = max(out["rss_kb"] for samples in rounds
              for runs in samples.values() for _, out in runs
              if isinstance(out, dict)) / 1024.0
    judged = wl.judge(ops, rounds, wl.check_cli_op, lambda outs: [])
    dumps = read_dumps(trace_dir) if trace_dir else []
    return ops, rounds, rss, judged, dumps, 0.0


RUNNERS = {"tabulate": run_tabulate, "sweep": run_sweep, "cli": run_cli}


def child(args) -> int:
    """One tabulate operation in a fresh process, for the parent."""
    import tracer
    import workloads
    trc = None
    if args.spans:
        trc = tracer.Tracer()
        trc.install()
    doc = workloads.tabulate_op_child(args.child)
    if trc:
        trc.enabled = False
        tracer.write_spans(args.spans, [trc.dump()])
    print(json.dumps(doc))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    args = parser.parse_args()
    os.environ.pop("LDL_THREADS", None)
    import_ldl()
    if args.child:
        return child(args)

    import tracer
    import workloads as wl
    rngs = {"order": random.Random(f"{args.seed}:order"),
            "sample": random.Random(f"{args.seed}:sample")}
    trace_dir = None
    if args.trace:
        trace_dir = wl.OUT_DIR / f"spans-{args.workload}-{os.getpid()}"
        trace_dir.mkdir(parents=True, exist_ok=True)
    try:
        import_s = None if args.trace else measure_import()
        ops, rounds, rss, judged, dumps, warm_s = RUNNERS[args.workload](
            args, rngs, trace_dir)
    finally:
        if trace_dir:
            shutil.rmtree(trace_dir, ignore_errors=True)
    attempted, failed, problems, known = judged
    for line in known:
        print(f"known fault: {line}", file=sys.stderr)
    for line in problems:
        print(f"PROBLEM: {line}", file=sys.stderr)

    if args.trace:
        metrics = tracer.summarize(dumps)
        tracer.write_spans(
            wl.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", dumps)
    else:
        values = {"setup_s": import_s + warm_s,
                  **wl.class_metrics(ops, rounds),
                  "peak_rss_mb": rss}
        metrics = {name: {"value": value,
                          "unit": "MB" if name == "peak_rss_mb" else "s"}
                   for name, value in values.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
