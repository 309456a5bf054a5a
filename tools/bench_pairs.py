"""Alternating parent/change pairs of the perfbench workloads, one BENCH file.

    python3 tools/bench_pairs.py PARENT [--change REV] --out BENCH_<n>.json \
        [--claim WORKLOAD:METRIC] [--description TEXT]

Run from the root of a git checkout.  Each of the two commits is exported
with `git archive` into its own directory of a temporary work directory,
so both trees hold exactly their committed files, as the benchmark's own
checkout does, and the repository gets no extra worktree.  The workloads,
the end-to-end metrics, their bounds and the run length come from the
change's BENCHMARK.json.  Each of the ten SEEDS is one pair: `perfbench/run.py
--workload W --seed S --seconds T --trace 0` runs on both trees for every
workload in turn, the parent first at odd seeds and the change first at
even ones, with PYTHONDONTWRITEBYTECODE=1 and LDL_THREADS unset.  Halfway
through the seeds the two directories swap names, so a bias of the
directory falls on both sides alike.  Last, Tier-1 runs once in each tree.

The JSON written has the schema of the BENCH files: the machine (nproc,
Python, numpy, the SIMD targets numpy dispatches to, the C library, the
cold bytecode, platform); per workload every run and, per metric, the
medians, the parent's quartiles, the pairs the change won and the change
in per cent; the claim, judged by RULE, and whether its median gain
is past the metric's bound; notes that hold every median against its
bound; and the Tier-1 pass count, wall time and peak RSS of each tree,
beside its line counts of src/ldl/*.py and tests/*.py.  Quartiles are
the inclusive ones (numpy's linear percentiles).  The runs are written
out before anything is judged, and a metric missing from a failed run
has no summary: a claim on it is not met, as is one whose change failed
more operations than its parent.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RULE = ("change better in at least 9 of 10 pairs, and the median gap "
        "larger than the parent's interquartile range")
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
SIZED = ("src/ldl/*.py", "tests/*.py")
SIDES = ("parent", "change")
SEEDS = range(21, 31)
MIN_PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The committed files of rev in dest."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def child_env(**extra: str) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **extra)
    env.pop("LDL_THREADS", None)
    return env


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its last JSON line, or a failed run with the
    tail of its error output."""
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=child_env(), capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        return {"correct": False, "attempted": 0, "failed": None,
                "metrics": {}, "error": res.stderr[-2000:]}
    return json.loads(lines[-1])


def run_pairs(work: Path, seeds: range, workloads: list,
              seconds: float) -> tuple:
    """({workload: {side: [run, ...]}}, {side: directory name} at the
    end), the trees being work/dA (parent) and work/dB (change) at first."""
    where = {"parent": "dA", "change": "dB"}
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for i, seed in enumerate(seeds):
        if i == len(seeds) // 2:
            (work / "dA").rename(work / "swap")
            (work / "dB").rename(work / "dA")
            (work / "swap").rename(work / "dB")
            where = {"parent": "dB", "change": "dA"}
        for w in workloads:
            for side in SIDES if seed % 2 else SIDES[::-1]:
                run = run_once(work / where[side], w, seed, seconds)
                runs[w][side].append({**run, "seed": seed,
                                      "dir": where[side]})
                print(f"seed {seed} {w} {side}: "
                      f"{json.dumps(run['metrics'])[:160]}", file=sys.stderr)
    return runs, where


def summarize(parent: list, change: list, lower_better: bool) -> dict:
    """Medians, the parent's quartiles and the pairs the change won."""
    won = sum((c < p) if lower_better else (c > p)
              for p, c in zip(parent, change))
    pm, cm = statistics.median(parent), statistics.median(change)
    q = statistics.quantiles(parent, n=4, method="inclusive")
    return {"parent_median": pm, "parent_quartiles": [q[0], q[2]],
            "change_median": cm, "change_better_pairs": won,
            "pairs": len(parent),
            "change_vs_parent_pct": round(100.0 * (cm - pm) / pm, 2)}


def failed_ops(failed: dict) -> dict:
    """The operations each side failed over its runs; None for a side
    with a run that gave no count (it crashed)."""
    return {side: None if None in counts else sum(counts)
            for side, counts in failed.items()}


def claim_met(row: dict | None, lower_better: bool, failed: dict) -> bool:
    """RULE over at least MIN_PAIRS pairs, with the change failing no more
    operations than the parent; not met for a metric without a summary."""
    ops = failed_ops(failed)
    if (row is None or row["pairs"] < MIN_PAIRS or None in ops.values()
            or ops["change"] > ops["parent"]):
        return False
    q1, q3 = row["parent_quartiles"]
    gap = row["parent_median"] - row["change_median"]
    return (10 * row["change_better_pairs"] >= 9 * row["pairs"]
            and (gap if lower_better else -gap) > q3 - q1)


def past_bound(row: dict | None, metric: dict) -> bool:
    """Whether the change's median gain, relative to the parent's median,
    is larger than the metric's bound: a claim within the bound cannot be
    told from noise the bound allows.  False for a metric without a
    summary."""
    if row is None:
        return False
    gain = row["parent_median"] - row["change_median"]
    if metric["better"] != "lower":
        gain = -gain
    return gain / abs(row["parent_median"]) > metric["bound"]


def bound_note(name: str, row: dict, metric: dict, parent: list,
               change: list) -> str:
    """The medians, the pairs won, and the change's median held against
    the parent's by the metric's bound: unresolved when the parent's
    interquartile range, relative to its median, is wider than the bound,
    unless every change run is better than every parent run."""
    lower = metric["better"] == "lower"
    q1, q3 = row["parent_quartiles"]
    separated = (max(change) < min(parent) if lower
                 else min(change) > max(parent))
    if (q3 - q1) / abs(row["parent_median"]) > metric["bound"] \
            and not separated:
        verdict = "unresolved against"
    elif (1 if lower else -1) * row["change_vs_parent_pct"] / 100.0 \
            > metric["bound"]:
        verdict = "worse than"
    else:
        verdict = "within"
    return (f"{name} {row['parent_median']:.4g} -> "
            f"{row['change_median']:.4g} {metric['unit']} "
            f"({row['change_vs_parent_pct']:+.1f} %), "
            f"{row['change_better_pairs']} of {row['pairs']} pairs better, "
            f"{verdict} its bound ({metric['bound']:.0%})")


def tier1(tree: Path) -> dict:
    """Tier-1 in tree: its pass counts, wall time and the peak RSS of the
    pytest process, from os.wait4 as perfbench's run_child reads it."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *TIER1], cwd=tree,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True,
                            env=child_env(PYTHONPATH="src"))
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    tail = (out.strip().splitlines() or [""])[-1]
    counts = {key: int(n) for n, key in
              re.findall(r"(\d+) (passed|failed|error)", tail)}
    return {**counts, "pytest_s": round(seconds, 2),
            "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),
            "summary": tail}


def lines(tree: Path) -> dict:
    """The lines of the files of each SIZED pattern in tree, as
    `cat PATTERN | wc -l` counts them."""
    return {pattern: sum(path.read_bytes().count(b"\n")
                         for path in tree.glob(pattern))
            for pattern in SIZED}


def machine() -> dict:
    """nproc, Python, numpy and the SIMD targets its dispatch uses here
    (which decide the bits the Tier-1 pins hold), the C library (whose
    malloc decides the peak RSS), the children's cold bytecode (compiling
    the package adds to their peak RSS) and the platform."""
    import numpy
    from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                               __cpu_features__)
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__,
            "numpy_dispatch": [t for t in __cpu_dispatch__
                               if __cpu_features__[t]],
            "libc": " ".join(platform.libc_ver()),
            # child_env: fresh exports, no bytecode written
            "bytecode": "cold: PYTHONDONTWRITEBYTECODE=1",
            "platform": platform.platform()}


def judge(doc: dict, metrics: dict, claim: str | None) -> None:
    """Add to a doc holding the runs, per workload, the summaries of the
    metrics every run measured and their notes, and the claim."""
    for w, block in doc["workloads"].items():
        for name, m in metrics.items():
            series = [[r["metrics"][name]["value"] for r in block["runs"][side]
                       if name in r["metrics"]] for side in SIDES]
            if len(series[0]) == len(series[1]) == len(SEEDS):
                block["summary"][name] = summarize(*series,
                                                   m["better"] == "lower")
                doc["notes"][w].append(bound_note(
                    name, block["summary"][name], m, *series))
    if claim:
        w, _, name = claim.partition(":")
        block = doc["workloads"][w]
        row = block["summary"].get(name)
        doc["claim"] = {
            "workload": w, "metric": name, "rule": RULE,
            **{k: row[k] for k in ("parent_median", "parent_quartiles",
                                   "change_median", "change_better_pairs")
               if row},
            "failed_ops": failed_ops(block["failed"]),
            "met": claim_met(row, metrics[name]["better"] == "lower",
                             block["failed"]),
            "past_bound": past_bound(row, metrics[name])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent commit")
    parser.add_argument("--change", default="HEAD", help="the change commit")
    parser.add_argument("--out", required=True, help="the BENCH file")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims")
    parser.add_argument("--description", default="",
                        help="what the change does, put before the method")
    args = parser.parse_args()

    revs = {side: git("rev-parse", "--short", rev)
            for side, rev in zip(SIDES, (args.parent, args.change))}
    spec = json.loads(git("show", f"{revs['change']}:BENCHMARK.json"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    if args.claim:
        w, _, name = args.claim.partition(":")
        if w not in workloads or name not in metrics:
            parser.error(f"--claim {args.claim}: no such workload:metric")
    out = Path(args.out)
    doc = {"description": " ".join(filter(None, [args.description, (
               f"Method: {len(SEEDS)} parent/change pairs per workload "
               "(python3 perfbench/run.py --workload W --seed S --seconds "
               f"{spec['run_seconds']} --trace 0; seeds {SEEDS[0]}-"
               f"{SEEDS[-1]}, the parent first in odd seeds, the workloads "
               "interleaved within each pair; the trees swap directories "
               "halfway), written by tools/bench_pairs.py.")])),
           **revs, "machine": machine(), "workloads": {}, "notes": {}}
    work = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        export(revs["parent"], work / "dA")
        export(revs["change"], work / "dB")
        runs, where = run_pairs(work, SEEDS, workloads, spec["run_seconds"])
        for w in workloads:
            doc["workloads"][w] = {
                "summary": {},
                "correct": all(r["correct"] for side in SIDES
                               for r in runs[w][side]),
                "failed": {side: [r["failed"] for r in runs[w][side]]
                           for side in SIDES},
                "runs": runs[w]}
            doc["notes"][w] = []
        tier1_rows = {side: {**tier1(work / where[side]),
                             "lines": lines(work / where[side])}
                      for side in SIDES}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    doc["tier1"] = {"command": "PYTHONPATH=src python " + " ".join(TIER1),
                    "note": "one run per tree, parent first", **tier1_rows}
    out.write_text(json.dumps(doc, indent=1) + "\n")
    judge(doc, metrics, args.claim)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
