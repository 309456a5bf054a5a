"""The benchmark's workloads: tabulate, sweep and cli.

A workload is a list of operations.  A run repeats whole rounds of all of
them, each round in an order drawn from the seed, until the run's seconds
are used up; every round's outputs are checked against ``oracle``.  Each
operation's time counts towards the family class it works on: the cusp-form
model, the families with complex multiplication (the sextic twists and the
quartic-twist pair) or the non-CM family; operations that span every family
count in wall_s only.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
CLASSES = ("model", "cm", "noncm")

PAIR = "indicator_smooth:0.18"
SIGMA = 0.18
SWEEP_LOGR = (50, 100, 200)
# one sextic CM family with kappa = 1 and three with kappa = 2: four
# families, so that the CM time is not a matter of a few calls
SWEEP_CM = ("cm_b1_kappa1", "cm_b1_kappa2", "cm_b2_kappa2", "cm_b3_kappa2")
QUARTIC_LOGR = 75          # R^sigma = 7.3e5 lies inside the warmed table
SWEEP_ATILDE_PRIMES = 500  # cubic-moment truncation of the sweep's S_Atilde
NONCM_ATILDE_PRIMES = 1000
CLI_PRIME_LIMIT = 300
IMPOSTOR = "perfbench/impostor_cm_b1_kappa2.json"


@dataclass
class Op:
    name: str
    cls: str | None            # family class its time counts towards
    fn: Callable[[], object]
    known_fault: bool = False  # fails every round through a known fault
    self_timed: bool = False   # fn returns (seconds, output)
    repeats: int = 1           # runs per round; its time is their median


class Failure:
    """An operation that raised instead of returning."""

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return self.text


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LDL_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _close(got: float, want: float, tol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol


def _printed(name: str, got: float, tol: float | None = None) -> list[str]:
    """Problems of `got` against a printed value: within the paper's
    tolerance, or within `tol` where a check allows more."""
    ref = oracle.PRINTED[name]
    tol = ref.tolerance if tol is None else tol
    if _close(got, ref.value, tol):
        return []
    return [f"{name}: {got!r} vs printed {ref.value} +- {tol} "
            f"({ref.citation})"]


# --------------------------------------------------------------------------
# rounds

def run_rounds(ops: list[Op], rng: random.Random, seconds: float,
               max_rounds: int | None = None) -> list[dict]:
    """Whole rounds until `seconds` have passed.  A round runs every
    operation `repeats` times in a row, the operations in an order drawn
    from `rng`; it maps each operation to its [(seconds, output)]."""
    rounds = []
    start = time.perf_counter()
    while True:
        order = list(ops)
        rng.shuffle(order)
        samples = {}
        for op in order:
            samples[op.name] = []
            for _ in range(op.repeats):
                t0 = time.perf_counter()
                try:
                    out = op.fn()
                except Exception:  # a failed operation is counted
                    out = Failure(traceback.format_exc(limit=3))
                dt = time.perf_counter() - t0
                if op.self_timed and not isinstance(out, Failure):
                    dt, out = out
                samples[op.name].append((dt, out))
        rounds.append(samples)
        if time.perf_counter() - start >= seconds or \
                len(rounds) == max_rounds:
            return rounds


def class_metrics(ops: list[Op], rounds) -> dict:
    """Seconds per class and in all: sums of each operation's median time
    over its runs in all rounds."""
    med = {op.name: statistics.median(dt for samples in rounds
                                      for dt, _ in samples[op.name])
           for op in ops}
    out = {f"{cls}_s": sum(med[op.name] for op in ops if op.cls == cls)
           for cls in CLASSES}
    out["wall_s"] = sum(med.values())
    return out


def judge(ops: list[Op], rounds, check_op, check_round) -> tuple:
    """(attempted, failed, problems, known): every run of an operation is
    checked; problems of known faults are kept apart and do not make the
    run incorrect.  Cross-operation checks see each round's first
    outputs."""
    attempted = failed = 0
    problems, known = [], []
    for samples in rounds:
        for op in ops:
            for _, out in samples[op.name]:
                attempted += 1
                probs = [f"raised: {out!r}"] if isinstance(out, Failure) \
                    else check_op(op, out)
                if probs:
                    failed += 1
                    (known if op.known_fault else problems).extend(
                        f"{op.name}: {p}" for p in probs)
        first = {name: runs[0][1] for name, runs in samples.items()}
        if not any(isinstance(o, Failure) for o in first.values()):
            problems.extend(check_round(first))
    return attempted, failed, problems, known


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# tabulate: the family cubic-moment constants

def tabulate_ops() -> list[Op]:
    from ldl import constants
    fca = constants.family_constant_Atilde
    return [
        Op("atilde:cm_b1_kappa1:own", "cm", partial(fca, "cm_b1_kappa1")),
        Op("atilde:cm_b1_kappa1:exp3", "cm",
           partial(fca, "cm_b1_kappa1", sieve_exponent=3)),
        Op("atilde:cm_b1_kappa2", "cm", partial(fca, "cm_b1_kappa2")),
        Op("atilde:rank1_36t", "cm", partial(fca, "rank1_36t")),
        # the two short ones are timed by the median of three
        Op("gamma_atilde_3", "noncm",
           partial(constants.compute_constant, "gamma_atilde_3",
                   first_primes=NONCM_ATILDE_PRIMES), repeats=3),
        Op("gamma_st_atilde", "model",
           partial(constants.compute_constant, "gamma_st_atilde"),
           repeats=3),
    ]


def tabulate_op_child(name: str) -> dict:
    """Run one tabulate operation in this fresh process: {"seconds",
    "output"} with a plain JSON output, or {"failure"}."""
    op = next(op for op in tabulate_ops() if op.name == name)
    t0 = time.perf_counter()
    try:
        out = op.fn()
    except Exception:  # reported to the parent as a failed operation
        return {"failure": traceback.format_exc(limit=3)}
    seconds = time.perf_counter() - t0
    return {"seconds": seconds,
            "output": list(out) if isinstance(out, tuple) else out.value}


def _tabulate_in_child(name: str, trace_dir: Path | None, rss: list):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", "tabulate",
            "--child", name]
    if trace_dir is not None:
        argv += ["--spans", str(trace_dir / f"{name}-{len(rss)}.json")]
    res = run_child(argv)
    rss.append(res["rss_kb"])
    if res["rc"] != 0:
        raise RuntimeError(f"exit {res['rc']}: {res['err'][-2000:]}")
    doc = json.loads(res["out"].splitlines()[-1])
    if "failure" in doc:
        raise RuntimeError(doc["failure"])
    return doc["seconds"], doc["output"]


def tabulate_child_ops(trace_dir: Path | None, rss: list) -> list[Op]:
    """The tabulate operations, each run in a fresh process so that no
    cache or heap state of the program carries over from one to the next;
    each process reports the time of the operation alone.  A traced run
    runs each once, so that its call counts are those of one pass."""
    return [Op(op.name, op.cls,
               partial(_tabulate_in_child, op.name, trace_dir, rss),
               self_timed=True,
               repeats=op.repeats if trace_dir is None else 1)
            for op in tabulate_ops()]


def check_tabulate_op(op: Op, out) -> list[str]:
    if op.name.startswith("gamma_"):
        return _printed(op.name, out)
    main, sieve = out
    fam = op.name.split(":")[1]
    probs = _printed(f"atilde_main:{fam}", main)
    if fam.startswith("cm_") and op.name != "atilde:cm_b1_kappa1:own":
        probs += _printed(f"atilde_sieve3:{fam}", sieve)
    return probs


def check_tabulate_round(outs: dict) -> list[str]:
    own = outs["atilde:cm_b1_kappa1:own"][0]
    exp3 = outs["atilde:cm_b1_kappa1:exp3"][0]
    if own != exp3:
        return [f"main sums differ between sieve conventions: {own!r} vs "
                f"{exp3!r}"]
    return []


def tabulate_spot_checks(rng: random.Random) -> list[str]:
    """Atilde(p) and H_sieve(p) against the point count on seeded primes:
    three from the residue class where they are nonzero, one outside."""
    from ldl import families
    small = [p for p in oracle.primes_up_to(1500) if p >= 5]
    plan = {"cm_b1_kappa1": (3, (6, 3)), "cm_b1_kappa2": (3, (3,)),
            "rank1_36t": (4, (3,)), "noncm_3x12t": (None, ())}
    probs = []
    for name, (modulus, exponents) in plan.items():
        curve = oracle.CURVES[name]
        fam = families.get_family(name)
        if modulus is None:
            sample = rng.sample(small, 4)
        else:
            sample = rng.sample([p for p in small if p % modulus == 1], 3) \
                + rng.sample([p for p in small if p % modulus != 1], 1)
        for p in sample:
            got, want = families.a_tilde(fam, p), oracle.a_tilde(curve, p)
            if not _close(got, want, 1e-9 * max(1.0, abs(want))):
                probs.append(f"a_tilde({name}, {p}) = {got!r}, point "
                             f"count {want!r}")
            for k in exponents:
                got = families.h_factor(fam, p, exponent=k)[1]
                want = oracle.h_sieve(curve, p, k)
                if not _close(got, want, 1e-12 * max(1e-300, abs(want))):
                    probs.append(f"h_factor({name}, {p}, {k}) = {got!r}, "
                                 f"root count {want!r}")
    return probs


# --------------------------------------------------------------------------
# sweep: evaluate_S over families and log R

def sweep_warm():
    """Set-up of the sweep: the prime table for the largest log R and the
    cubic-moment sums of every family the sweep evaluates."""
    from ldl import explicit_formula as ef
    from ldl import primes
    pair = ef.builtin_test_pair(PAIR)
    primes.get_table(math.ceil(math.exp(max(SWEEP_LOGR) * pair.sigma / 2)))
    for fam in SWEEP_CM + ("noncm_3x12t", "rank1_36t", "rank0_36t"):
        ef.evaluate_S(fam, pair, math.exp(min(SWEEP_LOGR)),
                      atilde_primes=SWEEP_ATILDE_PRIMES)
    return pair


def sweep_ops(pair) -> list[Op]:
    from ldl import explicit_formula as ef
    ops = []
    classes = [("cusp_model", "model")] + [(f, "cm") for f in SWEEP_CM] \
        + [("noncm_3x12t", "noncm")]
    for fam, cls in classes:
        for L in SWEEP_LOGR:
            for th in (1, 2):
                # the model's only large calls are timed by a median
                ops.append(Op(f"S:{fam}:{L}:{th}", cls, partial(
                    ef.evaluate_S, fam, pair, math.exp(L), threads=th,
                    atilde_primes=SWEEP_ATILDE_PRIMES),
                    repeats=3 if (fam, L) == ("cusp_model", 200) else 1))
    # the quartic pair with the whole support of S_1: primes up to R^sigma
    R = math.exp(QUARTIC_LOGR)
    for fam in ("rank1_36t", "rank0_36t"):
        for th in (1, 2):
            ops.append(Op(f"S:{fam}:{QUARTIC_LOGR}:{th}", "cm", partial(
                ef.evaluate_S, fam, pair, R,
                prime_limit=math.ceil(R ** pair.sigma), threads=th,
                atilde_primes=SWEEP_ATILDE_PRIMES)))
    return ops


def noncm_target() -> float:
    """The derived limit at the sweep's own cubic-moment truncation: the
    limit written by derive.py, its S_Atilde piece (over ATILDE_PRIMES
    primes) replaced by the same sum over SWEEP_ATILDE_PRIMES primes."""
    from ldl import constants
    lim = json.loads((HERE / "derived_limit.json").read_text())
    at = constants.compute_constant(
        "gamma_atilde_3", first_primes=SWEEP_ATILDE_PRIMES).value
    return lim["aggregate"] - lim["pieces"]["S_Atilde"] - at


def check_sweep_op(op: Op, out) -> list[str]:
    if not math.isfinite(out.total):
        return [f"total {out.total!r}"]
    return []


def check_sweep_round(outs: dict, noncm_limit: float) -> list[str]:
    probs = []
    coeff = {k: v.lower_order_coefficient for k, v in outs.items()}
    for key, out in outs.items():
        twin = key[:-1] + ("2" if key.endswith("1") else "1")
        if out.as_dict() != outs[twin].as_dict():
            probs.append(f"{key}: threads 1 and 2 differ")
    probs += _printed("aggregate:cusp_model", coeff["S:cusp_model:200:1"],
                      tol=0.01)
    for fam in SWEEP_CM:
        probs += _printed(f"aggregate:{fam}", coeff[f"S:{fam}:200:1"],
                          tol=0.1)
    errs = {L: abs(coeff[f"S:noncm_3x12t:{L}:1"] - noncm_limit)
            for L in SWEEP_LOGR}
    if not errs[200] <= 0.1:
        probs.append(f"noncm_3x12t at log R 200 is {errs[200]!r} from its "
                     f"limit {noncm_limit!r}")
    fit = math.log(errs[50] / errs[200]) / math.log(4.0)
    if not fit >= 1.5:
        probs.append(f"noncm_3x12t errors {errs} fall with exponent {fit}")
    gap = outs[f"S:rank1_36t:{QUARTIC_LOGR}:1"].total \
        - outs[f"S:rank0_36t:{QUARTIC_LOGR}:1"].total
    phi0 = oracle.phi0_indicator(SIGMA)
    if not abs(gap - phi0) <= 0.05:
        probs.append(f"rank1 - rank0 totals {gap!r} vs phi(0) {phi0}")
    return probs


# --------------------------------------------------------------------------
# cli: cold ldl commands, one process each

CLI_CONSTANTS = (("gamma_st_0", "model"), ("gamma_st_2", "model"),
                 ("gamma_pnt", "model"), ("gamma_pnt_13", "cm"),
                 ("gamma_cm2_13", "cm"), ("gamma_sieve012", "cm"),
                 ("gamma_1_3", "noncm"), ("gamma_2_3", "noncm"),
                 ("gamma_aprime_3", "noncm"))
CLI_ROWS = (("cm_b1_kappa2", "cm"), ("rank1_36t", "cm"),
            ("noncm_3x12t", "noncm"))


def run_child(argv: list[str]) -> dict:
    """Run one process to its end: exit code, output and peak RSS."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=ROOT,
                            env=child_env())
    with ThreadPoolExecutor(max_workers=1) as pool:
        err = pool.submit(proc.stderr.read)
        out = proc.stdout.read()
        err = err.result()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return {"rc": proc.returncode, "out": out.decode(),
            "err": err.decode(), "rss_kb": usage.ru_maxrss}


def _run_ldl(argv: list[str], trace_dir: Path | None, calls) -> dict:
    if trace_dir is None:
        prefix = [sys.executable, "-m", "ldl.cli"]
    else:
        prefix = [sys.executable, str(HERE / "traced_cli.py"),
                  str(trace_dir / f"child-{next(calls)}.json")]
    return run_child(prefix + argv)


def cli_ops(trace_dir: Path | None) -> list[Op]:
    """Every command of a round, each run as its own process."""
    run = partial(_run_ldl, trace_dir=trace_dir, calls=itertools.count())
    ops = []
    for name, cls in CLI_CONSTANTS:
        extra = ["--method", "both"] if name == "gamma_pnt" else []
        ops.append(Op(f"constants:{name}", cls,
                      partial(run, ["constants", "--name", name] + extra)))
    for fam, cls in CLI_ROWS:
        ops.append(Op(f"family:{fam}", cls, partial(
            run, ["family", "--family", fam, "--prime-limit",
                  str(CLI_PRIME_LIMIT)])))
    for fam, cls in (("cm_b2_kappa2", "cm"), ("noncm_3x12t", "noncm")):
        ops.append(Op(f"family:{fam}:aggregate", cls, partial(
            run, ["family", "--family", fam, "--aggregate"])))
    ops.append(Op("explicit:cusp_model", "model", partial(
        run, ["explicit", "--family", "cusp_model", "--phi", PAIR,
              "--logR", "200"])))
    ops.append(Op("verify:identities", "model",
                  partial(run, ["verify", "--suite", "identities"])))
    ops.append(Op("verify:appendixB", None,
                  partial(run, ["verify", "--suite", "appendixB"])))
    # a custom config that takes a built-in's name: the program answers
    # with that built-in's closed forms (see README.md)
    ops.append(Op("family:impostor", None, partial(
        run, ["family", "--family", "@" + IMPOSTOR, "--prime-limit", "13"]),
        known_fault=True))
    return ops


def _envelope(res: dict) -> tuple[dict | None, list[str]]:
    if res["rc"] != 0:
        return None, [f"exit {res['rc']}: {res['err'].strip()[-400:]}"]
    try:
        doc = json.loads(res["out"])
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]
    probs = []
    if doc.get("schema") != "ldl/1":
        probs.append(f"schema {doc.get('schema')!r}")
    digest = hashlib.sha256(json.dumps(
        doc["results"], sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    if digest != doc["manifest"]["output_checksum"]:
        probs.append("manifest checksum does not match the results")
    return doc, probs


def _check_rows(curve: oracle.Curve, rows: list, limit: int) -> list[str]:
    probs = []
    want_p = [p for p in oracle.primes_up_to(limit) if p >= 5]
    if [row["p"] for row in rows] != want_p:
        return [f"rows for primes {[row['p'] for row in rows]}"]
    for row in rows:
        p = row["p"]
        good, bad = oracle.moments(curve, p, len(row["moments"]) - 1)
        if row["moments"] != list(good) or row["bad_moments"] != list(bad):
            probs.append(f"p={p}: moments {row['moments']} "
                         f"{row['bad_moments']}, point count {good} {bad}")
        at = oracle.a_tilde(curve, p)
        if not _close(row["a_tilde"], at, 1e-9 * max(1.0, abs(at))):
            probs.append(f"p={p}: a_tilde {row['a_tilde']!r}, point count "
                         f"{at!r}")
        nu = 0 if curve.k is None else oracle.nu(curve, p, curve.k)
        hs = 0.0 if curve.k is None else oracle.h_sieve(curve, p, curve.k)
        if row["nu"] != nu or not _close(row["h_sieve"], hs, 1e-12 * hs):
            probs.append(f"p={p}: nu {row['nu']} h_sieve {row['h_sieve']!r}"
                         f", root count {nu} {hs!r}")
    return probs


def check_cli_op(op: Op, res: dict) -> list[str]:
    if op.known_fault and res["rc"] == 2 and "Traceback" not in res["err"]:
        return []   # a typed refusal is a right answer too
    doc, probs = _envelope(res)
    if doc is None:
        return probs
    results = doc["results"]
    kind, _, rest = op.name.partition(":")
    if kind == "constants":
        rows = results["rows"]
        if rest == "gamma_pnt":
            closed, integral = rows
            probs += _printed("gamma_pnt", closed["value"])
            slack = closed["tail_bound"] + integral["tail_bound"]
            if not abs(closed["value"] - integral["value"]) <= slack:
                probs.append(f"closed form {closed['value']!r} and integral "
                             f"{integral['value']!r} differ beyond {slack}")
        else:
            probs += _printed(rest, rows[0]["value"])
    elif op.name == "family:impostor":
        cfg = json.loads((ROOT / IMPOSTOR).read_text())
        probs += _check_rows(oracle.curve_from_config(cfg),
                             results["rows"], 13)
    elif kind == "family" and rest.endswith(":aggregate"):
        probs += _printed(f"aggregate:{rest.split(':')[0]}",
                          results["aggregate"])
    elif kind == "family":
        probs += _check_rows(oracle.CURVES[rest], results["rows"],
                             CLI_PRIME_LIMIT)
    elif kind == "explicit":
        probs += _printed("aggregate:cusp_model",
                          results["lower_order_coefficient"], tol=0.01)
    elif kind == "verify":
        if results["failures"] or set(results["suites"].values()) != {"pass"}:
            probs.append(f"suites {results['suites']} failures "
                         f"{results['failures'][:3]}")
    return probs
