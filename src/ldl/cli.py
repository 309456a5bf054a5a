"""Command-line surface: constants, family analyses, explicit-formula
decompositions, and verification suites, with provenance-carrying output.

Exit codes: 0 success, 2 usage/config error, 3 verification failure,
4 insufficient truncation.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import __version__, _sum, constants, explicit_formula, families, series
from .errors import (DomainError, IncompleteSumError, ResourceError,
                     VerificationError)
from .primes import get_table

SCHEMA = "ldl/1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_INCOMPLETE = 4

CSV_COLUMNS = ["name", "value", "truncation", "tail_bound", "method",
               "paper_value", "paper_citation"]


@dataclass
class RunManifest:
    command: list
    config_digest: str
    prime_truncations: dict
    threads: int
    wall_time_s: float
    version: str
    output_checksum: str


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(payload: dict, args, argv: list, t0: float,
          config_digest: str = "", truncations: dict | None = None) -> None:
    """Wrap results in the schema envelope and write them out."""
    checksum = hashlib.sha256(
        _canonical_json(payload).encode()).hexdigest()
    manifest = RunManifest(
        command=argv, config_digest=config_digest,
        prime_truncations=truncations or {},
        threads=_sum.pool_peak,
        wall_time_s=round(time.time() - t0, 3), version=__version__,
        output_checksum=checksum)
    doc = {"schema": SCHEMA, "manifest": asdict(manifest),
           "results": payload}
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        text = _to_csv(payload)
    else:
        text = _to_text(payload)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_of(payload: dict) -> list:
    rows = payload.get("rows")
    return [payload] if rows is None else rows


def _to_csv(payload: dict) -> str:
    buf = io.StringIO()
    rows = _rows_of(payload)
    cols = CSV_COLUMNS if all(set(CSV_COLUMNS) <= set(r) for r in rows) \
        else sorted({k for r in rows for k in r})
    writer = csv.DictWriter(buf, fieldnames=cols, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _to_text(payload: dict) -> str:
    return "\n".join("  ".join(f"{k}={row[k]}" for k in sorted(row))
                     for row in _rows_of(payload)) + "\n"


# --------------------------------------------------------------------------
# constants

def _constant_rows(name: str, args) -> list:
    """One row per method --method picks among an entry's two; an entry
    with one method gives one row for any --method."""
    entry = constants.catalog_entry(name)
    wanted = {"direct": ["integral"], "closed": ["closed_form"],
              "both": ["closed_form", "integral"]}[args.method]
    rows = []
    for m in [m for m in entry.methods
              if len(entry.methods) == 1 or m in wanted]:
        res = entry.run(m, args.prime_limit, args.first_primes)
        row = res.as_dict()
        row["truncation"] = f"{res.truncation_kind}:{res.truncation}"
        row.pop("truncation_kind", None)
        row["paper_value"] = entry.paper_value
        row["paper_citation"] = entry.paper_citation
        row["delta_vs_paper"] = res.value - entry.paper_value
        rows.append(row)
    return rows


def cmd_constants(args, argv) -> int:
    t0 = time.time()
    names = constants.catalog_names() if args.name == "all" else [args.name]
    rows = [row for name in names for row in _constant_rows(name, args)]
    truncs = {r["name"]: r["truncation"] for r in rows}
    _emit({"rows": rows}, args, argv, t0, truncations=truncs)
    return EXIT_OK


# --------------------------------------------------------------------------
# family

def _resolve_family(spec: str):
    """The family a --family argument names, a built-in or "@path" to a
    JSON config, and the SHA-256 of that config ("" for a built-in)."""
    if not spec.startswith("@"):
        return families.get_family(spec), ""
    data = families.read_config(spec[1:])
    return families.load_family(data), hashlib.sha256(data).hexdigest()


def _prime_limit(args, default: int) -> int:
    """--prime-limit, or `default` when it is absent; DomainError below 2."""
    if args.prime_limit is not None and args.prime_limit < 2:
        raise DomainError("--prime-limit must be >= 2")
    return default if args.prime_limit is None else args.prime_limit


def cmd_family(args, argv) -> int:
    t0 = time.time()
    prime_limit = _prime_limit(args, 100)
    if args.aggregate and not args.verify_closed_forms:
        # a key of the aggregate registry: an "@path" config names none
        agg = constants.aggregate_lower_order(args.family)
        _emit({**asdict(agg), "source": "reference catalog values"},
              args, argv, t0)
        return EXIT_OK

    fam, digest = _resolve_family(args.family)
    if args.verify_closed_forms:
        checks = [(r, side) for r in range(3) for side in ("good", "bad")]
        failures = [dict(zip(("p", "r", "side", "brute", "closed"), row))
                    for row in families.closed_form_failures(
                        fam, prime_limit, checks)]
        payload = {"family": fam.name, "checked_up_to": prime_limit,
                   "failures": failures}
        _emit(payload, args, argv, t0, digest,
              {"prime_limit": prime_limit})
        return EXIT_OK if not failures else EXIT_VERIFY

    table = get_table(prime_limit)
    primes = table.decode(table.index(5))
    # |A_r| <= p isqrt(4p)^r (Hasse): refuse moments that could pass the
    # int-to-str digit limit (0, or none before 3.10.7: no limit)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    p = int(primes[-1]) if primes.size else 0
    if limit and p and math.log10(p) + args.moments * math.log10(
            math.isqrt(4 * p)) >= limit:
        raise DomainError(f"--moments {args.moments} at p = {p} "
                          f"could print over {limit} digits; lower it")
    rows = [{"p": mt.p, "moments": list(mt.moments),
             "bad_moments": list(mt.bad_moments), "a_tilde": mt.a_tilde,
             "nu": mt.nu, "h_sieve": mt.h[1]}
            for mt in families.moment_table(fam, primes,
                                            r_max=args.moments)]
    _emit({"family": fam.name, "rows": rows}, args, argv, t0, digest,
          {"prime_limit": prime_limit})
    return EXIT_OK


# --------------------------------------------------------------------------
# explicit

def cmd_explicit(args, argv) -> int:
    t0 = time.time()
    phi = explicit_formula.builtin_test_pair(args.phi)
    # R = e^logR must be a finite float above 1
    max_logR = explicit_formula._LOG_FLOAT_MAX
    if not 0 < args.logR < max_logR:
        raise DomainError(f"--logR must lie in (0, {max_logR:.2f})")
    fam, digest = args.family, ""
    if fam != "cusp_model":
        fam, digest = _resolve_family(fam)
    dec = explicit_formula.evaluate_S(fam, phi, math.exp(args.logR),
                                      prime_limit=args.prime_limit,
                                      threads=args.threads)
    _emit(dec.as_dict(), args, argv, t0, digest,
          {"prime_limit": dec.prime_limit})
    return EXIT_OK


# --------------------------------------------------------------------------
# verify

def _suite_identities() -> list:
    fails = []
    if not constants.exact_cancellation_check(10 ** 4):
        fails.append({"check": "exact_cancellation", "detail": "nonzero"})
    if constants.exact_cancellation_check(100, perturb=1):
        fails.append({"check": "exact_cancellation_negative_control",
                      "detail": "perturbed combination reported zero"})
    xs = [Fraction(1, q) for q in (7, 9, 11, 13, 17, 5, 4, 3, 19, 23)]
    for ell in range(1, 5):
        for x in xs:
            if not series.polylog_identity_check(ell, x):
                fails.append({"check": "polylog_identity",
                              "detail": f"ell={ell}, x={x}"})
    for ell in range(13):
        row = series.hecke_power_expansion(2 * ell)
        if row[-1] != series.moment_sequence("sato_tate", ell):
            fails.append({"check": "hecke_constant_term",
                          "detail": f"ell={ell}"})
    for p in (int(q) for q in get_table(500).primes):
        x = Fraction(p, (p + 1) ** 2)
        for kind in ("sato_tate", "cm"):
            if kind == "cm" and p == 1:
                continue
            exact = series.g_moment(kind, x)
            approx = series.g_moment(kind, float(x))
            if abs(float(exact) - approx) > 1e-12:
                fails.append({"check": "g_moment_closed_form",
                              "detail": f"kind={kind}, p={p}"})
    import random
    rng = random.Random(20260823)
    for _ in range(50):
        lam = rng.uniform(-2, 2)
        p = rng.choice([5, 7, 11, 101, 997])
        if abs(explicit_formula.m3_remainder(lam, p)
               - explicit_formula.m3_direct(lam, p)) > 1e-12:
            fails.append({"check": "m3_remainder",
                          "detail": f"lam={lam}, p={p}"})
    return fails


def _suite_appendix_b(prime_limit: int) -> list:
    fails = []
    import random
    for name, entry in sorted(families.REGISTRY.items()):
        checks = [(r, "good") for r in range(3)]
        checks += [(m, "bad") for m in range(7 if entry.has_bad else 3)]
        for p, r, side, _, _ in families.closed_form_failures(
                entry.spec, prime_limit, checks):
            fails.append({"check": "closed_form_moment",
                          "detail": f"{name}, p={p}, r={r}, {side}"})
    rng = random.Random(1187)
    primes = [int(q) for q in get_table(200).primes if q >= 3]
    for _ in range(500):
        p = rng.choice(primes)
        a, b, c = (rng.randrange(p) for _ in range(3))
        got = families.quadratic_legendre_sum(a, b, c, p)
        want = families.quadratic_legendre_sum_brute(a, b, c, p)
        if got != want:
            fails.append({"check": "quadratic_legendre_sum",
                          "detail": f"a={a}, b={b}, c={c}, p={p}"})
    return fails


def _suite_sieve() -> list:
    fails = []
    fam = families.get_family("cm_b1_kappa2")
    win = families.sieve_window(fam, 10 ** 6)
    dens = win.W / (win.good_t.size)
    euler = families.sieve_density(fam, 10 ** 5)
    if abs(dens - euler) > 0.01:
        fails.append({"check": "sieve_density",
                      "detail": f"window {dens} vs euler {euler}"})
    return fails


def _suite_bias() -> list:
    fails = []
    targets = {"rank1_36t": 1.0, "rank0_36t": 0.0, "cm_b1_kappa1": 0.0}
    for name, want in targets.items():
        got = families.rank_bias(families.get_family(name), 10 ** 5)
        if abs(got - want) > 0.2:
            fails.append({"check": "rank_bias",
                          "detail": f"{name}: {got} vs {want}"})
    return fails


def cmd_verify(args, argv) -> int:
    t0 = time.time()
    prime_limit = _prime_limit(args, 300)
    suites = {
        "identities": _suite_identities,
        "appendixB": lambda: _suite_appendix_b(prime_limit),
        "sieve": _suite_sieve,
        "bias": _suite_bias,
    }
    selected = list(suites) if args.suite == "all" else [args.suite]
    failures = []
    counts = {}
    for key in selected:
        fs = suites[key]()
        counts[key] = "fail" if fs else "pass"
        failures.extend(fs)
    payload = {"suites": counts, "failures": failures,
               "prime_limit": prime_limit}
    _emit(payload, args, argv, t0, truncations={"prime_limit": prime_limit})
    return EXIT_OK if not failures else EXIT_VERIFY


# --------------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldl",
        description="Prime-sum constants and explicit-formula decompositions "
                    "for elliptic-curve L-function families")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["json", "csv", "text"],
                       default="json")
        p.add_argument("--out", default=None)

    pc = sub.add_parser("constants", help="compute catalog constants")
    pc.add_argument("--name", required=True)
    pc.add_argument("--prime-limit", type=int, default=None)
    pc.add_argument("--first-primes", type=int, default=None)
    pc.add_argument("--method", choices=["direct", "closed", "both"],
                    default="closed")
    common(pc)
    pc.set_defaults(func=cmd_constants)

    pf = sub.add_parser("family", help="per-prime family data and aggregates")
    pf.add_argument("--family", required=True)
    pf.add_argument("--prime-limit", type=int, default=None)
    pf.add_argument("--moments", type=int, default=4)
    pf.add_argument("--aggregate", action="store_true")
    pf.add_argument("--verify-closed-forms", action="store_true")
    common(pf)
    pf.set_defaults(func=cmd_family)

    pe = sub.add_parser("explicit", help="explicit-formula decomposition")
    pe.add_argument("--family", required=True)
    pe.add_argument("--phi", required=True,
                    help="test-function pair as name:sigma, e.g. fejer:0.9")
    pe.add_argument("--logR", type=float, required=True)
    pe.add_argument("--prime-limit", type=int, default=None)
    pe.add_argument("--threads", type=int, default=None)
    common(pe)
    pe.set_defaults(func=cmd_explicit)

    pv = sub.add_parser("verify", help="run oracle/invariant suites")
    pv.add_argument("--suite", default="all",
                    choices=["all", "appendixB", "identities", "sieve",
                             "bias"])
    pv.add_argument("--prime-limit", type=int, default=None)
    common(pv)
    pv.set_defaults(func=cmd_verify)
    return parser


def main(argv: list | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # a bad --threads or LDL_THREADS is refused before any work
        _sum.thread_count(getattr(args, "threads", None))
        _sum.pool_peak = 1
        return args.func(args, argv)
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except IncompleteSumError as exc:
        print(f"insufficient truncation: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE
    except (DomainError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
