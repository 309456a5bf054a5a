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

from . import __version__, constants, explicit_formula, families, series
from ._sum import thread_count
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
        threads=thread_count(getattr(args, "threads", None)),
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
    if rows is None:
        rows = [payload]
    return rows


def _to_csv(payload: dict) -> str:
    buf = io.StringIO()
    rows = _rows_of(payload)
    cols = CSV_COLUMNS if all(set(CSV_COLUMNS) <= set(r) for r in rows) \
        else sorted({k for r in rows for k in r})
    writer = csv.DictWriter(buf, fieldnames=cols, extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _to_text(payload: dict) -> str:
    lines = []
    for row in _rows_of(payload):
        lines.append("  ".join(f"{k}={row[k]}" for k in sorted(row)))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# constants

def _constant_rows(name: str, args) -> list:
    paper_value, _, citation = constants.paper_reference(name)
    kwargs = {"prime_limit": args.prime_limit,
              "first_primes": args.first_primes, "threads": args.threads}
    results = []
    if name in ("gamma_pnt",):
        methods = {"direct": ["integral"], "closed": ["closed_form"],
                   "both": ["closed_form", "integral"]}[args.method]
        from .primes import gamma_pnt
        results = [gamma_pnt(method=m, **kwargs) for m in methods]
    else:
        results = [constants.compute_constant(name, **kwargs)]
    rows = []
    for res in results:
        row = res.as_dict()
        row["truncation"] = f"{res.truncation_kind}:{res.truncation}"
        row.pop("truncation_kind", None)
        row["paper_value"] = paper_value
        row["paper_citation"] = citation
        if paper_value is not None:
            row["delta_vs_paper"] = res.value - paper_value
        rows.append(row)
    return rows


def cmd_constants(args, argv) -> int:
    t0 = time.time()
    if args.prime_limit is not None and args.first_primes is not None:
        print("error: --prime-limit and --first-primes are mutually "
              "exclusive", file=sys.stderr)
        return EXIT_USAGE
    names = constants.catalog_names() if args.name == "all" else [args.name]
    rows = []
    try:
        for name in names:
            rows.extend(_constant_rows(name, args))
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("known constants: " + ", ".join(constants.catalog_names()),
              file=sys.stderr)
        return EXIT_USAGE
    truncs = {r["name"]: r["truncation"] for r in rows}
    _emit({"rows": rows}, args, argv, t0, truncations=truncs)
    return EXIT_OK


# --------------------------------------------------------------------------
# family

def _resolve_family(spec: str):
    if spec.startswith("@"):
        return families.load_family(spec[1:]), spec[1:]
    return families.get_family(spec), None


def cmd_family(args, argv) -> int:
    t0 = time.time()
    try:
        fam, cfg_path = _resolve_family(args.family)
    except (DomainError, OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot load family: {exc}", file=sys.stderr)
        return EXIT_USAGE
    digest = ""
    if cfg_path:
        with open(cfg_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    prime_limit = args.prime_limit or 100

    if args.verify_closed_forms:
        failures = []
        for p in (int(q) for q in get_table(prime_limit).primes if q >= 5):
            for r in range(3):
                for side in ("good", "bad"):
                    try:
                        closed = families.closed_form_moment(fam, p, r, side)
                    except DomainError:
                        continue
                    brute = families.complete_moment(fam, p, r, side)
                    if brute != closed:
                        failures.append(
                            {"p": p, "r": r, "side": side,
                             "brute": brute, "closed": closed})
        payload = {"family": fam.name, "checked_up_to": prime_limit,
                   "failures": failures}
        _emit(payload, args, argv, t0, digest,
              {"prime_limit": prime_limit})
        return EXIT_OK if not failures else EXIT_VERIFY

    if args.aggregate:
        try:
            if families.family_kind(fam)[0] == "custom":
                raise DomainError(
                    f"aggregates are registered for the built-in families "
                    f"only; {fam.name!r} is a custom config")
            agg = constants.aggregate_lower_order(fam.name)
        except DomainError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        payload = {"family": agg.family, "pieces": agg.pieces,
                   "sieve_pieces": agg.sieve_pieces,
                   "aggregate": agg.aggregate,
                   "source": "reference catalog values"}
        _emit(payload, args, argv, t0, digest, {})
        return EXIT_OK

    rows = []
    for p in (int(q) for q in get_table(prime_limit).primes if q >= 5):
        mt = families.moment_table(fam, p, r_max=args.moments)
        rows.append({"p": p, "moments": list(mt.moments),
                     "bad_moments": list(mt.bad_moments),
                     "a_tilde": mt.a_tilde, "nu": mt.nu,
                     "h_sieve": mt.h[1]})
    _emit({"family": fam.name, "rows": rows}, args, argv, t0, digest,
          {"prime_limit": prime_limit})
    return EXIT_OK


# --------------------------------------------------------------------------
# explicit

def cmd_explicit(args, argv) -> int:
    t0 = time.time()
    try:
        phi = explicit_formula.builtin_test_pair(args.phi)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.logR <= 0:
        print("error: --logR must be positive", file=sys.stderr)
        return EXIT_USAGE
    try:
        dec = explicit_formula.evaluate_S(
            args.family, phi, math.exp(args.logR),
            prime_limit=args.prime_limit, threads=args.threads)
    except IncompleteSumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE
    except (DomainError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(dec.as_dict(), args, argv, t0,
          truncations={"prime_limit": dec.prime_limit})
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
    for name in sorted(families.BUILTIN_FAMILIES):
        fam = families.get_family(name)
        bad_max = 6 if name == "noncm_3x12t" else 2
        for p in (int(q) for q in get_table(prime_limit).primes if q >= 5):
            checks = [(r, "good") for r in range(3)]
            checks += [(m, "bad") for m in range(bad_max + 1)]
            for r, side in checks:
                try:
                    closed = families.closed_form_moment(fam, p, r, side)
                except DomainError:
                    continue
                brute = families.complete_moment(fam, p, r, side)
                if brute != closed:
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
    prime_limit = args.prime_limit or 300
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
        p.add_argument("--threads", type=int, default=None)
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
