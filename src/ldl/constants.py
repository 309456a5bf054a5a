"""Catalog of the named prime-sum constants and per-family aggregates.

Each catalog entry knows its summand, residue-class restriction, default
truncation, reference value and tolerance, so reproduction runs can replay
the reference truncations exactly instead of chasing fully converged
values.  The aggregate assembly combines the catalog values into the
lower-order coefficient (of 2*phihat(0)/log R) for the built-in families
and for the cusp-form model.

Known caveats, preserved deliberately:

* ``gamma_0_3`` implements half of the reference source's printed summand
  (the printed formula evaluates to twice the printed value); tolerance is
  widened to 4e-3 accordingly.
* ``gamma_1_3`` and ``gamma_2_3`` implement the printed summands verbatim,
  which reproduce the printed values but are NOT the coefficients implied
  by the master expansion.  The faithful expansion is what evaluate_S
  computes, and ``aggregate_lower_order(..., source="derived")`` takes its
  limit piece by piece.  For noncm_3x12t the derived S_0, S_1 and S_2
  differ from the pieces built from these three constants by about
  -0.733, -0.085 and +0.981, which is the whole gap between the derived
  aggregate (about -2.542) and the printed -2.703 apart from the cubic-
  moment truncation.  S_A' and S_Atilde agree.  This is a discrepancy in
  the source, not in this code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import _literals, families, primes
from ._sum import chunked_sum, thread_count
from .errors import DomainError, VerificationError
from .primes import ConstantResult, first_n_primes, get_table


# --------------------------------------------------------------------------
# catalog plumbing

@dataclass(frozen=True)
class ConstantSpec:
    name: str
    summand: str                      # human-readable description
    residue_class: tuple | None      # (a, b) or None
    p_min: int
    default_first_primes: int
    paper_value: float | None
    paper_tolerance: float
    paper_citation: str
    decay_power: int                  # summand = O(log p / p^decay_power)
    decay_coeff: float
    term: object = field(default=None, repr=False, compare=False)


def _tail_bound(spec: ConstantSpec, x_last: float) -> float:
    d, c = spec.decay_power, spec.decay_coeff
    if d < 2:
        return math.inf
    lx = math.log(x_last)
    return c * (lx / ((d - 1) * x_last ** (d - 1))
                + 1.0 / ((d - 1) ** 2 * x_last ** (d - 1)))


def _chi_m3(pf: np.ndarray, p_int: np.ndarray) -> np.ndarray:
    """(-3/p) as a float array: +1 iff p = 1 mod 3 (p >= 5)."""
    return np.where(p_int % 3 == 1, 1.0, -1.0)


def _c_p(p_int: np.ndarray) -> np.ndarray:
    """(3/p) + (-3/p): 2, 0, 0, -2 for p = 1, 7, 11, 5 mod 12."""
    r = p_int % 12
    return np.where(r == 1, 2.0, np.where(r == 5, -2.0, 0.0))


def _catalog() -> dict:
    entries = [
        ConstantSpec(
            "gamma_st_0", "sum_p 2 log p / (p(p+1))", None, 2, 10 ** 6,
            0.7691106216, 1e-8, "ref:gamma_st_0", 2, 2.0,
            lambda pf, pi, lp: 2.0 * lp / (pf * (pf + 1.0))),
        ConstantSpec(
            "gamma_st_2", "sum_p (4p^2+3p+1) log p / (p(p+1)^3)", None, 2,
            4 * 10 ** 6, 1.1851820642, 1e-6, "ref:gamma_st_2", 2, 4.0,
            lambda pf, pi, lp:
                (4 * pf ** 2 + 3 * pf + 1) * lp / (pf * (pf + 1.0) ** 3)),
        ConstantSpec(
            "gamma_st_atilde", "sum_p (2p+1)(p-1) log p / (p(p+1)^3)",
            None, 2, 10 ** 6, 0.4160714430, 1e-8, "ref:gamma_st_atilde",
            2, 2.0,
            lambda pf, pi, lp:
                (2 * pf + 1) * (pf - 1) * lp / (pf * (pf + 1.0) ** 3)),
        ConstantSpec(
            "gamma_cm_13", "sum_{p=1(3)} 2(3p+1) log p / (p+1)^3",
            (1, 3), 2, 10 ** 6, 0.38184489, 1e-7, "ref:gamma_cm_13", 2, 6.0,
            lambda pf, pi, lp: 2 * (3 * pf + 1) * lp / (pf + 1.0) ** 3),
        ConstantSpec(
            "gamma_cm_14", "sum_{p=1(4)} 2(3p+1) log p / (p+1)^3",
            (1, 4), 2, 10 ** 6, 0.46633061, 1e-7, "ref:gamma_cm_14", 2, 6.0,
            lambda pf, pi, lp: 2 * (3 * pf + 1) * lp / (pf + 1.0) ** 3),
        ConstantSpec(
            "gamma_cm0_ge5", "sum_{p>=5} 4 log p / (p(p+1))", None, 5,
            10 ** 6, 0.709919, 1e-6, "ref:gamma_cm0_ge5", 2, 4.0,
            lambda pf, pi, lp: 4.0 * lp / (pf * (pf + 1.0))),
        ConstantSpec(
            "gamma_23", "2 log 2 / 2 + 2 log 3 / 3 (the dropped p=2,3 "
            "terms)", None, 2, 2, 1.4255554, 1e-6, "ref:gamma_23", 99, 0.0,
            None),
        ConstantSpec(
            "gamma_cm2_13", "sum_{p=1(3)} 2(5p^2+2p+1) log p / (p(p+1)^3)",
            (1, 3), 2, 4 * 10 ** 6, 0.6412881898, 1e-6, "ref:gamma_cm2_13",
            2, 10.0,
            lambda pf, pi, lp:
                2 * (5 * pf ** 2 + 2 * pf + 1) * lp / (pf * (pf + 1.0) ** 3)),
        ConstantSpec(
            "gamma_sieve012", "r<=2 sieve terms of the k=3 once-ramified "
            "quadratic-twist sieve", None, 5, 10 ** 4, -0.004288, 2e-6,
            "ref:gamma_sieve012", 4, 4.0, None),
        ConstantSpec(
            "gamma_aprime_3",
            "2[sum_{p>=5} log p/(p^3-p) + sum_{1(12)} log p/(p^2-1) - "
            "sum_{5(12)} log p/(p^2-1)]", None, 5, 10 ** 6, -0.082971426,
            1e-7, "ref:gamma_aprime_3", 2, 4.0,
            lambda pf, pi, lp: (
                2.0 * lp / (pf ** 3 - pf)
                + np.where(pi % 12 == 1, 2.0,
                           np.where(pi % 12 == 5, -2.0, 0.0))
                * lp / (pf ** 2 - 1.0))),
        ConstantSpec(
            "gamma_0_3", "sum_{p>=5} (2p-1) log p / (p^2(p+1)) "
            "(half the printed summand; see module notes)", None, 5,
            10 ** 6, 0.331539448, 4e-3, "ref:gamma_0_3", 2, 2.0,
            lambda pf, pi, lp:
                (2 * pf - 1) * lp / (pf ** 2 * (pf + 1.0))),
        ConstantSpec(
            "gamma_1_3", "sum_{p>=5} [(3/p)+(-3/p)] (p-1) log p / "
            "(p^2(p+1)^2)", None, 5, 10 ** 6, -0.013643784, 1e-8,
            "ref:gamma_1_3", 3, 2.0,
            lambda pf, pi, lp:
                _c_p(pi) * (pf - 1) * lp / (pf ** 2 * (pf + 1.0) ** 2)),
        ConstantSpec(
            "gamma_2_3", "sum_{p>=5} ((2-chi)p^4 - (13+7chi)p^3 - "
            "(25+6chi)p^2 - (16+2chi)p - 4) log p / (p^3(p+1)^3), "
            "chi = (-3/p)", None, 5, 10 ** 6, 0.085627, 1e-5,
            "ref:gamma_2_3", 2, 3.0, None),
        ConstantSpec(
            "gamma_atilde_3", "sum_p Atilde(p) p^(3/2)(p-1) log p / "
            "(p(p+1)^3) for the non-CM family", None, 5, 5000, 0.3369,
            1e-2, "ref:gamma_atilde_3", 2, 8.0, None),
    ]
    return {e.name: e for e in entries}


CATALOG = _catalog()

# constants owned by the prime module but exposed through the same catalog
_PNT_NAMES = {
    "gamma_pnt": (lambda **kw: primes.gamma_pnt(**kw), -1.33258, 1e-5,
                  "ref:gamma_pnt"),
    "gamma_pnt_13": (lambda **kw: primes.gamma_pnt_ab(1, 3, **kw),
                     -2.375494, 1e-6, "ref:gamma_pnt_13"),
    "gamma_pnt_14": (lambda **kw: primes.gamma_pnt_ab(1, 4, **kw),
                     -2.224837, 1e-6, "ref:gamma_pnt_14"),
}


def catalog_names() -> list[str]:
    return sorted(CATALOG) + sorted(_PNT_NAMES)


def paper_reference(name: str) -> tuple:
    """(paper_value, tolerance, citation) for a catalog name."""
    if name in CATALOG:
        e = CATALOG[name]
        return e.paper_value, e.paper_tolerance, e.paper_citation
    if name in _PNT_NAMES:
        _, val, tol, cite = _PNT_NAMES[name]
        return val, tol, cite
    raise DomainError(f"unknown constant {name!r}")


def _gamma_2_3_terms(pf, pi, lp):
    chi = _chi_m3(pf, pi)
    num = ((2 - chi) * pf ** 4 - (13 + 7 * chi) * pf ** 3
           - (25 + 6 * chi) * pf ** 2 - (16 + 2 * chi) * pf - 4)
    return num * lp / (pf ** 3 * (pf + 1.0) ** 3)


def _gamma_sieve012_value(prime_count: int, threads: int) -> float:
    """Sieve-weighted r in {0,1,2} contribution for the k=3 sieve with one
    root per prime (nu = 1 for p >= 5): the S_0 pieces add
    2(p-1)/(p(p+1)) per prime, the S_2 pieces subtract 2(p-1)^2/(p+1)^3
    on p = 1 mod 3, everything weighted by H_sieve = 1/(p^3 - 1)."""
    table = first_n_primes(prime_count)
    p_int = table.primes[table.primes >= 5]
    pf = p_int.astype(np.float64)
    lp = np.log(pf)
    h_sieve = 1.0 / (pf ** 3 - 1.0)
    s0 = 2 * (pf - 1) / (pf * (pf + 1.0))
    s2 = np.where(p_int % 3 == 1, 2 * (pf - 1) ** 2 / (pf + 1.0) ** 3, 0.0)
    return -chunked_sum(h_sieve * lp * (s0 - s2), threads)


@lru_cache(maxsize=256)
def _gamma_atilde_family(fam: families.FamilySpec, prime_count: int,
                         sieve_exponent: int | None = None
                         ) -> tuple[float, float]:
    """(main, sieve) cubic-moment constants over the first prime_count
    primes: sum_p Atilde(p) p^(3/2) (p-1) log p / (p(p+1)^3), and the same
    with the extra H_sieve weight."""
    table = first_n_primes(prime_count)
    main_terms = []
    sieve_terms = []
    for p in table.primes:
        p = int(p)
        if p < 5:
            continue
        at = families.a_tilde(fam, p)
        if at == 0.0:
            continue
        w = at * p ** 1.5 * (p - 1) * math.log(p) / (p * (p + 1) ** 3)
        main_terms.append(w)
        if fam.k != families.INF or sieve_exponent is not None:
            _, hs = families.h_factor(fam, p, exponent=sieve_exponent)
            sieve_terms.append(w * hs)
    return (math.fsum(main_terms), math.fsum(sieve_terms))


def compute_constant(name: str, prime_limit: int | None = None,
                     first_primes: int | None = None,
                     threads: int | None = None) -> ConstantResult:
    """Compute a catalog constant, carrying truncation provenance."""
    if name in _PNT_NAMES:
        fn = _PNT_NAMES[name][0]
        return fn(prime_limit=prime_limit, first_primes=first_primes,
                  threads=threads)
    if name not in CATALOG:
        raise DomainError(
            f"unknown constant {name!r}; catalog: {catalog_names()}")
    spec = CATALOG[name]
    nthreads = thread_count(threads)

    if name == "gamma_23":
        value = math.log(2.0) + 2.0 * _literals.LOG_3 / 3.0
        return ConstantResult(name, value, "prime_count", 2, 0.0,
                              "closed_form")

    if prime_limit is not None and first_primes is not None:
        raise DomainError("specify prime_limit or first_primes, not both")
    if first_primes is None and prime_limit is None:
        first_primes = spec.default_first_primes

    if name == "gamma_sieve012":
        count = first_primes if first_primes is not None else 10 ** 4
        value = _gamma_sieve012_value(count, nthreads)
        return ConstantResult(name, value, "prime_count", count, 1e-12,
                              "direct_sum")

    if name == "gamma_atilde_3":
        count = first_primes if first_primes is not None else 5000
        fam = families.get_family("noncm_3x12t")
        value, _ = _gamma_atilde_family(fam, count)
        x_last = float(first_n_primes(count).primes[-1])
        return ConstantResult(name, value, "prime_count", count,
                              _tail_bound(spec, x_last), "direct_sum")

    if first_primes is not None:
        table = first_n_primes(first_primes)
        kind, trunc = "prime_count", first_primes
    else:
        table = get_table(prime_limit)
        kind, trunc = "prime_limit", prime_limit

    p_int = table.primes
    if spec.residue_class is not None:
        a, b = spec.residue_class
        p_int = table.residue_class(a, b)
    if spec.p_min > 2:
        p_int = p_int[p_int >= spec.p_min]
    pf = p_int.astype(np.float64)
    lp = np.log(pf)
    term_fn = _gamma_2_3_terms if name == "gamma_2_3" else spec.term
    value = chunked_sum(term_fn(pf, p_int, lp), nthreads)
    x_last = float(table.primes[-1])
    return ConstantResult(name, value, kind, trunc,
                          _tail_bound(spec, x_last), "direct_sum")


def family_constant_Atilde(fam, prime_count: int = 5000,
                           with_sieve: bool = True,
                           threads: int | None = None,
                           sieve_exponent: int | None = None) -> tuple:
    """(main, sieve) cubic-moment family constants at the given truncation.

    `sieve_exponent` overrides the family's sieve exponent in the H_sieve
    weight only (the reference tabulation for the sextic-twist families was
    produced with exponent 3 across the board, including the kappa = 1
    members whose own exponent is 6)."""
    if isinstance(fam, str):
        fam = families.get_family(fam)
    if prime_count < 5000:
        raise DomainError("prime_count must be >= 5000")
    nthreads = thread_count(threads)
    main, sieve = _gamma_atilde_family(fam, prime_count, sieve_exponent)
    return (main, sieve if with_sieve else 0.0)


# --------------------------------------------------------------------------
# per-family aggregates

# reference values for the family cubic-moment constants (first 5000 primes,
# error at most .0367) and their sieve companions (error <= 1e-15)
ATILDE_REFERENCE = {
    ("cm", 1, 1): (0.3437, 0.000446),
    ("cm", 1, 2): (0.4203, 0.000699),
    ("cm", 2, 2): (0.5670, 0.000761),
    ("cm", 3, 2): (0.1413, 0.000125),
    ("cm", 6, 2): (0.2620, 0.000199),
}

# quartic-twist family constants (first 10^4 primes)
ATILDE_REFERENCE_QUARTIC = {
    "rank1_36t": (-0.1109, -0.0003),
    "rank0_36t": (0.6279, 0.0013),
}

AGGREGATE_REFERENCE = {
    "cusp_model": -1.33258,
    "cm_b1_kappa1": -2.124,
    "cm_b1_kappa2": -2.201,
    "cm_b2_kappa2": -2.347,
    "cm_b3_kappa2": -1.921,
    "cm_b6_kappa2": -2.042,
    "noncm_3x12t": -2.703,
}


@dataclass(frozen=True)
class FamilyLowerOrder:
    family: str
    pieces: dict          # piece name -> main coefficient
    sieve_pieces: dict    # piece name -> sieve coefficient
    aggregate: float

    def piece_sum(self) -> float:
        return (math.fsum(self.pieces.values())
                + math.fsum(self.sieve_pieces.values()))


def _const(name: str, source: str, **kwargs) -> float:
    if source == "catalog":
        val, _, _ = paper_reference(name)
        return val
    return compute_constant(name, **kwargs).value


def _derived_lower_order(target: str,
                         threads: int | None) -> FamilyLowerOrder:
    # explicit_formula imports this module, so import it at call time
    from .explicit_formula import lower_order_limit
    limit = lower_order_limit(target, threads=threads)
    pieces = {k: v["main"] for k, v in limit.items()}
    sieve = {f"{k}_sieve": v["sieve"] for k, v in limit.items()}
    return FamilyLowerOrder(
        target, pieces, sieve,
        math.fsum(pieces.values()) + math.fsum(sieve.values()))


def aggregate_lower_order(target: str, source: str = "catalog",
                          allow_mixed_truncations: bool = False,
                          threads: int | None = None) -> FamilyLowerOrder:
    """Lower-order coefficient of 2*phihat(0)/log R for a built-in family
    or the cusp-form model, with the per-piece breakdown retained.

    source="catalog" uses the reference values at their stated truncations;
    source="computed" recomputes every piece (which mixes the reference
    truncations -- a million primes for most sums, four million for two of
    them, 5000 for the cubic-moment sums -- so it must be acknowledged via
    allow_mixed_truncations=True).  Both assemble the cited constants.

    source="derived" takes each piece as the log R -> infinity limit of
    the evaluate_S decomposition (explicit_formula.lower_order_limit), with
    the sieve parts under the family's own H weight, one "<piece>_sieve"
    entry per piece.  It is the coefficient evaluate_S converges to.  For
    the CM families and the cusp model its S_0, S_1, S_2 and S_A' agree
    with the catalog pieces to the rounding of the cited constants; for
    noncm_3x12t the S_0, S_1 and S_2 pieces built from gamma_0_3,
    gamma_1_3 and gamma_2_3 differ, and the derived aggregate is about
    -2.542 against the printed -2.703.
    """
    if source not in ("catalog", "computed", "derived"):
        raise DomainError("source must be 'catalog', 'computed' or 'derived'")
    if target not in AGGREGATE_REFERENCE:
        raise DomainError(
            f"no aggregate registered for {target!r}; supported: "
            f"{sorted(AGGREGATE_REFERENCE)}")
    if source == "derived":
        return _derived_lower_order(target, threads)
    if source == "computed" and not allow_mixed_truncations:
        raise VerificationError(
            "computed mode mixes the reference truncations (1e6 / 4e6 / "
            "5000 primes); pass allow_mixed_truncations=True to accept")
    kw = {"threads": threads}
    c = lambda name: _const(name, source, **kw)  # noqa: E731

    if target == "cusp_model":
        pieces = {
            "S_0": 2 * c("gamma_pnt") - c("gamma_st_0"),
            "S_1": 0.0,
            "S_2": -c("gamma_pnt") + c("gamma_st_2"),
            "S_Aprime": 0.0,
            "S_Atilde": -c("gamma_st_atilde"),
        }
        return FamilyLowerOrder("cusp_model", pieces, {},
                                math.fsum(pieces.values()))

    kind = families.family_kind(target)
    if kind[0] == "sextic":
        if source == "catalog":
            at_main, at_sieve = ATILDE_REFERENCE[("cm",) + kind[1:]]
            sieve012 = -0.004288
        else:
            # the reference bracket uses the exponent-3 sieve weight for
            # every member, including kappa = 1 (see module notes)
            at_main, at_sieve = family_constant_Atilde(target,
                                                       threads=threads,
                                                       sieve_exponent=3)
            sieve012 = compute_constant("gamma_sieve012",
                                        threads=threads).value
        pieces = {
            "S_0": 2 * c("gamma_pnt") - c("gamma_cm0_ge5") - c("gamma_23"),
            "S_1": 0.0,
            "S_2": -c("gamma_pnt_13") + c("gamma_cm2_13"),
            "S_Aprime": 0.0,
            "S_Atilde": -at_main,
        }
        sieve = {"S_012_sieve": -sieve012, "S_Atilde_sieve": -at_sieve}
        return FamilyLowerOrder(
            target, pieces, sieve,
            math.fsum(pieces.values()) + math.fsum(sieve.values()))

    # the remaining target, noncm_3x12t
    pieces = {
        "S_0": -(c("gamma_0_3") + c("gamma_23")) + 2 * c("gamma_pnt"),
        "S_1": -c("gamma_1_3"),
        "S_2": -(c("gamma_2_3") - 0.5 * c("gamma_23") + c("gamma_pnt")),
        "S_Aprime": -c("gamma_aprime_3"),
        "S_Atilde": -c("gamma_atilde_3"),
    }
    return FamilyLowerOrder(target, pieces, {}, math.fsum(pieces.values()))


# --------------------------------------------------------------------------
# exact cancellation of the semicircle combination

def _zero_combination_poly(perturb: int = 0) -> list:
    """-2(p+1)^2 + (4p^2+3p+1) - (2p+1)(p-1) as a coefficient list."""
    a = [-2, -4, -2]                                # -2(p+1)^2
    b = [1, 3, 4]
    c = [1, 1, -2]                                  # -(2p+1)(p-1)
    out = [x + y + z for x, y, z in zip(a, b, c)]
    out[0] += perturb
    return out


def exact_cancellation_check(prime_limit: int = 10 ** 4,
                             perturb: int = 0) -> bool:
    """Verify -gamma_st_0 + gamma_st_2 - gamma_st_atilde cancels prime by
    prime: symbolically (the numerator polynomial vanishes) and in exact
    rational arithmetic for every p <= prime_limit.  A nonzero `perturb`
    (added to the constant coefficient) is a negative control."""
    poly = _zero_combination_poly(perturb)
    if any(poly):
        return False
    for p in get_table(prime_limit).primes:
        p = int(p)
        combo = (-Fraction(2, p * (p + 1))
                 + Fraction(4 * p * p + 3 * p + 1, p * (p + 1) ** 3)
                 - Fraction((2 * p + 1) * (p - 1), p * (p + 1) ** 3)
                 + Fraction(perturb, p * (p + 1) ** 3))
        if combo != 0:
            return False
    return True
