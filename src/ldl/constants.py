"""Catalog of the named prime-sum constants and per-family aggregates.

Two registries.  CATALOG holds the named constants: each entry knows its
summand, reference value and tolerance, and computes itself, so runs can
replay the reference truncations exactly (_prime_sum builds the entries
that sum a term over a residue class of primes; gamma_23, gamma_atilde_3
and the prime-counting constants carry their own computation).
AGGREGATES holds the lower-order coefficient (of 2*phihat(0)/log R) of
the cusp-form model and of the built-in families with printed values:
a printed total and pieces, each a signed sum of catalog constants.

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

from . import families, primes
from ._sum import term_sum
from .errors import DomainError, VerificationError, integer
from .primes import (CHI_3, CHI_M3, ConstantResult, first_n_primes,
                     get_table)


# --------------------------------------------------------------------------
# catalog plumbing

@dataclass(frozen=True)
class ConstantSpec:
    """A catalog entry: run(method, prime_limit, first_primes) gives its
    ConstantResult by one of its `methods`, the first by default, and
    refuses a truncation the prime tables refuse before it computes."""
    name: str
    summand: str                      # human-readable description
    paper_value: float
    paper_tolerance: float
    run: object = field(repr=False, compare=False)
    methods: tuple = ("direct_sum",)
    paper_citation = property(lambda self: f"ref:{self.name}")


def _decay(d: int, c: float):
    """The tail bound past x of a summand c log p / p^d, d >= 2: the
    integral of c log t / t^d over t > x."""
    return lambda x: c * (math.log(x) / ((d - 1) * x ** (d - 1))
                          + 1.0 / ((d - 1) ** 2 * x ** (d - 1)))


def _prime_sum(name, summand, value, tolerance, default_count, tail, term,
               residue_class=None, p_min=2) -> ConstantSpec:
    """The entry of sum_p term(p) (term maps a _sum.Block to float64 terms)
    over the primes from p_min, of residue_class (a, b) if one is given, by
    default the first default_count, with tail bound tail(last prime)."""
    def run(method, prime_limit, first_primes):
        table, kind, trunc = primes._resolve_truncation(
            prime_limit, first_primes, default_count=default_count)
        # the class primes from p_min on are the class's among the table's
        # primes from p_min on, in the same CHUNK blocks of class primes
        start = table.index(p_min)
        blocks = (table.blocks(start) if residue_class is None
                  else table.residue_blocks(*residue_class, start))
        return ConstantResult(name, term_sum(term, blocks), kind, trunc,
                              tail(float(table.last)), "direct_sum")

    return ConstantSpec(name, summand, value, tolerance, run)


def aprime_terms(a1, a2, b) -> np.ndarray:
    """sum_{m>=1} A'_m log p / p^(m+1) in closed form over a _sum.Block.

    At a bad prime every a_t(p) is -1, 0 or 1, so A'_m = n_+ + (-1)^m n_-
    and the m-sum is geometric: A'_2 log p/(p^3 - p) + A'_1 log p/(p^2 - 1).
    The one expression behind gamma_aprime_3 and the S_A' piece of the
    decomposition."""
    return a2 * b.lp / (b.power(3) - b.pf) + a1 * b.lp / (b.pp - 1.0)


def st_atilde_terms(b) -> np.ndarray:
    """The cubic-moment term at Atilde p^(3/2) = 2p + 1, (2p+1)(p-1) log p
    / (p(p+1)^3), over a _sum.Block: gamma_st_atilde's summand and the
    cusp model's."""
    return (2.0 * b.pf + 1.0) * (b.pf - 1.0) * b.lp / (b.pf * b.q3)


def _gamma_2_3_terms(b):
    pf, p3, chi = b.pf, b.power(3), b.character(CHI_M3)
    num = ((2 - chi) * b.power(4) - (13 + 7 * chi) * p3
           - (25 + 6 * chi) * b.pp - (16 + 2 * chi) * pf - 4)
    return num * b.lp / (p3 * b.q3)


def _gamma_23(method, prime_limit, first_primes) -> ConstantResult:
    """2 log 2 / 2 + 2 log 3 / 3 in closed form.  Its truncation is
    resolved only to refuse what every entry refuses."""
    primes._resolve_truncation(prime_limit, first_primes, default_count=2)
    return ConstantResult("gamma_23", math.log(2.0) + 2.0 * primes.LOG_3 / 3.0,
                          "prime_count", 2, 0.0, "closed_form")


def _sieve012_terms(blk):
    """Minus the sieve-weighted r in {0,1,2} contribution for the k=3 sieve
    with one root per prime (nu = 1 for p >= 5): the S_0 pieces add
    2(p-1)/(p(p+1)) per prime, the S_2 pieces subtract 2(p-1)^2/(p+1)^3
    on p = 1 mod 3, everything weighted by H_sieve = 1/(p^3 - 1)."""
    h_sieve = 1.0 / (blk.power(3) - 1.0)
    s0 = 2 * (blk.pf - 1) / (blk.pf * blk.q)
    s2 = np.where(blk.mod(3) == 1, 2 * (blk.pf - 1) ** 2 / blk.q3, 0.0)
    return -h_sieve * blk.lp * (s0 - s2)


def _gamma_atilde_3(method, prime_limit, first_primes) -> ConstantResult:
    """The non-CM family's cubic-moment main sum (_gamma_atilde_family)."""
    table, kind, trunc = primes._resolve_truncation(
        prime_limit, first_primes, default_count=5000)
    value, _ = _gamma_atilde_family(families.get_family("noncm_3x12t"),
                                    len(table))
    return ConstantResult("gamma_atilde_3", value, kind, trunc,
                          _decay(2, 8.0)(float(table.last)), "direct_sum")


_PNT_METHODS = ("closed_form", "integral")

#: the one registry of named constants, in the order of catalog_names()
#: (the rows of `ldl constants --name all`): the sums by name, then the
#: prime-counting constants by name
CATALOG = {e.name: e for e in (
    _prime_sum(
        "gamma_0_3", "sum_{p>=5} (2p-1) log p / (p^2(p+1)) "
        "(half the printed summand; see module notes)", 0.331539448, 4e-3,
        10 ** 6, _decay(2, 2.0),
        lambda b: (2 * b.pf - 1) * b.lp / (b.pp * b.q), p_min=5),
    _prime_sum(
        "gamma_1_3", "sum_{p>=5} [(3/p)+(-3/p)] (p-1) log p / "
        "(p^2(p+1)^2)", -0.013643784, 1e-8, 10 ** 6, _decay(3, 2.0),
        lambda b: (b.character(CHI_3) + b.character(CHI_M3))
        * (b.pf - 1) * b.lp / (b.pp * b.q ** 2), p_min=5),
    ConstantSpec(
        "gamma_23", "2 log 2 / 2 + 2 log 3 / 3 (the dropped p=2,3 terms)",
        1.4255554, 1e-6, _gamma_23, ("closed_form",)),
    _prime_sum(
        "gamma_2_3", "sum_{p>=5} ((2-chi)p^4 - (13+7chi)p^3 - "
        "(25+6chi)p^2 - (16+2chi)p - 4) log p / (p^3(p+1)^3), "
        "chi = (-3/p)", 0.085627, 1e-5, 10 ** 6, _decay(2, 3.0),
        _gamma_2_3_terms, p_min=5),
    _prime_sum(
        "gamma_aprime_3",
        "2[sum_{p>=5} log p/(p^3-p) + sum_{1(12)} log p/(p^2-1) - "
        "sum_{5(12)} log p/(p^2-1)]", -0.082971426, 1e-7, 10 ** 6,
        _decay(2, 4.0), lambda b: aprime_terms(
            *families.REGISTRY["noncm_3x12t"].bad_moments(b), b), p_min=5),
    ConstantSpec(
        "gamma_atilde_3", "sum_p Atilde(p) p^(3/2)(p-1) log p / "
        "(p(p+1)^3) for the non-CM family", 0.3369, 1e-2, _gamma_atilde_3),
    _prime_sum(
        "gamma_cm0_ge5", "sum_{p>=5} 4 log p / (p(p+1))", 0.709919, 1e-6,
        10 ** 6, _decay(2, 4.0), lambda b: 4.0 * b.lp / (b.pf * b.q),
        p_min=5),
    _prime_sum(
        "gamma_cm2_13", "sum_{p=1(3)} 2(5p^2+2p+1) log p / (p(p+1)^3)",
        0.6412881898, 1e-6, 4 * 10 ** 6, _decay(2, 10.0),
        lambda b: 2 * (5 * b.pp + 2 * b.pf + 1) * b.lp / (b.pf * b.q3),
        (1, 3)),
    _prime_sum(
        "gamma_cm_13", "sum_{p=1(3)} 2(3p+1) log p / (p+1)^3", 0.38184489,
        1e-7, 10 ** 6, _decay(2, 6.0),
        lambda b: 2 * (3 * b.pf + 1) * b.lp / b.q3, (1, 3)),
    _prime_sum(
        "gamma_cm_14", "sum_{p=1(4)} 2(3p+1) log p / (p+1)^3", 0.46633061,
        1e-7, 10 ** 6, _decay(2, 6.0),
        lambda b: 2 * (3 * b.pf + 1) * b.lp / b.q3, (1, 4)),
    _prime_sum(
        "gamma_sieve012", "r<=2 sieve terms of the k=3 once-ramified "
        "quadratic-twist sieve", -0.004288, 2e-6, 10 ** 4, lambda x: 1e-12,
        _sieve012_terms, p_min=5),
    _prime_sum(
        "gamma_st_0", "sum_p 2 log p / (p(p+1))", 0.7691106216, 1e-8,
        10 ** 6, _decay(2, 2.0), lambda b: 2.0 * b.lp / (b.pf * b.q)),
    _prime_sum(
        "gamma_st_2", "sum_p (4p^2+3p+1) log p / (p(p+1)^3)", 1.1851820642,
        1e-6, 4 * 10 ** 6, _decay(2, 4.0),
        lambda b: (4 * b.pp + 3 * b.pf + 1) * b.lp / (b.pf * b.q3)),
    _prime_sum(
        "gamma_st_atilde", "sum_p (2p+1)(p-1) log p / (p(p+1)^3)",
        0.4160714430, 1e-8, 10 ** 6, _decay(2, 2.0), st_atilde_terms),
    # the prime module's functions are looked up at call time, where a
    # tracer that wraps module attributes sees them
    ConstantSpec(
        "gamma_pnt", "1 + int_1^inf E(t)/t^2 dt = -gamma_Euler - "
        "sum_p log p/(p^2 - p)", -1.33258, 1e-5,
        lambda *a: primes.gamma_pnt(*a), _PNT_METHODS),
    ConstantSpec(
        "gamma_pnt_13", "1 + int_1^inf 2 E_{1,3}(t)/t^2 dt, p = 1 mod 3",
        -2.375494, 1e-6, lambda *a: primes.gamma_pnt_ab(1, 3, *a),
        _PNT_METHODS),
    ConstantSpec(
        "gamma_pnt_14", "1 + int_1^inf 2 E_{1,4}(t)/t^2 dt, p = 1 mod 4",
        -2.224837, 1e-6, lambda *a: primes.gamma_pnt_ab(1, 4, *a),
        _PNT_METHODS),
)}


def catalog_names() -> list[str]:
    return list(CATALOG)


def catalog_entry(name: str) -> ConstantSpec:
    """The catalog entry of a name; DomainError for an unknown one."""
    if name not in CATALOG:
        raise DomainError(f"unknown constant {name!r}; known constants: "
                          + ", ".join(CATALOG))
    return CATALOG[name]


def paper_reference(name: str) -> tuple:
    """(paper_value, tolerance, citation) for a catalog name."""
    e = catalog_entry(name)
    return e.paper_value, e.paper_tolerance, e.paper_citation


@lru_cache(maxsize=256)
def _atilde_main_terms(fam: families.FamilySpec, prime_count: int) -> tuple:
    """(primes, terms), two read-only arrays (int64 and float64) over the
    first prime_count primes at which Atilde(p) != 0: the terms Atilde(p)
    p^(3/2) (p-1) log p / (p(p+1)^3) of the cubic-moment main sum.  The one
    cache of the Atilde layer; every H_sieve weight is applied afterwards.

    Atilde and the terms are built one CHUNK block of primes at a time.
    The weight is Python float arithmetic per prime, on lists of one block:
    numpy's p ** 1.5 and log p differ from Python's in the last bit at
    some primes, and p(p+1)^3 passes 2^63 once p > 55000."""
    table = first_n_primes(prime_count)
    entry = families.entry_of(fam)
    ps, terms = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for block in table.blocks(table.index(5)):
        at = entry.a_tildes(block)
        ps.append(block[at != 0])
        terms.append(np.array(
            [a * p ** 1.5 * (p - 1) * math.log(p) / (p * (p + 1) ** 3)
             for p, a in zip(ps[-1].tolist(), at[at != 0].tolist())]))
    ps, terms = np.concatenate(ps), np.concatenate(terms)
    ps.setflags(write=False)
    terms.setflags(write=False)
    return ps, terms


def _gamma_atilde_family(fam: families.FamilySpec, prime_count: int,
                         sieve_exponent: int | None = None
                         ) -> tuple[float, float]:
    """(main, sieve) cubic-moment constants over the first prime_count
    primes: sum_p Atilde(p) p^(3/2) (p-1) log p / (p(p+1)^3), and the same
    with the extra H_sieve weight (families.sieve_weights), under the
    family's own sieve exponent or `sieve_exponent`.  Both are math.fsum,
    exact before the one rounding, so the order of the terms does not
    matter."""
    ps, terms = _atilde_main_terms(fam, prime_count)
    k = families.sieve_exponent(fam, sieve_exponent)
    return math.fsum(terms), math.fsum(
        terms * families.sieve_weights(fam, ps, k))


def compute_constant(name: str, prime_limit: int | None = None,
                     first_primes: int | None = None) -> ConstantResult:
    """A catalog constant by its entry's default method, carrying
    truncation provenance."""
    entry = catalog_entry(name)
    return entry.run(entry.methods[0], prime_limit, first_primes)


def family_constant_Atilde(fam, prime_count: int = 5000,
                           sieve_exponent: int | None = None) -> tuple:
    """(main, sieve) cubic-moment family constants at the given truncation.

    `sieve_exponent` overrides the family's sieve exponent in the H_sieve
    weight only (the reference tabulation for the sextic-twist families was
    produced with exponent 3 across the board, including the kappa = 1
    members whose own exponent is 6)."""
    if isinstance(fam, str):
        fam = families.get_family(fam)
    # an integer before the main-sum cache, which takes 5e3 for 5000
    if integer(prime_count, "prime_count") < 5000:
        raise DomainError("prime_count must be >= 5000")
    return _gamma_atilde_family(fam, prime_count, sieve_exponent)


# --------------------------------------------------------------------------
# per-family aggregates

@dataclass(frozen=True)
class Aggregate:
    """A printed total, and pieces and sieve pieces, each a signed sum
    ((coefficient, name), ...) of catalog constants or of the cubic-moment
    pair "atilde" and "atilde_sieve", whose reference values (first 5000
    primes, errors at most .0367 and 1e-15) a sextic twist carries."""
    total: float
    pieces: dict
    sieve_pieces: dict = field(default_factory=dict)
    atilde: tuple = ()


def _sextic(total: float, atilde: float, atilde_sieve: float) -> Aggregate:
    return Aggregate(
        total,
        {"S_0": ((2, "gamma_pnt"), (-1, "gamma_cm0_ge5"), (-1, "gamma_23")),
         "S_1": (), "S_2": ((-1, "gamma_pnt_13"), (1, "gamma_cm2_13")),
         "S_Aprime": (), "S_Atilde": ((-1, "atilde"),)},
        {"S_012_sieve": ((-1, "gamma_sieve012"),),
         "S_Atilde_sieve": ((-1, "atilde_sieve"),)}, (atilde, atilde_sieve))


#: the one registry of aggregate targets
AGGREGATES = {
    "cusp_model": Aggregate(
        -1.33258,
        {"S_0": ((2, "gamma_pnt"), (-1, "gamma_st_0")), "S_1": (),
         "S_2": ((-1, "gamma_pnt"), (1, "gamma_st_2")), "S_Aprime": (),
         "S_Atilde": ((-1, "gamma_st_atilde"),)}),
    "cm_b1_kappa1": _sextic(-2.124, 0.3437, 0.000446),
    "cm_b1_kappa2": _sextic(-2.201, 0.4203, 0.000699),
    "cm_b2_kappa2": _sextic(-2.347, 0.5670, 0.000761),
    "cm_b3_kappa2": _sextic(-1.921, 0.1413, 0.000125),
    "cm_b6_kappa2": _sextic(-2.042, 0.2620, 0.000199),
    "noncm_3x12t": Aggregate(
        -2.703,
        {"S_0": ((-1, "gamma_0_3"), (-1, "gamma_23"), (2, "gamma_pnt")),
         "S_1": ((-1, "gamma_1_3"),),
         "S_2": ((-1, "gamma_2_3"), (0.5, "gamma_23"), (-1, "gamma_pnt")),
         "S_Aprime": ((-1, "gamma_aprime_3"),),
         "S_Atilde": ((-1, "gamma_atilde_3"),)}),
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


def aggregate_lower_order(target: str, source: str = "catalog",
                          allow_mixed_truncations: bool = False
                          ) -> FamilyLowerOrder:
    """Lower-order coefficient of 2*phihat(0)/log R for a target of
    AGGREGATES, with the per-piece breakdown retained.

    source="catalog" assembles the record from the reference values;
    source="computed" from the constants recomputed, each once, which
    mixes the reference truncations (a million primes for most sums, four
    million for two, 5000 for the cubic-moment sums), so it must be
    acknowledged via allow_mixed_truncations=True.

    source="derived" takes each piece as the log R -> infinity limit of the
    evaluate_S decomposition (explicit_formula.lower_order_limit), with the
    sieve parts under the family's own H weight, one "<piece>_sieve" entry
    per piece: the coefficient evaluate_S converges to.  It agrees with the
    cited pieces but for noncm_3x12t's S_0, S_1 and S_2 (module notes).
    Its block pass runs on LDL_THREADS workers, else one per CPU.
    """
    if source not in ("catalog", "computed", "derived"):
        raise DomainError("source must be 'catalog', 'computed' or 'derived'")
    if not isinstance(target, str) or target not in AGGREGATES:
        raise DomainError(f"no aggregate registered for {target!r}; "
                          f"supported: {sorted(AGGREGATES)}")
    if source == "computed" and not allow_mixed_truncations:
        raise VerificationError(
            "computed mode mixes the reference truncations (1e6 / 4e6 / "
            "5000 primes); pass allow_mixed_truncations=True to accept")
    if source == "derived":
        # explicit_formula imports this module, so import it at call time
        from .explicit_formula import lower_order_limit
        limit = lower_order_limit(target)
        pieces = {k: v["main"] for k, v in limit.items()}
        sieve = {f"{k}_sieve": v["sieve"] for k, v in limit.items()}
    else:
        pieces, sieve = _cited_pieces(target, source)
    return FamilyLowerOrder(
        target, pieces, sieve,
        math.fsum(pieces.values()) + math.fsum(sieve.values()))


def _cited_pieces(target: str, source: str) -> tuple[dict, dict]:
    """(pieces, sieve pieces) of the target's record, each constant read
    once, from the catalog or, source="computed", recomputed."""
    record, values = AGGREGATES[target], {}
    if record.atilde:
        # the reference bracket uses the exponent-3 sieve weight for every
        # member, including kappa = 1 (see family_constant_Atilde)
        values["atilde"], values["atilde_sieve"] = (
            record.atilde if source == "catalog"
            else family_constant_Atilde(target, sieve_exponent=3))

    def fold(terms) -> float:
        # from 0.0, left to right, as the cited expressions round: not sum
        acc = 0.0
        for a, name in terms:
            if name not in values:
                values[name] = (CATALOG[name].paper_value
                                if source == "catalog"
                                else compute_constant(name).value)
            acc += a * values[name]
        return acc

    return ({k: fold(t) for k, t in record.pieces.items()},
            {k: fold(t) for k, t in record.sieve_pieces.items()})


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
