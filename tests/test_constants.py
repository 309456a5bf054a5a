"""Catalog constants and per-family aggregates.

Oracles: plain-Python reimplementations of every summand (via
sympy.primerange and math.fsum) at small truncations, exact rational
arithmetic for the cancellation identity, and brute-force cubic-moment
sums through the generic family path.
"""

import math
from fractions import Fraction

import pytest
import sympy

from ldl import constants, explicit_formula as ef, families
from ldl.errors import DomainError, VerificationError
from ldl.primes import first_n_primes


def _first_primes(n):
    out = []
    gen = sympy.primerange(2, 10 ** 9)
    for p in gen:
        out.append(p)
        if len(out) == n:
            return out
    raise AssertionError("unreachable")


def _chi3(p):  # (3/p) for p >= 5
    return 1 if p % 12 in (1, 11) else -1


def _chim3(p):  # (-3/p) for p >= 5
    return 1 if p % 3 == 1 else -1


# independent per-prime summands, written directly from the catalog
# descriptions rather than reusing the package implementations
ORACLE_SUMMANDS = {
    "gamma_st_0": lambda p: 2 * math.log(p) / (p * (p + 1)),
    "gamma_st_2": lambda p:
        (4 * p * p + 3 * p + 1) * math.log(p) / (p * (p + 1) ** 3),
    "gamma_st_atilde": lambda p:
        (2 * p + 1) * (p - 1) * math.log(p) / (p * (p + 1) ** 3),
    "gamma_cm_13": lambda p:
        2 * (3 * p + 1) * math.log(p) / (p + 1) ** 3 if p % 3 == 1 else 0.0,
    "gamma_cm_14": lambda p:
        2 * (3 * p + 1) * math.log(p) / (p + 1) ** 3 if p % 4 == 1 else 0.0,
    "gamma_cm0_ge5": lambda p:
        4 * math.log(p) / (p * (p + 1)) if p >= 5 else 0.0,
    "gamma_cm2_13": lambda p:
        2 * (5 * p * p + 2 * p + 1) * math.log(p) / (p * (p + 1) ** 3)
        if p % 3 == 1 else 0.0,
    "gamma_aprime_3": lambda p: 0.0 if p < 5 else (
        2 * math.log(p) / (p ** 3 - p)
        + (2 if p % 12 == 1 else -2 if p % 12 == 5 else 0)
        * math.log(p) / (p * p - 1)),
    "gamma_0_3": lambda p:
        (2 * p - 1) * math.log(p) / (p * p * (p + 1)) if p >= 5 else 0.0,
    "gamma_1_3": lambda p: 0.0 if p < 5 else
        (_chi3(p) + _chim3(p)) * (p - 1) * math.log(p)
        / (p * p * (p + 1) ** 2),
    "gamma_2_3": lambda p: 0.0 if p < 5 else (
        ((2 - _chim3(p)) * p ** 4 - (13 + 7 * _chim3(p)) * p ** 3
         - (25 + 6 * _chim3(p)) * p * p - (16 + 2 * _chim3(p)) * p - 4)
        * math.log(p) / (p ** 3 * (p + 1) ** 3)),
    "gamma_sieve012": lambda p: 0.0 if p < 5 else (
        -math.log(p) / (p ** 3 - 1)
        * (2 * (p - 1) / (p * (p + 1))
           - (2 * (p - 1) ** 2 / (p + 1) ** 3 if p % 3 == 1 else 0.0))),
}


@pytest.mark.parametrize("name", sorted(ORACLE_SUMMANDS))
def test_catalog_constants_match_plain_python_oracle(name):
    n = 2000
    expected = math.fsum(ORACLE_SUMMANDS[name](p) for p in _first_primes(n))
    res = constants.compute_constant(name, first_primes=n)
    assert res.value == pytest.approx(expected, rel=1e-13, abs=1e-15)
    assert res.truncation == n
    assert res.tail_bound >= 0.0


def test_gamma_23_exact():
    res = constants.compute_constant("gamma_23")
    assert res.value == pytest.approx(math.log(2) + 2 * math.log(3) / 3,
                                      rel=1e-15)
    assert res.method == "closed_form"


def test_gamma_atilde_3_matches_generic_brute_force():
    # the fast cubic-moment path for the unsieved family, against the
    # brute-force enumeration through a renamed clone
    n = 25
    fam = families.get_family("noncm_3x12t")
    clone = families.load_family({
        "name": "generic_clone",
        "A": list(fam.A_poly), "B": list(fam.B_poly),
        "D_factors": [list(f) for f in fam.D_factors], "k": None,
        "forced_zero_primes": [2, 3]})
    expected = math.fsum(
        families.a_tilde(clone, int(p)) * int(p) ** 1.5 * (int(p) - 1)
        * math.log(int(p)) / (int(p) * (int(p) + 1) ** 3)
        for p in first_n_primes(n).primes if int(p) >= 5)
    res = constants.compute_constant("gamma_atilde_3", first_primes=n)
    assert res.value == pytest.approx(expected, rel=1e-10)


def test_tail_bound_covers_refinement():
    for name in ("gamma_st_0", "gamma_cm2_13", "gamma_aprime_3"):
        coarse = constants.compute_constant(name, first_primes=2000)
        fine = constants.compute_constant(name, first_primes=50000)
        assert abs(fine.value - coarse.value) <= coarse.tail_bound


def test_catalog_names_and_references():
    names = constants.catalog_names()
    assert "gamma_st_0" in names and "gamma_pnt" in names
    for name in names:
        value, tol, citation = constants.paper_reference(name)
        assert tol > 0
        assert citation.startswith("ref:")
    with pytest.raises(DomainError):
        constants.paper_reference("gamma_nope")


def test_compute_constant_argument_errors():
    with pytest.raises(DomainError):
        constants.compute_constant("gamma_nope")
    with pytest.raises(DomainError):
        constants.compute_constant("gamma_st_0", prime_limit=100,
                                   first_primes=100)


def test_exact_cancellation_and_negative_control():
    assert constants.exact_cancellation_check(10 ** 3)
    assert not constants.exact_cancellation_check(100, perturb=1)


def test_family_constant_atilde_guards():
    with pytest.raises(DomainError):
        constants.family_constant_Atilde("cm_b1_kappa1", prime_count=100)


def test_aggregate_catalog_mode():
    for target, want in constants.AGGREGATE_REFERENCE.items():
        agg = constants.aggregate_lower_order(target)
        assert agg.aggregate == pytest.approx(want, abs=5e-3)
        assert agg.piece_sum() == pytest.approx(agg.aggregate, abs=1e-12)
        assert set(agg.pieces) == {"S_0", "S_1", "S_2", "S_Aprime",
                                   "S_Atilde"}


def test_aggregate_unregistered_target_raises_in_every_mode():
    # cm_b2_kappa1 has no reference aggregate; it must not borrow the
    # values of another curve
    for source in ("catalog", "computed", "derived"):
        with pytest.raises(DomainError):
            constants.aggregate_lower_order(
                "cm_b2_kappa1", source=source, allow_mixed_truncations=True)


def test_aggregate_computed_mode_guard(monkeypatch):
    with pytest.raises(VerificationError):
        constants.aggregate_lower_order("cusp_model", source="computed")
    with pytest.raises(DomainError):
        constants.aggregate_lower_order("cusp_model", source="guess")
    with pytest.raises(DomainError):
        constants.aggregate_lower_order("rank1_36t")
    # derived mode needs no truncation acknowledgement; the cubic-moment
    # sums are stubbed here (minutes of work), their values are covered by
    # the acceptance suite
    monkeypatch.setattr(ef, "_atilde_sums", lambda fam, n: (0.0, 0.0))
    for target in constants.AGGREGATE_REFERENCE:
        agg = constants.aggregate_lower_order(target, source="derived")
        assert set(agg.pieces) == {"S_0", "S_1", "S_2", "S_Aprime",
                                   "S_Atilde"}
        assert agg.piece_sum() == pytest.approx(agg.aggregate, abs=1e-12)
    with pytest.raises(DomainError):
        constants.aggregate_lower_order("rank1_36t", source="derived")
