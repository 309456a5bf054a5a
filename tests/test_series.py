"""Combinatorial sequences, polylogarithm identities, and moment series.

Oracles: mpmath's polylog, direct Fraction arithmetic, and the classic
closed forms re-derived independently inside the tests.
"""

import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldl import series
from ldl._sum import chunked_sum
from ldl.errors import DomainError
from ldl.primes import get_table

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


def test_catalan_and_central_binomial():
    for n, c in enumerate(CATALAN):
        assert series.catalan(n) == c
        assert series.central_binomial(n) == math.comb(2 * n, n)


def test_moment_sequence():
    for ell in range(10):
        assert series.moment_sequence("sato_tate", ell) == CATALAN[ell]
        assert series.moment_sequence("cm", ell) == math.comb(2 * ell, ell)
    with pytest.raises(DomainError):
        series.moment_sequence("sato_tate", -1)
    with pytest.raises(DomainError):
        series.moment_sequence("unknown", 2)


def test_eulerian_rows():
    # <r,0>..<r,r>, with the conventional trailing <r,r> = 0 for r >= 1
    assert series.eulerian_row(0) == [1]
    assert series.eulerian_row(3) == [1, 4, 1, 0]
    assert series.eulerian_row(4) == [1, 11, 11, 1, 0]
    for r in range(1, 9):
        assert sum(series.eulerian_row(r)) == math.factorial(r)
    # the closed form against the triangle recurrence
    # <n,j> = (j+1)<n-1,j> + (n-j)<n-1,j-1>
    row = [1]
    for r in range(40):
        assert series.eulerian_row(r) == row, r
        row = [(j + 1) * (row[j] if j < len(row) else 0)
               + (r + 1 - j) * (row[j - 1] if j else 0)
               for j in range(r + 2)]


@pytest.mark.parametrize("call", [
    lambda: series.hecke_power_expansion(2.5),
    lambda: series.eulerian_row(2.5),
    lambda: series.moment_sequence("cm", 2.5),
    lambda: series.polylog_neg(1.5, 0.5),
    lambda: series.polylog_identity_check(1.5, 0.25),
], ids=["hecke_power_expansion", "eulerian_row", "moment_sequence",
        "polylog_neg", "polylog_identity_check"])
def test_a_non_integer_order_is_refused(call):
    with pytest.raises(DomainError):
        call()


def test_polylog_neg_exact_small_orders():
    x = Fraction(1, 3)
    # independent closed forms for orders 0..3
    assert series.polylog_neg(0, x) == x / (1 - x)
    assert series.polylog_neg(1, x) == x / (1 - x) ** 2
    assert series.polylog_neg(2, x) == x * (1 + x) / (1 - x) ** 3
    assert series.polylog_neg(3, x) == \
        x * (1 + 4 * x + x * x) / (1 - x) ** 4


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=6),
       st.fractions(min_value=Fraction(-9, 10), max_value=Fraction(9, 10)))
def test_polylog_neg_matches_mpmath(r, x):
    got = series.polylog_neg(r, x)
    want = mpmath.polylog(-r, float(x))
    assert float(got) == pytest.approx(float(want), rel=1e-10, abs=1e-12)


def test_polylog_neg_domain():
    with pytest.raises(DomainError):
        series.polylog_neg(-1, Fraction(1, 2))
    with pytest.raises(DomainError):
        series.polylog_neg(2, Fraction(3, 2))


def test_polylog_identities_exact():
    xs = [Fraction(1, q) for q in (3, 4, 5, 7, 9, 11)]
    xs += [Fraction(-2, 5), Fraction(2, 3)]
    for ell in range(1, 7):
        for x in xs:
            assert series.polylog_identity_check(ell, x)


def test_polylog_identity_negative_control():
    assert not series.polylog_identity_check(2, Fraction(1, 3),
                                             perturb=Fraction(1, 10 ** 9))
    with pytest.raises(DomainError):
        series.polylog_identity_check(7, Fraction(1, 3))


def test_g_moment_exact_closed_forms():
    # at x = p/(p+1)^2 the square root collapses: 1 - 4x = ((p-1)/(p+1))^2,
    # so the generating functions are exactly rational and can be
    # re-derived independently here
    for p in (2, 3, 5, 7, 97, 499):
        x = Fraction(p, (p + 1) ** 2)
        root = Fraction(p - 1, p + 1)
        st_expect = (1 - root) / (2 * x) - 1 - x
        cm_expect = (1 - root) / root - 2 * x
        assert series.g_moment("sato_tate", x) == st_expect
        assert series.g_moment("cm", x) == cm_expect


def test_g_moment_float_matches_exact_and_series():
    for p in (2, 5, 13, 101):
        x = Fraction(p, (p + 1) ** 2)
        for kind in ("sato_tate", "cm"):
            exact = float(series.g_moment(kind, x))
            approx = series.g_moment(kind, float(x))
            assert approx == pytest.approx(exact, rel=1e-12)
            trunc = _g_moment_series(kind, float(x), terms=400)
            assert trunc == pytest.approx(exact, rel=1e-10)


def _g_moment_series(kind: str, x: float, terms: int) -> float:
    """The truncated series sum_{2 <= l <= terms} M_l x^l."""
    return float(sum(series.moment_sequence(kind, l) * x ** l
                     for l in range(2, terms + 1)))


def test_g_moment_domain():
    with pytest.raises(DomainError):
        series.g_moment("sato_tate", 0.3)
    with pytest.raises(DomainError):
        series.g_moment("sato_tate", Fraction(1, 3))
    with pytest.raises(DomainError):
        series.g_moment("cm", Fraction(1, 4))  # p = 1 pole


def test_p_ell_sum_decreasing_in_ell():
    table = get_table(10 ** 4)
    vals = [series.p_ell_sum(ell, table) for ell in range(2, 10)]
    assert all(a > b > 0 for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        series.p_ell_sum(1, table)


def test_p_ell_sum_residue_classes_split():
    table = get_table(10 ** 4)
    full = series.p_ell_sum(3, table)
    parts = (series.p_ell_sum(3, table, cls=(1, 4))
             + series.p_ell_sum(3, table, cls=(3, 4))
             + (2.0 - 1.0) * math.log(2.0) / 3.0 * (2.0 / 9.0) ** 3)
    assert parts == pytest.approx(full, rel=1e-12)


@pytest.mark.parametrize("ell", [2, 20, 46, 47, 100, 340])
def test_p_ell_sum_equals_the_full_column_sum(ell):
    # the terms past the underflow cut are exact zeros, so the sum has the
    # bits of the chunked sum of the whole column (ell = 46 and 47 put the
    # cut just past and just inside the table of primes up to 10^7)
    table = get_table(10 ** 7)
    pf = table.primes.astype(np.float64)
    x = pf / (pf + 1.0) ** 2
    column = (pf - 1.0) * np.log(pf) / (pf + 1.0) * x ** ell
    assert series.p_ell_sum(ell, table) == chunked_sum(column)
    for a, b in ((1, 3), (2, 3), (1, 4), (3, 4)):
        p = table.primes[table.primes % b == a].astype(np.float64)
        x = p / (p + 1.0) ** 2
        column = (p - 1.0) * np.log(p) / (p + 1.0) * x ** ell
        assert series.p_ell_sum(ell, table, cls=(a, b)) == \
            chunked_sum(column)


def test_p_ell_sum_streams_the_table():
    # a block of terms at a time: a column of the 664,579 primes below
    # 10^7 takes 5.3 MB, and the sum built several
    table = get_table(10 ** 7)
    series.p_ell_sum(2, table)
    tracemalloc.start()
    try:
        series.p_ell_sum(2, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20


def test_hecke_power_expansion_reconstructs_powers():
    # lambda(p^m) as a polynomial in lambda obeys the Chebyshev-like
    # recurrence u_{m+1} = lam*u_m - u_{m-1}; the expansion must rebuild
    # lam^r exactly
    lam = 1.234567
    u = [1.0, lam]
    for _ in range(2, 31):
        u.append(lam * u[-1] - u[-2])
    for r in range(13):
        coeffs = series.hecke_power_expansion(r)
        total = sum(b * u[r - 2 * k] for k, b in enumerate(coeffs))
        assert total == pytest.approx(lam ** r, rel=1e-12)


def test_hecke_constant_terms_are_catalan():
    for ell in range(13):
        row = series.hecke_power_expansion(2 * ell)
        assert row[-1] == series.catalan(ell)
    with pytest.raises(DomainError):
        series.hecke_power_expansion(31)
