"""Tests of the benchmark's own oracle on primes small enough to check by
hand.  Run with: python3 -m pytest perfbench/test_oracle.py"""

import math

import pytest

import oracle


def naive_trace(curve, t, p):
    """a = p - #{(x, y) mod p : y^2 = x^3 + A(t) x + B(t)}, by pure
    enumeration of both coordinates."""
    a = sum(c * t ** i for i, c in enumerate(curve.A)) % p
    b = sum(c * t ** i for i, c in enumerate(curve.B)) % p
    points = sum(1 for x in range(p) for y in range(p)
                 if (y * y - x ** 3 - a * x - b) % p == 0)
    return p - points


def test_legendre_table_at_7():
    # the squares mod 7 are 1, 2 and 4
    assert list(oracle._legendre_table(7)) == [0, 1, 1, -1, 1, -1, -1]


def test_hand_counted_traces():
    cm = oracle.CURVES["cm_b1_kappa1"]
    # t = 0 gives y^2 = x^3 + 1.  Mod 7: x = 0 gives 2 points, x = 1, 2, 4
    # give x^3 + 1 = 2 = 3^2 (2 points each), x = 3, 5, 6 give 0 (1 each):
    # 11 points, a = -4
    a, good = oracle.traces(cm, 7)
    assert a[0] == -4 and good[0]
    # p = 5 = 2 mod 3: every y^2 = x^3 + c is supersingular
    a, _ = oracle.traces(cm, 5)
    assert list(a) == [0, 0, 0, 0, 0]


@pytest.mark.parametrize("p", [5, 7, 13])
@pytest.mark.parametrize("name", sorted(oracle.CURVES))
def test_traces_match_enumeration(name, p):
    curve = oracle.CURVES[name]
    a, good = oracle.traces(curve, p)
    assert list(a) == [naive_trace(curve, t, p) for t in range(p)]
    assert all(abs(int(v)) <= 2 * math.sqrt(p) for v in a[good])


def test_bad_fibres_of_the_sextic_family():
    # Delta = -16 * 27 * (6t + 1)^2 vanishes mod 13 only at 6t + 1 = 0,
    # t = 2
    _, good = oracle.traces(oracle.CURVES["cm_b1_kappa1"], 13)
    assert [t for t in range(13) if not good[t]] == [2]


def test_moments_and_atilde_by_enumeration():
    curve = oracle.CURVES["cm_b1_kappa1"]
    p = 7
    a = [naive_trace(curve, t, p) for t in range(p)]
    good = [v for t, v in enumerate(a) if (6 * t + 1) % p]
    moments, bad = oracle.moments(curve, p, 2)
    assert moments == (len(good), sum(good), sum(v * v for v in good))
    assert bad == (1, 0, 0)
    want = sum((v / math.sqrt(p)) ** 3 / (p + 1 - v) for v in good)
    assert oracle.a_tilde(curve, p) == pytest.approx(want, rel=1e-12)
    # on p = 5 mod 6 every good trace is 0
    assert oracle.a_tilde(curve, 5) == 0.0


def test_root_counts():
    cm = oracle.CURVES["cm_b1_kappa2"]
    quartic = oracle.CURVES["rank1_36t"]
    # 6t + 1 = 0 mod 5 at t = 4 only; the simple root lifts to 5^3 (scan)
    # and to 13^6 (Hensel)
    assert oracle.nu(cm, 5, 1) == 1
    assert oracle.nu(cm, 5, 3) == 1
    assert oracle.nu(cm, 13, 6) == 1
    # (36t + 6)(36t + 5) has one root mod 7 from each factor
    assert oracle.nu(quartic, 7, 1) == 2
    assert oracle.nu(quartic, 7, 3) == 2
    assert oracle.h_sieve(cm, 5, 3) == pytest.approx((1 / 125) / (1 - 1 / 125))


def test_impostor_config_is_the_kappa1_curve():
    cfg = {"name": "cm_b1_kappa2", "A": [0], "B": [1, 6],
           "D_factors": [[1, 6]], "k": 3}
    impostor = oracle.curve_from_config(cfg)
    real = oracle.CURVES["cm_b1_kappa1"]
    assert oracle.a_tilde(impostor, 13) == oracle.a_tilde(real, 13)
    assert oracle.a_tilde(impostor, 13) != \
        oracle.a_tilde(oracle.CURVES["cm_b1_kappa2"], 13)


def test_phi0_of_the_raised_cosine():
    assert oracle.phi0_indicator(0.18) == pytest.approx(0.324, abs=1e-15)
