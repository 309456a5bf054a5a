"""Test-function pairs, special functions, and the prime-sum decomposition.

Oracles: mpmath quadrature for the Fourier transforms and digamma, the
direct power-sum recurrence for the geometric remainder, and a synthetic
zero-moment family for the decomposition plumbing.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldl import constants, explicit_formula as ef, families
from ldl.errors import DomainError, IncompleteSumError

PAIR_NAMES = ["fejer:0.6", "gaussian_truncated:0.6", "indicator_smooth:0.6"]


# --------------------------------------------------------------------------
# test-function pairs

@pytest.mark.parametrize("name", PAIR_NAMES)
def test_pair_support_and_normalization(name):
    pair = ef.builtin_test_pair(name)
    assert pair.sigma == pytest.approx(0.6)
    assert float(pair.eval_phihat(pair.sigma + 1e-9)) == 0.0
    assert float(pair.eval_phihat(-pair.sigma - 0.5)) == 0.0
    assert float(pair.eval_phihat(0.0)) == pytest.approx(pair.phihat0)
    assert float(np.asarray(pair.eval_phi(0.0)).reshape(-1)[0]) == \
        pytest.approx(pair.phi0, rel=1e-12)


@pytest.mark.parametrize("name", PAIR_NAMES)
def test_pair_evenness(name):
    pair = ef.builtin_test_pair(name)
    xs = np.array([0.1, 0.37, 1.4, 2.9])
    assert np.allclose(pair.eval_phi(xs), pair.eval_phi(-xs), rtol=1e-12)
    us = np.array([0.05, 0.3, 0.55])
    assert np.allclose(pair.eval_phihat(us), pair.eval_phihat(-us))


@pytest.mark.parametrize("name", PAIR_NAMES)
def test_phi_is_fourier_transform_of_phihat(name):
    # phi(x) = 2 int_0^sigma phihat(u) cos(2 pi u x) du, checked by
    # high-precision quadrature
    pair = ef.builtin_test_pair(name)
    xs = [0.0, 0.31, 1.1, 2.5]
    if name.startswith("indicator"):
        # include the removable singularity of the closed form
        xs.append(1.0 / (2 * 0.6 * (1 - 0.8)))
    for x in xs:
        want = 2.0 * mpmath.quad(
            lambda u: float(pair.eval_phihat(u)) * mpmath.cos(
                2 * mpmath.pi * u * x), [0, 0.8 * 0.6, pair.sigma])
        got = float(np.asarray(pair.eval_phi(x)).reshape(-1)[0])
        assert got == pytest.approx(float(want), rel=1e-6, abs=1e-9)


def test_pair_name_parsing():
    a = ef.builtin_test_pair("fejer:0.9")
    b = ef.builtin_test_pair("fejer_sigma(0.9)")
    c = ef.builtin_test_pair("fejer", sigma=0.9)
    assert a.sigma == b.sigma == c.sigma == 0.9
    for bad in ("fejer", "fejer:zebra", "mystery:0.5", "fejer:0",
                "fejer:4.5"):
        with pytest.raises(DomainError):
            ef.builtin_test_pair(bad)


# --------------------------------------------------------------------------
# digamma and the conductor term

@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.05, max_value=80.0,
                 allow_nan=False, allow_infinity=False))
def test_digamma_matches_mpmath(x):
    assert ef.digamma(x) == pytest.approx(float(mpmath.digamma(x)),
                                          rel=1e-11, abs=1e-11)


def test_digamma_domain():
    with pytest.raises(DomainError):
        ef.digamma(0.0)


def test_conductor_weight():
    assert ef.conductor_weight(2) == pytest.approx(-4.830185462621755,
                                                   rel=1e-12)
    for bad in (1, 3, 0):
        with pytest.raises(DomainError):
            ef.conductor_weight(bad)


def test_conductor_term():
    pair = ef.builtin_test_pair("fejer:0.5")
    got = ef.conductor_term(2, 100.0, math.exp(10.0), pair)
    want = pair.phihat0 * (math.log(100.0) + ef.conductor_weight(2)) / 10.0
    assert got == pytest.approx(want, rel=1e-12)
    with pytest.raises(DomainError):
        ef.conductor_term(2, -1.0, math.e, pair)
    with pytest.raises(DomainError):
        ef.conductor_term(2, 10.0, 0.5, pair)


# --------------------------------------------------------------------------
# geometric remainder

@settings(max_examples=150, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
       st.sampled_from([5, 7, 11, 101, 997]))
def test_m3_remainder_matches_direct_sum(lam, p):
    assert ef.m3_remainder(lam, p) == pytest.approx(
        ef.m3_direct(lam, p), rel=1e-10, abs=1e-13)


@settings(max_examples=150, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
       st.sampled_from([5, 7, 11, 101, 997]))
def test_phihat0_integrands_rebuild_m3_remainder(lam, p):
    # for one form with a_p = lam sqrt(p), the phihat(0) integrands that
    # evaluate_S weights in S_0, S_1, S_2 and S_Atilde are an exact
    # rewrite of the m >= 3 tail of the explicit formula
    sp = math.sqrt(p)
    s0 = 2.0 / (p * (p + 1))
    s1 = -lam * sp * (3 * p + 1) / (p * (p + 1) ** 2)
    s2 = -lam ** 2 * (4 * p * p + 3 * p + 1) / (p * (p + 1) ** 3)
    s_atilde = (lam ** 3 * p ** 1.5 * (p - 1)
                / ((p + 1) ** 3 * (p + 1 - lam * sp)))
    assert s0 + s1 + s2 + s_atilde == pytest.approx(
        ef.m3_remainder(lam, p), rel=1e-10, abs=1e-13)


def test_m3_domain():
    with pytest.raises(DomainError):
        ef.m3_remainder(2.5, 7)


# --------------------------------------------------------------------------
# random-matrix predictions

def test_rmt_predictions():
    pair = ef.builtin_test_pair("fejer:0.9")
    assert ef.rmt_prediction("U", pair) == pytest.approx(1.0)
    assert ef.rmt_prediction("USp", pair) == pytest.approx(0.55)
    for sym in ("SO_even", "SO_odd", "O"):
        assert ef.rmt_prediction(sym, pair) == pytest.approx(1.45)
    with pytest.raises(DomainError):
        ef.rmt_prediction("GUE", pair)
    wide = ef.builtin_test_pair("fejer:1.5")
    with pytest.warns(UserWarning):
        ef.rmt_prediction("U", wide)


# --------------------------------------------------------------------------
# evaluate_S

def test_evaluate_s_structure():
    pair = ef.builtin_test_pair("indicator_smooth:0.18")
    dec = ef.evaluate_S("cusp_model", pair, math.exp(25.0))
    assert dec.family == "cusp_model"
    assert dec.support_complete
    assert set(dec.pieces) == {"S_Aprime", "S_0", "S_1", "S_2", "S_Atilde"}
    for piece in dec.pieces.values():
        assert set(piece) == {"main", "sieve"}
    total = math.fsum(v["main"] + v["sieve"] for v in dec.pieces.values())
    assert dec.total == pytest.approx(total, rel=1e-12)
    L = 25.0
    coeff = (dec.total - dec.main_term_estimate) * L / (2 * pair.phihat0)
    assert dec.lower_order_coefficient == pytest.approx(coeff, rel=1e-12)
    out = dec.as_dict()
    assert out["tail_bound"] >= 0.0
    assert out["prime_limit"] >= 1


def test_evaluate_s_rank_enters_main_term():
    pair = ef.builtin_test_pair("indicator_smooth:0.18")
    rank1 = ef.evaluate_S("rank1_36t", pair, math.exp(25.0))
    rank0 = ef.evaluate_S("rank0_36t", pair, math.exp(25.0))
    assert rank1.main_term_estimate == pytest.approx(1.5 * pair.phi0)
    assert rank0.main_term_estimate == pytest.approx(0.5 * pair.phi0)


def test_evaluate_s_truncation_guards():
    pair = ef.builtin_test_pair("fejer:2.0")
    with pytest.raises(IncompleteSumError):
        ef.evaluate_S("cusp_model", pair, math.exp(50.0), prime_limit=1000)
    with pytest.raises(DomainError):
        ef.evaluate_S("cusp_model", pair, 0.5)


def test_evaluate_s_zero_moments_give_pure_main_term(monkeypatch):
    class ZeroMoments:
        def __init__(self, fam, p_int, pf):
            z = np.zeros_like(pf)
            self.A0, self.A1, self.A2, self.hs = z, z, z, z
            self.has_bad = False

        def bad_moment(self, m):
            return 0.0

    monkeypatch.setattr(ef, "_FamilyMoments", ZeroMoments)
    monkeypatch.setattr(ef, "_atilde_sums", lambda fam, n: (0.0, 0.0))
    pair = ef.builtin_test_pair("fejer:0.3")
    dec = ef.evaluate_S("cm_b1_kappa1", pair, math.exp(20.0))
    assert dec.total == 0.0
    want = -dec.main_term_estimate * 20.0 / (2 * pair.phihat0)
    assert dec.lower_order_coefficient == pytest.approx(want, rel=1e-12)


@pytest.mark.slow
def test_evaluate_s_thread_count_independence():
    pair = ef.builtin_test_pair("indicator_smooth:0.18")
    one = ef.evaluate_S("noncm_3x12t", pair, math.exp(30.0), threads=1)
    eight = ef.evaluate_S("noncm_3x12t", pair, math.exp(30.0), threads=8)
    assert one.total == eight.total
    assert one.pieces == eight.pieces


def test_lower_order_limit_needs_a_prime_number_theorem_split():
    # the quartic pair's A_1 and A_2 live on p = 1 mod 4, which the split
    # into all primes and p = 1 mod 3 does not cover
    with pytest.raises(DomainError):
        ef.lower_order_limit("rank1_36t")


def test_evaluate_s_brute_path_matches_vectorized():
    # a renamed clone of a built-in goes through the brute-force moment
    # path; at a small truncation the two decompositions must agree
    fam = families.get_family("cm_b1_kappa2")
    clone = families.load_family({
        "name": "generic_clone", "A": list(fam.A_poly),
        "B": list(fam.B_poly),
        "D_factors": [list(f) for f in fam.D_factors], "k": int(fam.k),
        "forced_zero_primes": [2, 3]})
    pair = ef.builtin_test_pair("fejer:0.4")
    R = math.exp(25.0)
    # a tiny cubic-moment truncation keeps the clone's O(p^2) brute path
    # affordable; both sides use the same truncation
    fast = ef.evaluate_S(fam, pair, R, atilde_primes=30)
    brute = ef.evaluate_S(clone, pair, R, atilde_primes=30)
    for key in fast.pieces:
        for part in ("main", "sieve"):
            assert brute.pieces[key][part] == pytest.approx(
                fast.pieces[key][part], rel=1e-9, abs=1e-12)
