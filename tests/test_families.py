"""Family data: Fourier coefficients, moments, cubic-moment sums, sieving.

Oracles: direct affine point counts over F_p, brute-force enumerations
over t, and exact integer arithmetic throughout.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldl import families
from ldl.errors import DomainError, ResourceError
from ldl.primes import get_table

BUILTINS = sorted(families.BUILTIN_FAMILIES)

SMALL_PRIMES = [5, 7, 11, 13, 17, 19, 23]


def _affine_point_count(A: int, B: int, p: int) -> int:
    return sum(1 for x in range(p) for y in range(p)
               if (y * y - (x ** 3 + A * x + B)) % p == 0)


def _clone_generic(fam: families.FamilySpec) -> families.FamilySpec:
    """Same curve data under a non-built-in name, forcing the brute-force
    code paths."""
    return families.load_family({
        "name": "generic_clone",
        "A": list(fam.A_poly), "B": list(fam.B_poly),
        "D_factors": [list(f) for f in fam.D_factors],
        "k": None if fam.k == families.INF else int(fam.k),
        "forced_zero_primes": sorted(fam.forced_zero_primes),
    })


# --------------------------------------------------------------------------
# Fourier coefficients

@pytest.mark.parametrize("name", BUILTINS)
def test_a_t_p_matches_point_counts(name):
    fam = families.get_family(name)
    for p in (5, 7, 11, 13):
        for t in range(p):
            A = families.poly_eval(fam.A_poly, t) % p
            B = families.poly_eval(fam.B_poly, t) % p
            a = families.a_t_p(fam, t, p)
            assert a == p - _affine_point_count(A, B, p)


@pytest.mark.parametrize("name", BUILTINS)
def test_hasse_bound_at_good_reduction(name):
    fam = families.get_family(name)
    for p in SMALL_PRIMES:
        for t in range(p):
            if families.reduction_type(fam, t, p) == "good":
                assert families.a_t_p(fam, t, p) ** 2 <= 4 * p


def test_reduction_type_tracks_discriminant():
    fam = families.get_family("noncm_3x12t")
    for p in SMALL_PRIMES:
        for t in range(p):
            rt = families.reduction_type(fam, t, p)
            good = fam.discriminant_at(t) % p != 0
            assert (rt == "good") == good


# --------------------------------------------------------------------------
# moments: brute force vs closed forms

@pytest.mark.parametrize("name", BUILTINS)
def test_closed_form_moments_match_brute_force(name):
    fam = families.get_family(name)
    bad_max = 6 if name == "noncm_3x12t" else 2
    for p in (int(q) for q in get_table(100).primes if q >= 5):
        for r in range(3):
            for side in ("good", "bad"):
                m_max = bad_max if side == "bad" else 2
                if r > m_max:
                    continue
                try:
                    closed = families.closed_form_moment(fam, p, r, side)
                except DomainError:
                    continue
                brute = families.complete_moment(fam, p, r, side)
                assert brute == closed, (name, p, r, side)


def test_complete_moment_domain():
    fam = families.get_family("cm_b1_kappa1")
    with pytest.raises(DomainError):
        families.complete_moment(fam, 6, 0)
    with pytest.raises(DomainError):
        families.complete_moment(fam, 7, -1)
    with pytest.raises(DomainError):
        families.complete_moment(fam, 7, 0, side="ugly")


def test_closed_form_unregistered_family_raises():
    clone = _clone_generic(families.get_family("cm_b1_kappa2"))
    with pytest.raises(DomainError):
        families.closed_form_moment(clone, 7, 0)


def test_moment_table_consistent_with_complete_moment():
    fam = families.get_family("noncm_3x12t")
    mt = families.moment_table(fam, 13, r_max=4)
    for r in range(5):
        assert mt.moments[r] == families.complete_moment(fam, 13, r, "good")
        assert mt.bad_moments[r] == families.complete_moment(
            fam, 13, r, "bad")
    assert mt.h == (1.0, 0.0)  # no sieving for this family
    assert mt.nu == 0


# --------------------------------------------------------------------------
# quadratic Legendre sums

@settings(max_examples=300, deadline=None)
@given(st.sampled_from([3, 5, 7, 11, 13, 17, 101, 199]),
       st.integers(0, 300), st.integers(0, 300), st.integers(0, 300))
def test_quadratic_legendre_sum_matches_brute(p, a, b, c):
    if a % p == 0 and b % p == 0:
        with pytest.raises(DomainError):
            families.quadratic_legendre_sum(a, b, c, p)
        return
    assert families.quadratic_legendre_sum(a, b, c, p) == \
        families.quadratic_legendre_sum_brute(a, b, c, p)


# --------------------------------------------------------------------------
# cubic-moment sums

def _quartic_class_index(p: int, g: int) -> np.ndarray:
    """i with n in g^i (F_p^*)^4 for every residue n (-1 at 0)."""
    x = np.arange(1, p, dtype=np.int64)
    fourth = np.unique((x * x % p) ** 2 % p)
    cls = np.full(p, -1, dtype=np.int64)
    for i in range(4):
        cls[pow(g, i, p) * fourth % p] = i
    return cls


@pytest.mark.parametrize("name", BUILTINS)
def test_a_tilde_fast_paths_match_brute_force(name):
    """Atilde against point counts; for the CM built-ins also the closed-form
    traces and class counts, and Atilde(p) bit for bit against the O(p)
    construction from point counts, for every prime up to 10^4."""
    fam = families.get_family(name)
    clone = _clone_generic(fam)
    for p in (7, 13, 31, 37):
        fast = families.a_tilde(fam, p)
        brute = families.a_tilde(clone, p)
        assert fast == pytest.approx(brute, rel=1e-10, abs=1e-12)
    kind = families.family_kind(fam)
    trace = families._a_for_coefficients
    for p in (int(q) for q in get_table(10 ** 4).primes if q >= 5):
        if kind[0] == "sextic" and p % 3 == 1:
            _, bb, kappa = kind
            g = families._find_generator(p)
            pi = families._eisenstein_prime(p)
            reps = [bb * pow(g, i * kappa, p) % p for i in range(6)]
            a_reps = np.array([trace(0, c, p) for c in reps])
            assert [families._a_sextic(c, p, pi) for c in reps] == \
                a_reps.tolist(), (name, p)
            if kappa == 1:
                want = (p - 1) // 6 * families._lambda_cubed_weight(a_reps, p)
            else:
                want = (p - 1) // 3 * families._lambda_cubed_weight(
                    a_reps[[0, 2, 4]], p)
            assert families.a_tilde(fam, p) == want, (name, p)
        elif kind[0] == "quartic" and p % 4 == 1:
            bb = kind[1]
            g = families._find_generator(p)
            t = np.arange(p, dtype=np.int64)
            c = bb * ((36 * t + 6) % p) % p * ((36 * t + 5) % p) % p
            counts = np.bincount(_quartic_class_index(p, g)[c[c != 0]],
                                 minlength=4)
            brute = [(int(n), trace(-pow(g, i, p) % p, 0, p))
                     for i, n in enumerate(counts)]
            assert families._quartic_class_data(bb, p) == brute, (name, p)
            want = 0.0
            for n, a in brute:
                lam = a / math.sqrt(p)
                want += n * lam ** 3 / (p + 1 - a)
            assert families.a_tilde(fam, p) == want, (name, p)
            assert families._a_ref_curve(p) == trace(p - 1, 0, p)


def test_builtin_name_on_another_curve_takes_brute_force():
    # named like the built-in, but the curve is y^2 = x^3 + (6T + 1)
    fam = families.load_family({
        "name": "cm_b1_kappa2", "A": [0], "B": [1, 6],
        "D_factors": [[1, 6]], "k": 3, "forced_zero_primes": [2, 3]})
    assert families.family_kind(fam) == ("custom",)
    assert families.family_kind("cm_b1_kappa2") == ("sextic", 1, 2)
    p = 13
    want = 0.0
    for t in range(p):
        if (1 + 6 * t) % p:
            a = p - _affine_point_count(0, 1 + 6 * t, p)
            want += (a / math.sqrt(p)) ** 3 / (p + 1 - a)
    assert families.a_tilde(fam, p) == pytest.approx(want, rel=1e-12)
    assert families.a_tilde(fam, p) == pytest.approx(1.71288, abs=1e-5)
    with pytest.raises(DomainError):
        families.closed_form_moment(fam, p, 2)


def test_a_tilde_domain():
    fam = families.get_family("cm_b1_kappa1")
    with pytest.raises(DomainError):
        families.a_tilde(fam, 3)


# --------------------------------------------------------------------------
# sieving

def test_nu_d_matches_brute_root_count():
    fam = families.get_family("rank1_36t")
    for d in (5, 7, 25, 35, 49, 121):
        brute = sum(1 for t in range(d) if fam.d_product_at(t) % d == 0)
        assert families.nu_D(fam, d) == brute
    # the Hensel count against the scan of t mod p^k (nu_D below the scan
    # limit)
    for fam in families.BUILTIN_FAMILIES.values():
        for p in (int(q) for q in get_table(100).primes):
            assert families._nu_prime_power(fam, p, 3) == \
                families.nu_D(fam, p ** 3), (fam.name, p)
        for p in (5, 7):
            assert families._nu_prime_power(fam, p, 6) == \
                families.nu_D(fam, p ** 6), (fam.name, p)


def test_nu_d_counts_factors_divisible_by_p():
    # D = 5(1 + 2t): 5^e | D(t) iff 5^(e-1) | 1 + 2t, five t mod 5^e
    fam = families.load_family({"name": "content", "A": [0], "B": [1, 6],
                                "D_factors": [[5, 10]], "k": 3})
    for e in (1, 2, 8, 9, 12):
        assert families.nu_D(fam, 5 ** e) == 5
    assert families.h_factor(fam, 5, exponent=9)[1] == \
        pytest.approx(5 / (5 ** 9 - 5), rel=1e-12)
    # a factor with a double root mod p, beyond the scan range
    double = families.load_family({"name": "double", "A": [0], "B": [1, 6],
                                   "D_factors": [[1, 2, 1]], "k": 3})
    assert families.nu_D(double, 13 ** 3) == 13
    with pytest.raises(ResourceError):
        families.h_factor(double, 101)


def test_h_factor_values_and_overrides():
    fam = families.get_family("cm_b1_kappa2")  # k = 3
    p = 7
    nu = families.nu_D(fam, p ** 3)
    main, sieve = families.h_factor(fam, p)
    assert main == 1.0
    assert sieve == pytest.approx(nu / (p ** 3 - nu), rel=1e-12)
    # override with a larger exponent shrinks the sieve part
    _, sieve6 = families.h_factor(fam, p, exponent=6)
    assert 0 <= sieve6 < sieve
    with pytest.raises(DomainError):
        families.h_factor(fam, p, exponent=2)
    # unsieved family: no sieve part unless an exponent is forced
    noncm = families.get_family("noncm_3x12t")
    assert families.h_factor(noncm, p) == (1.0, 0.0)


def test_sieve_window_invariants():
    fam = families.get_family("cm_b1_kappa2")
    win = families.sieve_window(fam, 10 ** 4)
    assert win.W == int(win.good_t.sum())
    assert win.good_t.size == win.N + 1
    density = win.W / win.good_t.size
    euler = families.sieve_density(fam, 10 ** 4)
    assert density == pytest.approx(euler, abs=0.01)
    with pytest.raises(DomainError):
        families.sieve_window(fam, 0)
    with pytest.raises(ResourceError):
        families.sieve_window(fam, 10 ** 7 + 1)


def test_unsieved_family_keeps_everything():
    fam = families.get_family("noncm_3x12t")
    win = families.sieve_window(fam, 1000)
    assert win.W == win.good_t.size
    assert families.sieve_density(fam) == 1.0


# --------------------------------------------------------------------------
# rank bias

def test_rank_bias_targets():
    assert families.rank_bias(families.get_family("rank1_36t"), 10 ** 5) \
        == pytest.approx(1.0, abs=0.2)
    assert families.rank_bias(families.get_family("rank0_36t"), 10 ** 5) \
        == pytest.approx(0.0, abs=0.2)
    with pytest.raises(DomainError):
        families.rank_bias(families.get_family("rank0_36t"), 100)


# --------------------------------------------------------------------------
# registry and config loading

def test_get_family_unknown():
    with pytest.raises(DomainError):
        families.get_family("no_such_family")


def test_load_family_roundtrip(tmp_path):
    cfg = {"name": "custom", "A": [0], "B": [2, 6], "D_factors": [[1, 6]],
           "k": 6}
    via_dict = families.load_family(cfg)
    via_text = families.load_family(json.dumps(cfg))
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    via_file = families.load_family(str(path))
    assert via_dict == via_text == via_file
    assert via_dict.k == 6


def test_load_family_invalid():
    with pytest.raises(DomainError):
        families.load_family({"name": "x", "A": [0]})
    with pytest.raises(DomainError):
        families.load_family({"name": "x", "A": [0], "B": ["bad"],
                              "D_factors": [[1]], "k": 3})


def test_family_spec_validation():
    with pytest.raises(DomainError):
        families.FamilySpec(name="degenerate", A_poly=(0,), B_poly=(0,),
                            D_factors=((1,),), k=3)
    with pytest.raises(DomainError):
        families.FamilySpec(name="bad_k", A_poly=(1,), B_poly=(1,),
                            D_factors=((1,),), k=2)
