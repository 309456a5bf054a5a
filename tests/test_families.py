"""Family data: Fourier coefficients, moments, cubic-moment sums, sieving.

Oracles: direct affine point counts over F_p, brute-force enumerations
over t, sympy's resultants, and exact integer arithmetic throughout.
"""

import collections
import decimal
import hashlib
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ldl import families
from ldl._sum import CHUNK, Block
from ldl.errors import DomainError, ResourceError, VerificationError
from ldl.primes import (first_n_primes, get_table, is_prime, jacobi_symbol,
                        legendre_symbol, legendre_symbols_vec)
from ldl.series import poly_mul

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
            good = families.poly_eval(fam.discriminant_poly(), t) % p != 0
            assert (rt == "good") == good


def _assert_traces_are_point_counts(fam, p):
    """_curve_data at p against an O(p) point count at every t."""
    a_vals, good = families._curve_data(fam, p)
    want = [families._a_for_coefficients(
        families.poly_eval_mod(fam.A_poly, t, p),
        families.poly_eval_mod(fam.B_poly, t, p), p) for t in range(p)]
    assert a_vals.dtype == np.int64
    assert a_vals.tolist() == want, (fam, p)
    disc = fam.discriminant_poly()
    assert good.tolist() == [families.poly_eval_mod(disc, t, p) != 0
                             for t in range(p)]


@pytest.mark.parametrize("name", BUILTINS)
def test_curve_data_is_the_point_count_at_every_t(name):
    fam = families.get_family(name)
    for p in (int(q) for q in get_table(300).primes if q >= 5):
        _assert_traces_are_point_counts(fam, p)


@pytest.mark.parametrize("name,p", [("rank1_36t", 1009),
                                    ("rank0_36t", 1999),
                                    ("noncm_3x12t", 1997)])
def test_curve_data_is_the_point_count_past_a_thousand(name, p):
    # 1009 and 1997 = 1 mod 4 (four quartic classes), 1999 = 3 mod 4 (two)
    _assert_traces_are_point_counts(families.get_family(name), p)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([3, 5, 7, 11, 13, 29, 37, 41, 43, 97, 103]),
       st.integers(-40, 40), st.booleans(),
       st.lists(st.integers(-40, 40), min_size=1, max_size=3),
       st.lists(st.integers(-40, 40), min_size=1, max_size=3))
def test_curve_data_is_the_point_count_on_drawn_configs(p, root, vanish,
                                                        a_poly, b_poly):
    # A = (T - root) a_poly(T) when `vanish`, so A(t) = 0 at t = root mod
    # p; p = 3 has no forced zero here, and p runs over both classes mod 4
    if vanish:
        a_poly = poly_mul((-root, 1), a_poly)
    try:
        fam = families.FamilySpec(
            name="drawn", A_poly=tuple(a_poly), B_poly=tuple(b_poly),
            D_factors=((1, 1),), k=families.INF)
    except DomainError:
        assume(False)
    _assert_traces_are_point_counts(fam, p)


IMPOSTOR = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
    "impostor_cm_b1_kappa2.json"


@pytest.mark.parametrize("name", ["cm_b1_kappa2", "rank1_36t", "noncm_3x12t",
                                  "impostor"])
def test_moment_table_reads_one_trace_table_per_prime(monkeypatch, name):
    # a built-in reads its trace histograms from p = 5 on, and a per-t
    # table only at 2 and 3; the impostor config borrows cm_b1_kappa2's
    # name, so it takes the brute-force entry, whose moments and Atilde
    # read one table per prime
    fam, primes = families.get_family("cm_b1_kappa2"), get_table(300).primes
    if name == "impostor":
        fam = families.load_family(json.loads(IMPOSTOR.read_text()))
        primes = [2, 3, 5, 7, 11, 13]
    elif name != "cm_b1_kappa2":
        fam = families.get_family(name)
    calls = []
    curve_data = families._curve_data

    def counted(fam, p):
        calls.append(p)
        return curve_data(fam, p)

    monkeypatch.setattr(families, "_curve_data", counted)
    families.moment_table(fam, primes)
    assert calls == ([2, 3, 5, 7, 11, 13] if name == "impostor" else [2, 3])


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


def test_closed_forms_exact_up_to_the_float64_boundary():
    # 94906249 is the last prime with p^2 < 2^53, 94906297 the next; both
    # are 1 mod 12, where every A_1 and A_2 is nonzero
    p, q = 94906249, 94906297
    assert p * p < 2 ** 53 <= q * q
    a_ref = int(families._a_ref_curves(np.array([p]))[0])
    want = {
        ("cm_b1_kappa2", 2): 2 * p * p - 2 * p,
        ("rank1_36t", 1): -2 * p,
        ("rank0_36t", 1): -2 * p * legendre_symbol(2, p),
        ("rank0_36t", 2): 2 * p * (p - 1) - a_ref ** 2,
        ("noncm_3x12t", 1): -(legendre_symbol(3, p) + legendre_symbol(-3, p)),
        ("noncm_3x12t", 2): p * p - 2 * p - 2 - p * legendre_symbol(-3, p),
    }
    for (name, r), value in want.items():
        got = families.closed_form_moment(name, p, r)
        assert type(got) is int and got == value, (name, r)
        with pytest.raises(DomainError):
            families.closed_form_moment(name, q, r)
    assert families.closed_form_moment("noncm_3x12t", p, 0, "bad") == 2
    with pytest.raises(DomainError):
        families.closed_form_moment("noncm_3x12t", q, 0, "bad")


def test_complete_moment_domain():
    fam = families.get_family("cm_b1_kappa1")
    with pytest.raises(DomainError):
        families.complete_moment(fam, 6, 0)
    with pytest.raises(DomainError):
        families.complete_moment(fam, 7, -1)
    with pytest.raises(DomainError):
        families.complete_moment(fam, 7, 0, side="ugly")
    with pytest.raises(DomainError, match="r must be an integer"):
        families.complete_moment(fam, 7, 2.5)
    with pytest.raises(DomainError, match="r must be an integer"):
        families.closed_form_moment("cm_b1_kappa2", 7, 1.5)
    with pytest.raises(DomainError, match="p must be an integer"):
        families.complete_moment(fam, 7.0, 2)
    with pytest.raises(DomainError, match="r_max must be an integer"):
        families.moment_table(fam, [5, 7], r_max=2.5)


def test_closed_form_unregistered_family_raises():
    clone = _clone_generic(families.get_family("cm_b1_kappa2"))
    with pytest.raises(DomainError):
        families.closed_form_moment(clone, 7, 0)


@pytest.mark.parametrize("name", ["noncm_3x12t", "clone"])
def test_power_sums_are_the_python_int_sums(name):
    # the loop over Python ints as the reference: int64 serves while no
    # row's sum of |n a^r| can reach 2^63, object arrays from there on,
    # here from r = 6 at the primes near 40 000
    fam = families.get_family("noncm_3x12t")
    if name == "clone":
        fam = _clone_generic(fam)
    entry = families.entry_of(fam)
    ps = np.array([39983, 39989, 40009])
    histograms = entry.trace_histograms(ps)
    got = families._power_sums(histograms, 9)
    want = [tuple(tuple(sum(n * a ** r for a, n in zip(traces, counts))
                        for r in range(10)) for counts in sides)
            for traces, *sides in zip(*(x.tolist() for x in histograms))]
    assert got == want
    assert max(abs(m) for good, _ in got for m in good) > 2 ** 63


def test_moment_table_consistent_with_complete_moment():
    fam = families.get_family("noncm_3x12t")
    [mt] = families.moment_table(fam, [13], r_max=4)
    for r in range(5):
        assert mt.moments[r] == families.complete_moment(fam, 13, r, "good")
        assert mt.bad_moments[r] == families.complete_moment(
            fam, 13, r, "bad")
    assert mt.h == (1.0, 0.0)  # no sieving for this family
    assert mt.nu == 0


@pytest.mark.parametrize("name", BUILTINS + ["clone_k3"])
def test_moment_table_block_matches_one_prime_at_a_time(name):
    # the block read against complete_moment, a_tilde, _nu_prime_power and
    # h_factor called one prime at a time; the clone of cm_b1_kappa2 (k = 3)
    # takes the brute-force entry
    fam = (_clone_generic(families.get_family("cm_b1_kappa2"))
           if name == "clone_k3" else families.get_family(name))
    primes = get_table(300).primes
    rows = families.moment_table(fam, primes, r_max=3)
    assert [mt.p for mt in rows] == primes.tolist()
    for mt in rows:
        p = mt.p
        assert mt.moments == tuple(families.complete_moment(fam, p, r)
                                   for r in range(4)), (name, p)
        assert mt.bad_moments == tuple(
            families.complete_moment(fam, p, m, "bad")
            for m in range(4)), (name, p)
        assert mt.a_tilde == (families.a_tilde(fam, p) if p >= 5 else 0.0)
        if fam.k == families.INF:
            assert (mt.nu, mt.h) == (0, (1.0, 0.0))
        else:
            assert mt.nu == families._nu_prime_power(fam, p, int(fam.k))
            assert mt.h == families.h_factor(fam, p), (name, p)


def test_moment_table_refusals():
    fam = families.get_family("cm_b1_kappa2")
    with pytest.raises(DomainError):
        families.moment_table(fam, [5, 7], r_max=-1)
    for primes in ([7, 5], [5, 9], 13):
        with pytest.raises(DomainError):
            families.moment_table(fam, primes)
    assert families.moment_table(fam, []) == []


def test_moment_table_holds_one_sub_block_of_histograms_at_a_time(
        monkeypatch):
    # numpy reports its buffers to tracemalloc: over the 2263 primes up to
    # 20011 the table traced a peak of 14.1 MiB when it stacked the
    # histograms of 256 primes at a time, and about 4.5 MiB (7.6 MiB on
    # two threads) when each sub-block is reduced where it is made
    monkeypatch.setenv("LDL_THREADS", "1")
    fam = families.get_family("noncm_3x12t")
    primes = get_table(20011).primes
    tracemalloc.start()
    try:
        rows = families.moment_table(fam, primes, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == primes.size == 2263
    assert peak < 8 << 20, peak


def test_histogram_consumers_read_the_same_rows_on_one_or_two_threads(
        monkeypatch):
    # the primes up to 2000 span 8 sub-blocks, mapped in prime order: on
    # the pool for the non-CM kernel, on one worker for the per-t tables
    # that closed_form_failures reads
    primes = get_table(2000).primes
    fam = families.get_family("noncm_3x12t")
    entry = families.entry_of(fam)
    assert len(entry.sub_blocks(primes[primes >= 5])) == 8
    checks = [(r, "good") for r in range(3)] + [(m, "bad") for m in range(7)]
    rows = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("LDL_THREADS", threads)
        rows[threads] = (families.moment_table(fam, primes, 4),
                         families.closed_form_failures(fam, 2000, checks))
    assert rows["1"] == rows["2"]
    assert rows["1"][1] == []


def test_moment_table_and_closed_form_failures_take_a_name():
    # as a_tilde and closed_form_moment do: the name of a built-in
    fam = families.get_family("noncm_3x12t")
    assert families.moment_table("noncm_3x12t", [2, 3, 13]) == \
        families.moment_table(fam, [2, 3, 13])
    assert families.closed_form_failures(
        "noncm_3x12t", 50, [(2, "good")]) == []


def test_closed_form_failures_with_no_checks_finds_none():
    assert families.closed_form_failures("noncm_3x12t", 50, []) == []


def test_a_per_t_table_refuses_a_trace_past_the_hasse_range(monkeypatch):
    # a custom family's traces at every t go through the same check as
    # the non-CM correlation: |a| <= floor(2 sqrt p), here spoiled at 13
    curve_data = families._curve_data

    def spoiled(fam, p):
        a_vals, good = curve_data(fam, p)
        if p == 13:
            a_vals[1] = math.isqrt(4 * p) + 1
        return a_vals, good

    monkeypatch.setattr(families, "_curve_data", spoiled)
    fam = _clone_generic(families.get_family("noncm_3x12t"))
    with pytest.raises(VerificationError, match="Hasse range at 13"):
        families.moment_table(fam, [5, 7, 11, 13])


def test_closed_form_failures_name_each_prime_that_fails(monkeypatch):
    # an A_1 one too large at every prime, beside an A_2 that holds
    entry = families.REGISTRY["noncm_3x12t"]
    a1 = entry.A1
    monkeypatch.setattr(entry, "A1", lambda blk: a1(blk) + 1.0)
    brute = [families.complete_moment(entry.spec, p, 1)
             for p in (5, 7, 11, 13)]
    assert families.closed_form_failures(
        entry.spec, 13, [(1, "good"), (2, "good")]) == [
        (p, 1, "good", b, b + 1) for p, b in zip((5, 7, 11, 13), brute)]


@pytest.mark.parametrize("name", ["noncm_3x12t", "clone"])
def test_a_tildes_block_is_a_tilde_bit_for_bit(name):
    fam = families.get_family("noncm_3x12t")
    if name == "clone":
        fam = _clone_generic(fam)
    p_int = get_table(300).primes
    p_int = p_int[p_int >= 5]
    block = families.entry_of(fam).a_tildes(p_int)
    assert block.dtype == np.float64
    assert block.tolist() == [families.a_tilde(fam, p)
                              for p in p_int.tolist()]


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
    """i with n in g^i (F_p^*)^4 for every residue n (-1 at 0), g a
    generator of (F_p^*)/(F_p^*)^4."""
    x = np.arange(1, p, dtype=np.int64)
    fourth = np.unique((x * x % p) ** 2 % p)
    cls = np.full(p, -1, dtype=np.int64)
    for i in range(4):
        cls[pow(g, i, p) * fourth % p] = i
    return cls


def _recipe(p: int, pairs) -> float:
    """Atilde(p) by the one recipe from (trace, count) pairs of the good t
    in any order: equal traces merged, each term n*a*a*a/(p + 1 - a) in
    float64, their math.fsum over p * sqrt(p)."""
    merged = collections.Counter()
    for a, n in pairs:
        merged[int(a)] += int(n)
    s = math.fsum(float(n) * a * a * a / (p + 1 - a)
                  for a, n in merged.items())
    return s / (p * math.sqrt(p))


@pytest.mark.parametrize("name", BUILTINS)
def test_a_tilde_fast_paths_match_brute_force(name):
    """Atilde against point counts; for the CM built-ins also the traces
    and class counts of the array kernels, and Atilde(p) bit for bit
    against the recipe over the O(p) point counts, through the block path
    and the one-prime path, for every prime up to 10^4."""
    fam = families.get_family(name)
    clone = _clone_generic(fam)
    for p in (7, 13, 31, 37):
        assert families.a_tilde(fam, p) == families.a_tilde(clone, p)
    entry = families.builtin_entry(fam)
    if isinstance(entry, families._NonCM):
        return
    trace = families._a_for_coefficients
    p_all = get_table(10 ** 4).primes
    p_all = p_all[p_all >= 5]
    block = dict(zip(p_all.tolist(), entry.a_tildes(p_all).tolist()))
    sextic = isinstance(entry, families._Sextic)
    modulus = 3 if sextic else 4
    p_on = p_all[p_all % modulus == 1]
    assert all(block[p] == 0.0 for p in p_all[p_all % modulus != 1].tolist())
    if sextic:
        bb, kappa = entry.bb, entry.kappa
        powers = [i * kappa for i in range(6)]
        roots = families._sixth_roots(p_on)
        rows = families._sextic_traces(bb, p_on, roots, powers)
        for p, h, row in zip(p_on.tolist(), roots.tolist(), rows.tolist()):
            # the classes bb w^e of any w whose (p-1)/6-th power is h
            w = next(w for w in range(2, p) if pow(w, (p - 1) // 6, p) == h)
            reps = [bb * pow(w, e, p) % p for e in powers]
            a_reps = [trace(0, c, p) for c in reps]
            assert row == a_reps, (name, p)
            want = _recipe(p, [(a, (p - 1) // 6) for a in a_reps])
            assert block[p] == want, (name, p)
            assert families.a_tilde(fam, p) == want, (name, p)
    else:
        bb = entry.bb
        counts, traces = families._quartic_classes(bb, p_on)
        a_ref = families._a_ref_curves(p_on).tolist()
        for p, n_row, a_row, a1 in zip(p_on.tolist(), counts.tolist(),
                                       traces.tolist(), a_ref):
            # the classes r^i of the least quadratic non-residue r
            r = next(r for r in range(2, p) if legendre_symbol(r, p) == -1)
            t = np.arange(p, dtype=np.int64)
            c = bb * ((36 * t + 6) % p) % p * ((36 * t + 5) % p) % p
            n_brute = np.bincount(_quartic_class_index(p, r)[c[c != 0]],
                                  minlength=4)
            brute = [(int(n), trace(-pow(r, i, p) % p, 0, p))
                     for i, n in enumerate(n_brute)]
            assert list(zip(n_row, a_row)) == brute, (name, p)
            want = _recipe(p, [(a, n) for n, a in brute])
            assert block[p] == want, (name, p)
            assert families.a_tilde(fam, p) == want, (name, p)
            assert a1 == trace(p - 1, 0, p)


#: primes past 2000 up to the 5000th, 48611: 1, 7 and 11 mod 12, so that
#: every kind of built-in has nonzero Atilde at several of them
ORACLE_SAMPLE = [2003, 2017, 4999, 9973, 20011, 30013, 40009, 48611]


def _decimal(x: Fraction) -> decimal.Decimal:
    return decimal.Decimal(x.numerator) / x.denominator


def _check_a_tildes_to_their_rounding(name, p_int, roundings):
    # Atilde* = S*/p^(3/2), S* = sum n a^3/(p + 1 - a) over the traces at
    # every good t (_curve_data), as a Fraction, then in 60-digit decimal.
    # Each term fl(n*a*a*a)/(p + 1 - a) takes `roundings` roundings of
    # relative error u = 2^-53 (the products until the last are exact), so
    # the terms err by at most roundings * u times M = sum |n a^3/(p + 1 -
    # a)| / p^(3/2); fsum is one more rounding, of S, and sqrt p, p * sqrt
    # p and S / (p sqrt p) three: to first order |Atilde - Atilde*| <=
    # roundings * u M + 4u |Atilde*|.  The bound 2^-53 ((roundings + 1) M +
    # 4 |Atilde*|) holds that with the second-order terms, which are below
    # u M (M >= |Atilde*|) times 20u
    fam = families.get_family(name)
    got = families.REGISTRY[name].a_tildes(p_int).tolist()
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for p, at in zip(p_int.tolist(), got):
            a_vals, good = families._curve_data(fam, p)
            traces, counts = np.unique(a_vals[good], return_counts=True)
            terms = [Fraction(n * a ** 3, p + 1 - a)
                     for a, n in zip(traces.tolist(), counts.tolist())]
            scale = p * decimal.Decimal(p).sqrt()
            exact = _decimal(sum(terms)) / scale
            mass = _decimal(sum(map(abs, terms))) / scale
            bound = ((roundings + 1) * mass + 4 * abs(exact)) / 2 ** 53
            assert abs(decimal.Decimal(at) - exact) <= bound, (name, p)


@pytest.mark.parametrize("name", BUILTINS)
def test_a_tildes_within_their_rounding_of_the_exact_value(name):
    # |n a^3| < 2^53 at every prime here, so n*a*a*a is exact
    p_int = get_table(2000).primes
    p_int = np.concatenate((p_int[p_int.searchsorted(5):], ORACLE_SAMPLE))
    assert all(map(is_prime, ORACLE_SAMPLE))
    _check_a_tildes_to_their_rounding(name, p_int, 1)


@pytest.mark.parametrize("name, p", [("rank1_36t", 1_825_217),
                                     ("cm_b1_kappa1", 2_150_023)])
def test_a_tildes_within_their_rounding_past_the_exact_numerator(
        monkeypatch, name, p):
    # the first prime of each family where some merged trace has |n a^3|
    # >= 2^53: fl(n*a*a) is still exact, |n a^2| < 2^53, so the last
    # product adds the one rounding more per term
    traces, good, _ = families.REGISTRY[name].trace_histograms(np.array([p]))
    merged = collections.Counter()
    for a, n in zip(traces[0].tolist(), good[0].tolist()):
        merged[a] += n
    assert max(abs(n * a ** 2) for a, n in merged.items()) < 2 ** 53
    assert max(abs(n * a ** 3) for a, n in merged.items()) >= 2 ** 53
    # the oracle's per-t table holds one transform at a time and its class
    # tables only: a traced peak of about 213 MiB at 1825217 (five classes
    # of A(t)) and 232 MiB at 2150023 (one class)
    peaks, curve_data = [], families._curve_data

    def traced(fam, q):
        tracemalloc.start()
        try:
            return curve_data(fam, q)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(families, "_curve_data", traced)
    _check_a_tildes_to_their_rounding(name, np.array([p]), 2)
    assert len(peaks) == 1 and peaks[0] < 430 << 20, peaks


@pytest.mark.parametrize("name", BUILTINS)
def test_a_tilde_is_its_clone_bit_for_bit(name):
    # the brute-force entry of the same curve reads the same trace multiset
    # off its per-t tables, so the one recipe gives the same bits
    fam = families.get_family(name)
    clone = _clone_generic(fam)
    for p in (int(q) for q in get_table(300).primes if q >= 5):
        assert families.a_tilde(fam, p) == families.a_tilde(clone, p), p


@pytest.mark.parametrize("name", BUILTINS + ["custom"])
def test_no_histogram_row_lists_a_nonzero_trace_twice(name):
    # the contract _a_tildes relies on, as it merges no equal traces: the
    # first 20 000 primes from 5 (1 500 for the FFT kernel, 300 for the
    # per-t tables of a custom family)
    if name == "custom":
        entry = families.entry_of(families.load_family(
            {"name": "custom", "A": [1, 2], "B": [3, 0, 1],
             "D_factors": [[1, 2], [3, 0, 1]], "k": 3}))
    else:
        entry = families.REGISTRY[name]
    n = {"custom": 300, "noncm_3x12t": 1500}.get(name, 20000)
    p_int = first_n_primes(n + 2).decode(2)

    def twice(ps, histograms):
        # the rows of one sub-block, as every consumer reads them
        traces = np.sort(histograms[0], axis=1)
        return ((traces[:, 1:] == traces[:, :-1])
                & (traces[:, 1:] != 0)).any(axis=1)

    twice = families._histogram_map(entry, p_int, twice)
    assert len(twice) == n
    assert not any(twice)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 103, 997])
def test_trace_squares_meet_birch_identity(p):
    # sum of a_{a,b}(p)^2 over the pairs (a, b) mod p: (p - 1)^2 (p + 1)
    # over those with 4a^3 + 27b^2 != 0, and p^2 (p - 1) over all of them
    # (each of the p - 1 nodal pairs adds 1, the cusp (0, 0) adds 0).  One
    # _correlations per a
    b = np.arange(p, dtype=np.int64)
    smooth = total = 0
    for a in range(p):
        squares = families._correlations([p], a)[0] ** 2
        disc = (4 * a ** 3 + 27 * b * b) % p
        smooth += int(squares[disc != 0].sum())
        total += int(squares.sum())
    assert smooth == (p - 1) ** 2 * (p + 1)
    assert total == p * p * (p - 1)


def _least_generator(p: int) -> int:
    """The least generator mod p by trial division of p - 1."""
    fac, m, d = [], p - 1, 2
    while d * d <= m:
        if m % d == 0:
            fac.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        fac.append(m)
    return next(g for g in range(2, p)
                if all(pow(g, (p - 1) // q, p) != 1 for q in fac))


def _primes_below_int64_limit(count: int) -> list:
    p, out = families.INT64_PRIME_LIMIT, []
    while len(out) < count:
        if is_prime(p):
            out.append(p)
        p -= 1
    return out


def test_least_generator_matches_a_scalar_search():
    # every odd prime below 10^4; one Fermat prime, where p - 1 = 2^16; and
    # a prime just below FLOAT_PRIME_LIMIT, the largest one-prime table
    top = next(q for q in range(families.FLOAT_PRIME_LIMIT - 1, 0, -2)
               if is_prime(q))
    for q in get_table(10 ** 4).primes[1:].tolist() + [65537, top]:
        assert families._least_generator(q) == _least_generator(q), q


def test_roots_of_unity_have_the_orders_the_kernels_assume():
    # h^6 = 1 with h^2, h^3 != 1 (a primitive sixth root) at every p = 1
    # mod 3, and s^2 = -1 at every p = 1 mod 4, below 10^5 and at the
    # largest primes the int64 kernels admit
    p = get_table(10 ** 5).primes
    top = _primes_below_int64_limit(40)
    for block in (p, np.array(top, dtype=np.int64)):
        on = block[block % 3 == 1]
        h = families._sixth_roots(on)
        assert h.dtype == np.int64
        want = [(1, False, False)] * on.size
        assert [(pow(x, 6, q), pow(x, 2, q) == 1, pow(x, 3, q) == 1)
                for x, q in zip(h.tolist(), on.tolist())] == want
        on = block[block % 4 == 1]
        s = families._sqrt_minus_one(on)
        assert s.dtype == np.int64
        assert [x * x % q for x, q in zip(s.tolist(), on.tolist())] == \
            [q - 1 for q in on.tolist()]


def test_residue_symbol_is_the_legendre_symbol():
    # (n/p) read off p mod 4n, at every odd prime p < 3000 prime to n
    p = get_table(3000).primes[1:]
    for n in range(1, 100):
        on = p[p % n != 0]
        assert families._residue_symbol(n, on).tolist() == \
            [legendre_symbol(n, q) for q in on.tolist()], n


def test_powmod_is_exact_up_to_the_int64_limit():
    # the square-and-multiply path (>= 64 elements) and the per-element
    # pow path, against Python's pow, with (p - 1)^2 just below 2^63
    rng = np.random.default_rng(3)
    p = np.array(_primes_below_int64_limit(2) * 50 + [5, 7, 13] * 10,
                 dtype=np.int64)
    base = rng.integers(0, p)
    exp = rng.integers(0, p)
    want = [pow(b, e, m) for b, e, m in zip(base.tolist(), exp.tolist(),
                                            p.tolist())]
    assert families._powmod(base, exp, p).tolist() == want
    assert families._powmod(base[:9], exp[:9], p[:9]).tolist() == want[:9]


def test_cm_kernels_refuse_primes_past_the_int64_limit(monkeypatch):
    # the first prime = 1 mod 12 past the limit, where every CM trace is
    # nonzero; found by a primality test, and nothing may sieve up to it
    p = next(q for q in range(families.INT64_PRIME_LIMIT + 1,
                              families.INT64_PRIME_LIMIT + 10 ** 4)
             if q % 12 == 1 and is_prime(q))

    def no_sieve(limit):
        raise AssertionError(f"sieve to {limit}")

    monkeypatch.setattr(families, "get_table", no_sieve)
    for entry in families.REGISTRY.values():
        if isinstance(entry, (families._Sextic, families._Quartic)):
            with pytest.raises(ResourceError, match="int64"):
                families.a_tilde(entry.spec, p)
        if isinstance(entry, families._Quartic):
            with pytest.raises(ResourceError, match="int64"):
                entry.A2(Block(np.array([p])))
        # H_sieve needs no int64 residue arithmetic: its float64
        # nu/(p^k - nu) meets the correctly rounded ratio here
        for k in (3, 6):
            ratio = entry.n_bad / p ** k
            assert families.h_factor(entry.spec, p, exponent=k) == \
                (1.0, ratio / (1.0 - ratio))


@pytest.mark.parametrize("name", BUILTINS)
def test_one_prime_views_refuse_a_prime_past_int64(name):
    # a Mersenne prime: no int64 block holds it, so both views refuse it
    # as too large, not with numpy's OverflowError
    fam, p = families.get_family(name), 2 ** 89 - 1
    with pytest.raises(ResourceError, match="int64"):
        families.a_tilde(fam, p)
    with pytest.raises(ResourceError, match="int64"):
        families.h_factor(fam, p, exponent=3)


def _column_bits(col):
    """A moments(blk) column as bytes, None kept, a pair column per item."""
    if col is None:
        return None
    if isinstance(col, tuple):
        return tuple(map(_column_bits, col))
    return np.asarray(col, dtype=np.float64).tobytes()


def test_entries_of_one_moment_law_have_the_same_moment_columns():
    # explicit_formula shares one prime pass between the entries of a law:
    # the eight sextic twists, whatever their b and kappa, with H_sieve at
    # both of their sieve exponents
    table = get_table(12 * 10 ** 6).primes
    lo, hi = table.searchsorted(5), table.searchsorted(10 ** 7)
    blocks = [table[lo:lo + CHUNK], table[lo + CHUNK:lo + 2 * CHUNK],
              table[hi:hi + CHUNK]]
    laws = collections.defaultdict(list)
    for entry in families.REGISTRY.values():
        laws[entry.moment_law].append(entry)
    assert sorted(map(len, laws.values())) == [1, 1, 1, 8]
    assert [k for k, _ in families.REGISTRY["cm_b1_kappa1"].moments(
        Block(blocks[0]))[-1]] == [3, 6]
    for entries in laws.values():
        for p_int in blocks:
            cols = [_column_bits(e.moments(Block(p_int))) for e in entries]
            assert all(col == cols[0] for col in cols[1:])


def _a_tildes_b3(ps: list) -> list:
    """Atilde(p) of noncm_3x12t at each prime of one sub-block: the recipe
    over the histograms of one batched _correlations."""
    p_int = np.array(ps, dtype=np.int64)
    entry = families.REGISTRY["noncm_3x12t"]
    return families._a_tildes(p_int, entry.trace_histograms(p_int))


def _a_tilde_b3(p: int) -> float:
    """Atilde(p) of noncm_3x12t: the batched kernel on a block of one
    prime."""
    return _a_tildes_b3([p])[0]


def _a_tilde_b3_prime_length(p: int) -> float:
    """Atilde(p) of noncm_3x12t with the circular correlation transformed at
    the prime length p itself."""
    x = np.arange(p, dtype=np.int64)
    hist = np.bincount((x * x % p * x - 3 * x) % p,
                       minlength=p).astype(np.float64)
    chi = legendre_symbols_vec(x, p).astype(np.float64)
    corr = np.fft.irfft(np.conj(np.fft.rfft(hist)) * np.fft.rfft(chi), p)
    a_vals = -np.rint(corr).astype(np.int64)[12 * x % p]
    good = (6 * x % p + 1) * (6 * x % p - 1) % p != 0
    return _recipe(p, zip(*np.unique(a_vals[good], return_counts=True)))


@pytest.mark.slow
def test_a_tilde_b3_padded_fft_matches_prime_length():
    # the padded length is the least 5-smooth n >= (3p - 1)/2; a power of
    # two would double where (3p - 1)/2 passes 2^j, so the range covers
    # primes on both sides of every such step up to 2^13, and every
    # 5-smooth step between
    primes = [int(q) for q in get_table(10 ** 4).primes if q >= 5]
    for p in primes:
        assert _a_tilde_b3(p) == _a_tilde_b3_prime_length(p), p


def test_a_tilde_b3_unpadded_where_the_half_length_is_5_smooth():
    # there the 5-smooth length is (3p - 1)/2 itself: no padding slack
    primes = [p for p in map(int, get_table(10 ** 5).primes)
              if p >= 5 and families._smooth_length((3 * p - 1) // 2)
              == (3 * p - 1) // 2]
    assert primes[:5] == [7, 11, 17, 43, 67]
    fam = families.get_family("noncm_3x12t")
    for p in primes:
        assert families.a_tilde(fam, p) == _a_tilde_b3_prime_length(p), p


def test_smooth_length_is_the_least_5_smooth_bound():
    def smooth(n):
        for q in (2, 3, 5):
            while n % q == 0:
                n //= q
        return n == 1

    want = [next(n for n in range(m, 2 * m + 1) if smooth(n))
            for m in range(1, 3000)]
    assert [families._smooth_length(m) for m in range(1, 3000)] == want


@pytest.mark.parametrize("shift,match", [(0.5, "not integral"),
                                         (1.0, "Hasse range")])
def test_a_tilde_b3_checks_its_correlation(monkeypatch, shift, match):
    # a non-integral FFT output, which _correlations refuses, then an
    # integral one whose trace lies just outside the Hasse range
    # |a| <= floor(2 sqrt p), which _a_tilde_b3 refuses
    p = 101
    h = math.isqrt(4 * p)

    def irfft(spectrum, n, axis, out=None):
        return np.full((spectrum.shape[0], n), -(h + shift))

    monkeypatch.setattr(np.fft, "irfft", irfft)
    with pytest.raises(VerificationError, match=match):
        _a_tilde_b3(p)
    if match == "not integral":
        # the kernel behind every trace table refuses it for any curve
        with pytest.raises(VerificationError, match=match):
            families._correlations([p], 0)


def _a_tilde_b3_one_prime(p: int) -> float:
    """Atilde(p) of noncm_3x12t one prime at a time: one correlation at
    the prime's own length, its traces at 12t for each good t, and the
    recipe over them."""
    traces = families._correlations([p], -3)[0]
    assert np.max(np.abs(traces)) <= math.isqrt(4 * p)
    inv6 = pow(6, -1, p)
    a_vals = np.delete(traces[np.arange(0, 12 * p, 12) % p], [inv6, p - inv6])
    return _recipe(p, zip(*np.unique(a_vals, return_counts=True)))


def test_a_sub_block_names_the_prime_that_fails_a_check(monkeypatch):
    # one bad value in the row of 103, then one trace past the Hasse range
    # in the row of 107: each check names its prime, not the block's first
    ps = [101, 103, 107]
    real = np.fft.irfft

    def spoiled(row, col, value):
        def irfft(spectrum, n, axis, out=None):
            out = real(spectrum, n, axis=axis, out=out)
            out[row, col] = value
            return out
        return irfft

    monkeypatch.setattr(np.fft, "irfft", spoiled(1, 5, 0.5))
    with pytest.raises(VerificationError, match="not integral at 103"):
        _a_tildes_b3(ps)
    monkeypatch.setattr(np.fft, "irfft",
                        spoiled(2, 7, -(math.isqrt(4 * 107) + 1.0)))
    with pytest.raises(VerificationError, match="Hasse range at 107"):
        _a_tildes_b3(ps)


@pytest.fixture(scope="module")
def noncm_per_prime():
    """The first 1000 primes from 5 on, and their Atilde one prime at a
    time."""
    p_int = get_table(7919).primes[2:]
    return p_int, [_a_tilde_b3_one_prime(p) for p in p_int.tolist()]


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_noncm_a_tildes_match_one_correlation_per_prime(
        monkeypatch, noncm_per_prime, threads):
    # the sub-blocks transform at the length of their largest prime; every
    # Atilde keeps the bits of one transform per prime at its own length
    monkeypatch.setenv("LDL_THREADS", threads)
    p_int, want = noncm_per_prime
    assert p_int.size == 998
    got = families.REGISTRY["noncm_3x12t"].a_tildes(p_int)
    assert got.dtype == np.float64 and got.tolist() == want


def test_correlation_blocks_cover_the_primes_within_the_budget():
    budget = families._CORRELATION_BUDGET
    ps = [int(q) for q in get_table(5 * 10 ** 4).primes if q >= 5]
    blocks = families._correlation_blocks(ps)
    assert [p for block in blocks for p in block] == ps
    for block in blocks:
        n = families._smooth_length((3 * block[-1] - 1) // 2)
        assert len(block) * n <= budget or len(block) == 1
    # a prime whose length alone passes the budget is a block of its own
    alone = [block for block in blocks
             if families._smooth_length((3 * block[0] - 1) // 2) > budget]
    assert alone and all(len(block) == 1 for block in alone)
    # the first is 43711; 43691 transforms at the budget, 65536, itself
    assert alone[0] == [43711]
    assert families._smooth_length((3 * 43691 - 1) // 2) == budget
    assert len(blocks[0]) > 1
    assert families._correlation_blocks([]) == []


def test_consecutive_sub_blocks_of_different_shapes_match_one_prime():
    # consecutive sub-blocks in one thread: a many-row one, a one-row one,
    # a prime whose length alone passes the budget, and a small one again;
    # each result is that of one transform per prime at its own length
    many = families._correlation_blocks(
        [int(q) for q in get_table(3000).primes if q >= 1000])[0]
    small = families._correlation_blocks(
        [int(q) for q in get_table(60).primes if q >= 5])[0]
    big = 43711
    assert len(many) > 1 and len(small) > 1
    assert families._smooth_length((3 * big - 1) // 2) > \
        families._CORRELATION_BUDGET
    for block in (many, [1999], [big], small):
        assert _a_tildes_b3(block) == \
            [_a_tilde_b3_one_prime(p) for p in block], block
    # then every trace against an O(p) point count, for one a at many
    # primes, then one a at a time at one prime
    traces = families._correlations(small, -3)
    for row, p in enumerate(small):
        assert traces[row, :p].tolist() == [
            families._a_for_coefficients(-3, s, p) for s in range(p)]
        assert not traces[row, p:].any()
    for a in (2, 0, 5, -3):
        assert families._correlations([53], a).tolist() == [
            [families._a_for_coefficients(a, s, 53) for s in range(53)]], a


def test_noncm_a_tildes_release_their_arrays(noncm_per_prime):
    # numpy reports its data buffers to tracemalloc: the kernel's arrays
    # show while the call runs and are gone once it returns
    p_int = noncm_per_prime[0]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        families.REGISTRY["noncm_3x12t"].a_tildes(p_int)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before > 1 << 20
    assert after - before < 1 << 20


def _a_tildes_minor_faults(primes_expr: str) -> int:
    """The minor page faults of the non-CM a_tildes of the primes
    primes_expr, an expression in get_table, in a fresh process on one
    thread."""
    code = "\n".join((
        "import resource",
        "from ldl import families",
        "from ldl.primes import get_table",
        f"p_int = {primes_expr}",
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
        "families.REGISTRY['noncm_3x12t'].a_tildes(p_int)",
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"))
    src = str(pathlib.Path(families.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, LDL_THREADS="1",
               PYTHONPATH=src if not path else src + os.pathsep + path)
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return int(run.stdout)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_minflt counts minor page faults on Linux")
def test_noncm_a_tildes_fault_their_buffers_in_once():
    # the first 1000 primes took about 95 000 minor page faults when every
    # sub-block's temporaries were mmapped afresh, and take about 900 with
    # _sum's raised mmap threshold serving them from the heap
    assert _a_tildes_minor_faults("get_table(7933).primes[2:]") < 15000


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_minflt counts minor page faults on Linux")
def test_noncm_a_tildes_reuse_the_transforms_scratch():
    # from 43 711 on each sub-block is one prime, whose transforms take
    # pocketfft scratch past glibc's default mmap threshold: these 50 took
    # about 35 600 minor faults when each transform mmapped it afresh, and
    # take about 1 200 with _sum's raised threshold
    assert _a_tildes_minor_faults("get_table(44207).primes[-50:]") < 5000


def test_correlation_rows_mirror_their_first_half():
    # each row is transformed at s < (p + 1)/2 only and mirrored as
    # trace(-s) = (-1/p) trace(s): p = 103 = 3 (mod 4) negates, 101 does
    # not, and a = 0 (mod p) gives the CM curves y^2 = x^3 + s
    for p in (3, 5, 101, 103):
        for a in (-3, 0, p, 1, 2, p - 1):
            assert families._correlations([p], a).tolist() == [
                [families._a_for_coefficients(a, s, p) for s in range(p)]
            ], (p, a)
    ps = [97, 101, 103, 107, 109]
    traces = families._correlations(ps, 0)
    for row, p in enumerate(ps):
        assert traces[row, :p].tolist() == [
            families._a_for_coefficients(0, s, p) for s in range(p)]
        assert not traces[row, p:].any()


def test_correlations_refuse_primes_past_the_float_residues():
    limit = families.FLOAT_PRIME_LIMIT
    with pytest.raises(ResourceError, match=str(limit)):
        families._correlations([limit + 15], -3)


def test_per_t_tables_refuse_primes_past_the_float_residues_unallocated():
    # 67108879, the first prime past the limit: the per-t tables of
    # complete_moment would hold several int64 grids of length p (0.5 GB
    # each) before the correlation; the check comes first
    limit = families.FLOAT_PRIME_LIMIT
    p = limit + 15
    assert is_prime(p)
    fam = families.get_family("noncm_3x12t")
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match=str(limit)):
            families.complete_moment(fam, p, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_tilde_b3_at_the_last_prime_of_twenty_thousand():
    # 224737, the 20000th prime: n = 337500 = 2^2 3^3 5^5
    p = int(first_n_primes(20000).primes[-1])
    assert p == 224737
    assert families._smooth_length((3 * p - 1) // 2) == 337500
    assert _a_tilde_b3(p) == _a_tilde_b3_prime_length(p)


def test_a_tilde_b3_takes_the_padded_fft_at_every_prime(monkeypatch):
    # past 2^16 (padded length 98415 = 3^9 5); no point count may run
    def no_point_count(fam, p):
        raise AssertionError("brute-force point count")

    monkeypatch.setattr(families, "_curve_data", no_point_count)
    fam = families.get_family("noncm_3x12t")
    assert families.a_tilde(fam, 65537) == _a_tilde_b3_prime_length(65537)


def test_builtin_name_on_another_curve_takes_brute_force():
    # named like the built-in, but the curve is y^2 = x^3 + (6T + 1)
    fam = families.load_family({
        "name": "cm_b1_kappa2", "A": [0], "B": [1, 6],
        "D_factors": [[1, 6]], "k": 3, "forced_zero_primes": [2, 3]})
    assert families.builtin_entry(fam) is None
    entry = families.builtin_entry("cm_b1_kappa2")
    assert isinstance(entry, families._Sextic)
    assert (entry.bb, entry.kappa) == (1, 2)
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


@pytest.mark.parametrize("name", ["cm_b1_kappa2", "rank1_36t", "noncm_3x12t"])
def test_a_tilde_refuses_a_composite_p(name):
    # none of these is a prime: the CM kernels read residue symbols off p
    # by quadratic reciprocity, which holds only at primes
    fam = families.get_family(name)
    for n in (10, 25, 49, 91, 121):
        with pytest.raises(DomainError, match="prime"):
            families.a_tilde(fam, n)


#: SHA-256 of the float64 bytes of entry.a_tildes over the primes p >= 5
#: among the first 5000, so that a change of one term by one ulp shows.
#: The four kappa = 1 twists share one: bb only permutes their six classes,
#: so each prime has the same trace multiset
A_TILDE_PINS = {
    "cm_b1_kappa1":
        "de2028d5f7b130f8d9ecdedf060411b8186cf8345863638bbb2d1c3290ca5a7d",
    "cm_b1_kappa2":
        "a2af45eef13cb35ff26f4dca470cf21e365ae7cd8b8b8494e599acef0567e128",
    "cm_b2_kappa1":
        "de2028d5f7b130f8d9ecdedf060411b8186cf8345863638bbb2d1c3290ca5a7d",
    "cm_b2_kappa2":
        "accafc3724e32069f7c4f7e6de37cafe4a849c9ec5c08f1ea920e94d277f7b03",
    "cm_b3_kappa1":
        "de2028d5f7b130f8d9ecdedf060411b8186cf8345863638bbb2d1c3290ca5a7d",
    "cm_b3_kappa2":
        "668f204b400dd8b4722e8e6a46db964169d9d99b40f2bdb2cd2baadd44dec889",
    "cm_b6_kappa1":
        "de2028d5f7b130f8d9ecdedf060411b8186cf8345863638bbb2d1c3290ca5a7d",
    "cm_b6_kappa2":
        "83cc4cd1ab65b7c1ed3820e916dc45eeab29eda0da4f6768a06a3030bf6821a3",
    "rank1_36t":
        "5953d7d7196f7fb1369b782624a1b36ea4559b6c4de051faf90caed327890650",
    "rank0_36t":
        "cdd1221c281b82577682aefaea1a06687e645242baa976ea07f3b79a63e2a9f0",
}


@pytest.mark.parametrize("name", A_TILDE_PINS)
def test_cm_a_tildes_keep_every_bit(name):
    p = first_n_primes(5000).primes
    at = families.REGISTRY[name].a_tildes(p[p >= 5])
    assert hashlib.sha256(at.astype("<f8").tobytes()).hexdigest() == \
        A_TILDE_PINS[name]


def test_noncm_a_tildes_keep_every_bit():
    # the same pin over the first 1000 primes, where the FFT kernel is fast
    p = first_n_primes(1000).primes
    at = families.REGISTRY["noncm_3x12t"].a_tildes(p[p >= 5])
    assert hashlib.sha256(at.astype("<f8").tobytes()).hexdigest() == \
        "e3fd946e598a067e102c09589bb941649dff0ff35ee1521fd766ec8a4c9e3892"


def test_a_tilde_pins_hold_on_numpy_avx2_kernels():
    # the Atilde pins, the explicit golden envelopes and the leaf tree's
    # identity with np.sum rerun in a child whose numpy takes its AVX2
    # kernels, as on a CPU without AVX-512; on such a CPU the child runs
    # the same kernels as this process.  The variable acts on the child's
    # numpy only.  The noncm_3x12t envelope is left out: its cold Atilde
    # takes seconds there
    here = pathlib.Path(__file__).resolve()
    src = str(pathlib.Path(families.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4",
               PYTHONPATH=src if not path else src + os.pathsep + path)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{here}::test_cm_a_tildes_keep_every_bit",
         f"{here}::test_noncm_a_tildes_keep_every_bit",
         f"{here.parent / 'test_cli.py'}::test_golden_envelope",
         f"{here.parent / 'test_sum.py'}"
         "::test_leaf_sums_keep_every_bit_of_each_chunk_column",
         "-k", "keep_every_bit or explicit and not noncm_3x12t"],
        env=env, cwd=here.parents[1], capture_output=True, text=True)
    assert run.returncode == 0, run.stdout[-3000:]
    # the seven explicit envelopes but noncm_3x12t's, and the leaf tree
    assert f"{len(A_TILDE_PINS) + 1 + 7 + 1} passed" in run.stdout


# --------------------------------------------------------------------------
# sieving

def test_nu_d_matches_brute_root_count():
    fam = families.get_family("rank1_36t")
    for d in (5, 7, 25, 35, 49, 121):
        brute = sum(1 for t in range(d) if math.prod(
            families.poly_eval(fac, t) for fac in fam.D_factors) % d == 0)
        assert families.nu_D(fam, d) == brute
    # the Hensel count against the scan of t mod p^k, and nu_D past 10^6
    # against the scan of t mod d
    scan = families._scan_root_count
    d = 5 ** 3 * 7 ** 2 * 13 ** 2
    for fam in families.BUILTIN_FAMILIES.values():
        for p in (int(q) for q in get_table(100).primes):
            assert families._nu_prime_power(fam, p, 3) == \
                scan(fam.D_factors, p ** 3), (fam.name, p)
        for p in (5, 7):
            assert families._nu_prime_power(fam, p, 6) == \
                scan(fam.D_factors, p ** 6), (fam.name, p)
        assert families.nu_D(fam, d) == scan(fam.D_factors, d), fam.name


def test_registry_n_bad_is_nu_at_every_prime_from_5():
    # sieve_weights reads nu_D(p^k) off the entry for p >= 5.  At every
    # p >= 5 and every k: each D factor is linear, its leading coefficient
    # prime to p, so it has one root mod p^k; no two factors share a root
    # mod p, as p does not divide their resultant (-36 for each quartic
    # pair, 12 for the non-CM one); so p^k | D(t) makes exactly one factor
    # vanish mod p^k, and nu_D(p^k) is the number of factors
    t = sympy.Symbol("t")
    for entry in families.REGISTRY.values():
        factors = [sympy.Poly(f[::-1], t) for f in entry.spec.D_factors]
        assert len(factors) == entry.n_bad, entry.name
        for f in factors:
            assert f.degree() == 1, entry.name
            assert max(sympy.primefactors(f.LC()), default=1) < 5, \
                entry.name
        for f, g in itertools.combinations(factors, 2):
            res = f.resultant(g)
            assert res != 0, entry.name
            assert max(sympy.primefactors(res), default=1) < 5, \
                (entry.name, res)
    # and the Hensel count itself below 10^4
    p_all = [p for p in get_table(10 ** 4).primes.tolist() if p >= 5]
    for entry in families.REGISTRY.values():
        for p in p_all:
            for k in (3, 6):
                assert families._nu_prime_power(entry.spec, p, k) == \
                    entry.n_bad, (entry.name, p, k)


def test_sieve_weights_are_the_correctly_rounded_ratio():
    # float64 nu/(p^k - nu) is correctly rounded while p^k < 2^53: 449^6 <
    # 2^53 < 457^6
    for k, top in ((3, 10 ** 4), (6, 449)):
        p_int = get_table(top).primes
        for fam in families.BUILTIN_FAMILIES.values():
            want = []
            for p in p_int.tolist():
                nu = families._nu_prime_power(fam, p, k)
                want.append(nu / (p ** k - nu))
            got = families.sieve_weights(fam, p_int, k)
            assert got.dtype == np.float64
            assert got.tolist() == want, (fam.name, k)


def test_sieve_refuses_nu_equal_to_p_to_the_k():
    # D = 125(1 + t) vanishes mod 5^3 at every t: nu_D(5^3) = 125 = 5^3
    fam = families.load_family({"name": "all_bad", "A": [0], "B": [1, 6],
                                "D_factors": [[125, 125]], "k": 3})
    with pytest.raises(DomainError, match=r"nu_D\(5\^3\) = 125"):
        families.h_factor(fam, 5)
    with pytest.raises(DomainError, match=r"nu_D\(5\^3\) = 125"):
        families.sieve_weights(fam, np.array([2, 3, 5, 7]), 3)


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


def test_nu_d_roots_a_cofactor_past_the_float_range_in_integers():
    # the cofactor left by trial division is the Mersenne prime 2^1279 - 1
    # or its square, both past the float range; 6t + 1 has no root mod 3
    # and one simple root mod 7 and mod the prime
    fam = families.get_family("cm_b1_kappa2")
    m = 2 ** 1279 - 1
    assert families.nu_D(fam, 3 * m) == 0
    assert families.nu_D(fam, 7 * m) == 1
    assert families.nu_D(fam, m ** 2) == 1
    # a cofactor that is no prime power is refused, not overflowed
    with pytest.raises(ResourceError, match="cannot factor"):
        families.nu_D(fam, 10 ** 400 + 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(-50, 50), min_size=1, max_size=5)
                .filter(any), min_size=1, max_size=3),
       st.sampled_from([p for p in range(200) if is_prime(p)]),
       st.integers(1, 3))
def test_nu_root_count_is_the_scan_on_drawn_factors(factors, p, e):
    # the one root count over F_p, deg gcd(G, x^p - x), with its Hensel
    # lift or its scan, against the scan of t mod p^e: factors of degree
    # up to 4, with double, shared and no roots mod p
    assume(p ** e <= 10 ** 6)
    fam = families.FamilySpec(name="drawn", A_poly=(1,), B_poly=(0, 1),
                              D_factors=tuple(map(tuple, factors)), k=3)
    assert families._nu_prime_power(fam, p, e) == \
        families._scan_root_count(fam.D_factors, p ** e)


def test_nu_counts_cubic_roots_past_the_scan_range():
    # no degree or size limit for simple roots: two cubic factors at the
    # 32 primes in (10^6, 10^6 + 400), against sympy's count of the
    # distinct linear factors of their product mod p
    fam = families.load_family({"name": "cubics", "A": [1], "B": [0, 1],
                                "D_factors": [[-2, 0, 0, 1], [5, 1, 0, 3]],
                                "k": 3})
    t = sympy.Symbol("t")
    product = (t ** 3 - 2) * (3 * t ** 3 + t + 5)
    primes = [p for p in range(10 ** 6, 10 ** 6 + 400) if is_prime(p)]
    assert len(primes) == 32
    for p in primes:
        factors = sympy.Poly(product, t, modulus=p).factor_list()[1]
        want = sum(1 for f, _ in factors if f.degree() == 1)
        assert families._nu_prime_power(fam, p, 3) == want, p


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
    # a non-integer override is refused, not truncated to 3
    with pytest.raises(DomainError, match="must be an integer"):
        families.h_factor(fam, p, exponent=3.5)
    # unsieved family: no sieve part unless an exponent is forced
    noncm = families.get_family("noncm_3x12t")
    assert families.h_factor(noncm, p) == (1.0, 0.0)


@pytest.mark.parametrize("name", ["noncm_3x12t", "cm_b1_kappa2"])
def test_h_factor_refuses_a_composite_for_every_family(name):
    with pytest.raises(DomainError, match="p must be prime"):
        families.h_factor(families.get_family(name), 4)


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


def test_sieve_window_of_a_quadratic_factor_is_the_cube_free_test():
    # D = t^2 + 3, k = 3: every t of [500, 1000] against a direct test that
    # no prime q has q^3 | D(t), where D(t) <= D(1000) < 101^3 bounds q;
    # 7^3 divides D(649) and D(723)
    fam = families.load_family({"name": "square", "A": [1], "B": [0, 1],
                                "D_factors": [[3, 0, 1]], "k": 3})
    win = families.sieve_window(fam, 500)
    qs = [int(q) for q in get_table(100).primes]
    want = [all((t * t + 3) % q ** 3 for q in qs) for t in range(500, 1001)]
    assert win.good_t.tolist() == want
    assert win.W == sum(want) < len(want)
    assert not win.good_t[649 - 500] and not win.good_t[723 - 500]


def test_unsieved_family_keeps_everything():
    fam = families.get_family("noncm_3x12t")
    win = families.sieve_window(fam, 1000)
    assert win.W == win.good_t.size
    assert families.sieve_density(fam) == 1.0


def _window_oracle(factors, k: int, N: int) -> np.ndarray:
    """The direct test of every t in [N, 2N]: a factor value that is zero,
    or divisible by q^k for a prime q up to the k-th root of the factor's
    bound sum |c_i| (2N)^i on the window, drops t.  Python ints, exact."""
    good = np.ones(N + 1, dtype=bool)
    for fac in factors:
        bound = sum(abs(c) * (2 * N) ** i for i, c in enumerate(fac))
        qs = [q for q in range(2, int(bound ** (1 / k)) + 2)
              if is_prime(q) and q ** k <= bound]
        for i in range(N + 1):
            v = families.poly_eval(fac, N + i)
            if v == 0 or any(v % q ** k == 0 for q in qs):
                good[i] = False
    return good


def _drawn_family(factors, k: int):
    return families.FamilySpec(name="drawn", A_poly=(1,), B_poly=(0, 1),
                               D_factors=tuple(map(tuple, factors)), k=k)


@settings(deadline=None)
@given(st.lists(st.lists(st.integers(-30, 30), min_size=1, max_size=4)
                .filter(any), min_size=1, max_size=2),
       st.sampled_from([3, 4]), st.integers(1, 300))
def test_sieve_window_is_the_direct_test_on_drawn_factors(factors, k, N):
    # one root rule for every degree, against the direct test: 1-2 factors
    # of degree 0-3, with contents, shared, double and integer roots
    win = families.sieve_window(_drawn_family(factors, k), N)
    assert win.good_t.tolist() == _window_oracle(factors, k, N).tolist()
    assert win.W == int(win.good_t.sum())


def test_sieve_window_clears_a_zero_of_any_degree():
    # D(1) = 0 is divisible by every p^k: t = 1 leaves the window [1, 2]
    # for t^2 - 1 (the trial-division loop kept it) as for t - 1
    for factor in ([-1, 0, 1], [-1, 1]):
        fam = _drawn_family([factor], 3)
        assert families.sieve_window(fam, 1).good_t.tolist() == [False, True]


def test_sieve_window_is_exact_past_int64():
    # 10^18 t^4 + 3 with k = 6 and 10^30 t^2 + 3 with k = 40 bound their
    # values past 2^63 at N = 50, so Horner runs in Python ints; t = 0 mod
    # 3 is a double root of both mod 3, tested mod 3^6 and 3^40
    for factor, k in (((3, 0, 0, 0, 10 ** 18), 6), ((3, 0, 10 ** 30), 40)):
        win = families.sieve_window(_drawn_family([factor], k), 50)
        assert win.good_t.tolist() == \
            _window_oracle([factor], k, 50).tolist()
    # a content p^k clears the window at once, however large the bound
    win = families.sieve_window(_drawn_family([(0, 0, 8 * 10 ** 40)], 3),
                                10 ** 7)
    assert win.W == 0


def test_sieve_window_refuses_a_bound_it_cannot_scan():
    # 1 + 10^40 t^10, k = 3, at N = 10^6: the cube root of the bound is
    # about 2.2 10^34 and no prime clears the window; it ran without end
    # before the refusal.  A content 8 10^40 still clears it at p = 2
    fam = _drawn_family([(1,) + (0,) * 9 + (10 ** 40,)], 3)
    with pytest.raises(ResourceError, match="past 100000"):
        families.sieve_window(fam, 10 ** 6)
    fam = _drawn_family([(0, 0, 8 * 10 ** 40), (1,) + (0,) * 9 + (10 ** 40,)],
                        3)
    assert families.sieve_window(fam, 10 ** 6).W == 0


def test_sieve_window_of_a_quadratic_factor_at_scale():
    # D = t^2 + 3, k = 3, over [3e4, 6e4]: against q^3 | D(t) for every
    # prime q <= 1533, the cube root of the bound (6e4)^2 + 3
    N = 3 * 10 ** 4
    fam = _drawn_family([(3, 0, 1)], 3)
    win = families.sieve_window(fam, N)
    t = np.arange(N, 2 * N + 1, dtype=np.int64)
    vals = t * t + 3
    want = np.ones(N + 1, dtype=bool)
    for q in get_table(1533).primes.tolist():
        want &= vals % q ** 3 != 0
    assert (win.good_t == want).all()
    assert win.W == int(want.sum()) == 29788


def test_sieve_window_tests_each_factor_where_nu_d_counts_the_product():
    # D = t (t + 5), k = 3: the factors share the root 0 mod 5, so nu_D
    # counts 10 classes mod 125 where the window clears 2, one root of
    # each factor; at every other p their roots are distinct.  The window's
    # density is sieve_density times the p = 5 ratio, within three
    # standard errors of a sample of its size, and past ten without it
    fam = _drawn_family([(0, 1), (5, 1)], 3)
    assert families.nu_D(fam, 125) == 10
    N = 10 ** 5
    win = families.sieve_window(fam, N)
    density = win.W / (N + 1)
    euler = families.sieve_density(fam)
    assert round(density, 4) == 0.677 and round(euler, 4) == 0.6329
    sigma = math.sqrt(density * (1 - density) / (N + 1))
    assert abs(density - euler * (1 - 2 / 125) / (1 - 10 / 125)) < 3 * sigma
    assert abs(density - euler) > 10 * sigma


# --------------------------------------------------------------------------
# rank bias

def test_rank_bias_targets():
    assert families.rank_bias(families.get_family("rank1_36t"), 10 ** 5) \
        == pytest.approx(1.0, abs=0.2)
    assert families.rank_bias(families.get_family("rank0_36t"), 10 ** 5) \
        == pytest.approx(0.0, abs=0.2)
    with pytest.raises(DomainError):
        families.rank_bias(families.get_family("rank0_36t"), 100)


def test_rank_bias_reads_a1_alone(monkeypatch):
    # the quartic A_2 needs the reference curves' traces; A_1 does not
    def no_reference_curves(p):
        raise AssertionError("A_2 was formed")

    monkeypatch.setattr(families, "_a_ref_curves", no_reference_curves)
    assert families.rank_bias("rank1_36t", 10 ** 5) == 0.9947938949688959
    assert families.rank_bias("rank0_36t", 10 ** 5) == -0.0016372568133086113


def test_rank_bias_is_one_sequential_sum_over_its_blocks():
    # X = 10^6 holds two CHUNK blocks of primes; the sum over them, block
    # by block, keeps the bits of the one over the whole table's A_1
    for name, pinned in (("rank1_36t", 0.9966668838434533),
                         ("rank0_36t", -0.0015337072267116645)):
        p_int = get_table(10 ** 6).primes
        p_int = p_int[p_int.searchsorted(5):]
        assert p_int.size > CHUNK
        a1 = families.entry_of(name).A1(Block(p_int))
        total = 0.0
        for p, m in zip(p_int.tolist(), a1.tolist()):
            if m:
                total -= m / p * math.log(p)
        assert families.rank_bias(name, 10 ** 6) == total / 10 ** 6 == pinned


def test_rank_bias_custom_family_takes_the_point_counts():
    clone = _clone_generic(families.get_family("rank1_36t"))
    assert families.rank_bias(clone, 1000) == \
        families.rank_bias("rank1_36t", 1000)


def test_rank_bias_refuses_custom_family_past_the_cap(monkeypatch):
    # the refusal comes before any point count
    def no_point_count(fam, p):
        raise AssertionError("brute-force point count")

    clone = _clone_generic(families.get_family("rank1_36t"))
    monkeypatch.setattr(families, "_curve_data", no_point_count)
    with pytest.raises(ResourceError):
        families.rank_bias(clone, 10 ** 5)


@pytest.mark.parametrize("call", [
    lambda fam: families.sieve_window(fam, 10.5),
    lambda fam: families.rank_bias(fam, "1000"),
    lambda fam: families.closed_form_moment(fam, 7.0, 2),
    lambda fam: families.a_tilde(fam, 7.0),
    lambda fam: families.h_factor(fam, 7.0),
    lambda fam: families.nu_D(fam, 25.0),
    lambda fam: families.moment_table(fam, [5.5]),
    lambda fam: families.moment_table(fam, [7.0]),
    lambda fam: families.quadratic_legendre_sum(1, 2, 3, 7.0),
    lambda fam: is_prime(7.0),
    lambda fam: legendre_symbol(2, 7.0),
    lambda fam: jacobi_symbol(2, 7.0),
    lambda fam: families.a_t_p(fam, 1.5, 7),
    lambda fam: families.reduction_type(fam, 1, 7.0),
    lambda fam: families.a_t_p(fam, 1, 9),
    lambda fam: families.reduction_type(fam, 1, 9),
    lambda fam: legendre_symbol(3, 9),
], ids=["sieve_window", "rank_bias", "closed_form_moment", "a_tilde",
        "h_factor", "nu_D", "moment_table_5.5", "moment_table_7.0",
        "quadratic_legendre_sum", "is_prime",
        "legendre_symbol", "jacobi_symbol", "a_t_p", "reduction_type",
        "a_t_p_mod_9", "reduction_type_mod_9", "legendre_symbol_mod_9"])
def test_a_float_or_string_argument_is_refused(call):
    # a window start, t, prime or modulus that is not an integer, a prime
    # that is composite, and a rank-bias X that is not a number, are
    # DomainErrors, never a raw TypeError or an answer for the integer
    # they round to or for the composite
    with pytest.raises(DomainError):
        call(families.get_family("cm_b1_kappa2"))


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


_GOOD_CONFIG = {"name": "custom", "A": [0], "B": [2, 6],
                "D_factors": [[1, 6]], "k": 6}


@pytest.mark.parametrize("source", [
    {**_GOOD_CONFIG, "A": [1.5]},
    {**_GOOD_CONFIG, "B": ["2", 6]},
    {**_GOOD_CONFIG, "D_factors": [[1, True]]},
    {**_GOOD_CONFIG, "k": 3.7},
    {**_GOOD_CONFIG, "k": 6.0},
    {**_GOOD_CONFIG, "forced_zero_primes": [2.5]},
    {**_GOOD_CONFIG, "D_factors": [[0]]},
    {**_GOOD_CONFIG, "D_factors": [[]]},
    "missing.json",
    "malformed.json",
    "list.json",
], ids=["A float", "B string", "D bool", "k fraction", "k float",
        "forced float", "D zero", "D empty", "missing file",
        "malformed JSON", "JSON list"])
def test_load_family_accepts_only_integer_configs(tmp_path, source):
    # a config that would load as a different curve, or no config at all,
    # is a DomainError from load_family itself
    (tmp_path / "malformed.json").write_text('{"name": "x", "A": [0',
                                             encoding="utf-8")
    (tmp_path / "list.json").write_text("[1, 2]", encoding="utf-8")
    if isinstance(source, str):
        source = str(tmp_path / source)
    with pytest.raises(DomainError):
        families.load_family(source)
    if isinstance(source, dict):
        with pytest.raises(DomainError):
            families.load_family(json.dumps(source))


def test_family_spec_validation():
    with pytest.raises(DomainError):
        families.FamilySpec(name="degenerate", A_poly=(0,), B_poly=(0,),
                            D_factors=((1,),), k=3)
    with pytest.raises(DomainError):
        families.FamilySpec(name="bad_k", A_poly=(1,), B_poly=(1,),
                            D_factors=((1,),), k=2)
