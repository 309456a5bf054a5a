"""Test-function pairs, special functions, and the prime-sum decomposition.

Oracles: mpmath quadrature for the Fourier transforms and digamma, the
direct power-sum recurrence for the geometric remainder, and a synthetic
zero-moment family for the decomposition plumbing.
"""

import hashlib
import json
import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldl import constants, explicit_formula as ef, families
from ldl._sum import CHUNK, Block
from ldl.errors import (DomainError, IncompleteSumError, ResourceError,
                        VerificationError)
from ldl.primes import get_table, legendre_symbol

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


def _raised_cosine(u, s, a=ef._RC_FLAT):
    """The indicator pair's phihat with the cosine taken everywhere."""
    u = np.abs(np.asarray(u, dtype=np.float64))
    roll = 0.5 * (1.0 + np.cos(math.pi * (u - a * s) / ((1 - a) * s)))
    return np.where(u <= a * s, 1.0, np.where(u < s, roll, 0.0))


def test_indicator_phihat_is_the_raised_cosine_bit_for_bit():
    # the cosine is evaluated on the roll-off band only; every value,
    # flat part, band and its edges, must be the full-grid formula's
    pair = ef.builtin_test_pair("indicator_smooth:0.18")
    s, a = 0.18, ef._RC_FLAT
    grid = np.concatenate([np.linspace(-0.3, 0.3, 60001),
                           [a * s, np.nextafter(a * s, 1.0), s,
                            np.nextafter(s, 0.0), -a * s, -s]])
    assert np.asarray(pair.eval_phihat(grid)).tobytes() == \
        _raised_cosine(grid, s).tobytes()
    for u in (0.0, 0.15, 0.17, -0.16, 0.18, 0.2):
        assert np.asarray(pair.eval_phihat(u)).tobytes() == \
            _raised_cosine(u, s).tobytes()
    # the arguments evaluate_S builds, on its largest default table
    lp = np.log(get_table(math.ceil(math.exp(18))).primes.astype(np.float64))
    for L in (50.0, 100.0, 200.0):
        for u in (lp / L, 2.0 * lp / L):
            assert np.asarray(pair.eval_phihat(u)).tobytes() == \
                _raised_cosine(u, s).tobytes()


def test_indicator_phihat_cuts_an_ascending_grid_at_its_edges():
    # an ascending grid from 0 on takes two searchsorted cuts, any other
    # the masks; both are the full-grid formula bit for bit
    pair = ef.builtin_test_pair("indicator_smooth:0.18")
    s, a = 0.18, ef._RC_FLAT
    edges = [a * s, np.nextafter(a * s, 1.0), np.nextafter(a * s, 0.0), s,
             np.nextafter(s, 0.0), np.nextafter(s, 1.0)]
    grid = np.unique(np.concatenate([np.linspace(0.0, 0.3, 30001), edges]))
    for u in (grid, grid[grid > 0.15], grid[:1], np.repeat(grid, 2),
              np.concatenate([[-0.0], grid[1:]])):
        got = np.asarray(pair.eval_phihat(u))
        assert got.tobytes() == _raised_cosine(u, s).tobytes()
        assert got.tobytes() == pair.eval_phihat(u[None, :])[0].tobytes()
    descending = grid[::-1].copy()
    assert pair.eval_phihat(descending).tobytes() == \
        _raised_cosine(descending, s).tobytes()


@pytest.mark.parametrize("name", PAIR_NAMES)
def test_pair_evenness(name):
    pair = ef.builtin_test_pair(name)
    xs = np.array([0.1, 0.37, 1.4, 2.9])
    assert np.allclose(pair.eval_phi(xs), pair.eval_phi(-xs), rtol=1e-12)
    us = np.array([0.05, 0.3, 0.55])
    assert np.allclose(pair.eval_phihat(us), pair.eval_phihat(-us))
    # phi and phihat keep their argument's shape
    for shape in [(), (1,), (4,), (2, 2)]:
        x = np.full(shape, 0.37)
        assert np.shape(pair.eval_phi(x)) == shape
        assert np.shape(pair.eval_phihat(x)) == shape


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
    # a pair is a value: the three spellings build one pair
    assert a == b == c and hash(a) == hash(b) == hash(c)
    for bad in ("fejer", "fejer:zebra", "mystery:0.5", "fejer:0",
                "fejer:4.5"):
        with pytest.raises(DomainError):
            ef.builtin_test_pair(bad)
    with pytest.raises(DomainError):
        ef.builtin_test_pair("fejer", sigma="0.5")


def test_pairs_of_one_sigma_and_two_kinds_differ():
    kinds = [ef.builtin_test_pair(kind, sigma=0.9)
             for kind in ("fejer", "gaussian", "indicator")]
    assert len(set(kinds)) == 3
    assert [p.name for p in kinds] == ["fejer:0.9", "gaussian:0.9",
                                       "indicator:0.9"]
    assert ef.builtin_test_pair("indicator_smooth:0.18").name == \
        "indicator:0.18"


# --------------------------------------------------------------------------
# digamma and the conductor term

@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.05, max_value=80.0,
                 allow_nan=False, allow_infinity=False))
def test_digamma_matches_mpmath(x):
    assert ef.digamma(x) == pytest.approx(float(mpmath.digamma(x)),
                                          rel=1e-11, abs=1e-11)


def test_digamma_domain():
    for x in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            ef.digamma(x)


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
    for n, r in ((-1.0, math.e), (10.0, 0.5), (math.nan, 10.0),
                 (math.inf, 10.0), (11.0, math.inf), (11.0, math.nan)):
        with pytest.raises(DomainError):
            ef.conductor_term(2, n, r, pair)


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
    # |lambda| <= 2 finite, p an integer >= 2
    for lam, p in ((2.5, 7), (math.nan, 5), (math.inf, 5), (0.5, 0),
                   (0.5, -1), (0.5, 1), (0.5, 7.0)):
        with pytest.raises(DomainError):
            ef.m3_remainder(lam, p)
        with pytest.raises(DomainError):
            ef.m3_direct(lam, p)


def test_m3_direct_term_count_domain():
    # the remainder starts at m = 3: fewer terms sum nothing
    for terms in (2, 0, -1, 3.0, "60"):
        with pytest.raises(DomainError, match="terms"):
            ef.m3_direct(0.5, 7, terms)
    assert ef.m3_direct(0.5, 7, 3) == (0.5 ** 3 - 3 * 0.5) / 7 ** 1.5


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
    for R in (0.5, 1.0, 0.0, -2.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            ef.evaluate_S("cusp_model", pair, R)
    # R^(sigma/2) = e^1400 is past the float range; no truncation reaches it
    with pytest.raises(IncompleteSumError):
        ef.evaluate_S("cusp_model", ef.builtin_test_pair("fejer:4"),
                      math.exp(700.0), prime_limit=1000)


def test_evaluate_s_zero_moments_give_pure_main_term(monkeypatch):
    monkeypatch.setattr(ef, "_PASS_MEMO", {})

    def zero_moments(blk):
        z = np.zeros_like(blk.pf)
        return z, z, z, None, z

    monkeypatch.setattr(families.REGISTRY["cm_b1_kappa1"], "moments",
                        zero_moments)
    monkeypatch.setattr(constants, "_gamma_atilde_family",
                        lambda fam, n: (0.0, 0.0))
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


# SHA-256 of evaluate_S(...).as_dict() as canonical JSON over many blocks:
# indicator_smooth:0.18 at log R 200 (60 blocks of CHUNK primes), and
# rank1_36t at log R 75 with S_1 summed to R^sigma; cubic-moment
# truncation 500
MULTI_BLOCK_PINS = {
    "cusp_model":
        "6decf4c67ee833d42711dd82033239183e32f93d6f01c9c1408c9db97a01e41a",
    "cm_b1_kappa1":
        "142ac0343aee2384b8e6e60e08e4d350394d23449e128d1462a5b0f71b6572c4",
    "cm_b1_kappa2":
        "7b3ec6b1821df0fac53c07be71d8528bab2a84020bb81b704253fe7625c513e2",
    "noncm_3x12t":
        "fd3ed4298c2dd5e2e388db113b16ce8efa185528d1e68b54ffdde8713958f5cf",
    "rank1_36t":
        "f60f48836b43ab1e0a1682b9c1540e0f9e968252da952a8becb152fc9f4d634e",
}


@pytest.mark.parametrize("name", MULTI_BLOCK_PINS)
def test_evaluate_s_multi_block_pins(name):
    pair = ef.builtin_test_pair("indicator_smooth:0.18")
    if name == "rank1_36t":
        R = math.exp(75.0)
        kwargs = {"prime_limit": math.ceil(R ** pair.sigma)}
    else:
        R, kwargs = math.exp(200.0), {}
    decs = [ef.evaluate_S(name, pair, R, threads=threads,
                          atilde_primes=500, **kwargs)
            for threads in (1, 2)]
    canon = [json.dumps(dec.as_dict(), sort_keys=True,
                        separators=(",", ":")) for dec in decs]
    assert canon[0] == canon[1]
    assert hashlib.sha256(canon[0].encode()).hexdigest() == \
        MULTI_BLOCK_PINS[name]


# The first of two blocks, indicator_smooth:0.18 at log R 155: SHA-256 of
# its sorted partial sums (exact float.hex), and of the sorted SHA-256s of
# the term arrays they were summed from.  The sums absorb most ulp-sized
# term moves (pf * pf * pf for the block's p^3 leaves them unchanged); the
# arrays do not.  The keys are left out, so that a renamed column keeps
# its pin.
FIRST_BLOCK_PINS = {
    "cusp_model": (
        "63bd246c7f343c6b578ded76c41d8fd5bcdce91fd2dd2f8670f57985c8afe2a0",
        "1814e805fadf631bb456a505161682e8168096540bcb950575212b7ad5176e82"),
    "cm_b1_kappa1": (
        "1699dedcf48ee7dc2ab7368dc79405f34a44a6de3f3569db9abf6d124e7d6d25",
        "c145e7324db694a4ccc4c11f4787d174452b8beeb8f4a8f8d677036894dd96ae"),
    "rank1_36t": (
        "01bb3140694379c8b8afabafffaaed15b97e49ce56af3f992c0a75c1503aedf4",
        "16007fe92dd601c445fd88eab466ae137eab4543033e77192dede805d694ca1b"),
    "noncm_3x12t": (
        "20527216e01560bae4c110fc25e49e4e2c08c303aa3b65d7fb41c2066de2b876",
        "884314b2e6e38449dda86e55cd23ac1b09d539e42cfdfc56b436dca9625b4713"),
}


class _SumSpy:
    """numpy, except that sum records the SHA-256 of the array it sums."""

    def __init__(self):
        self.seen = []

    def __getattr__(self, name):
        return getattr(np, name)

    def sum(self, vec):
        self.seen.append(hashlib.sha256(vec.tobytes()).hexdigest())
        return np.sum(vec)


@pytest.mark.parametrize("name", FIRST_BLOCK_PINS)
def test_evaluate_s_first_block_pins(monkeypatch, name):
    monkeypatch.setattr(ef, "_PASS_MEMO", {})
    first, terms, block_sums = [], _SumSpy(), ef.block_sums

    def spy(block_fn, n, threads):
        assert CHUNK < n <= 2 * CHUNK

        def recorded(start, stop):
            if start:
                return block_fn(start, stop)
            with monkeypatch.context() as m:
                m.setattr(ef, "np", terms)
                first.append(block_fn(start, stop))
            return first[-1]
        return block_sums(recorded, n, threads)

    monkeypatch.setattr(ef, "block_sums", spy)
    ef.evaluate_S(name, ef.builtin_test_pair("indicator_smooth:0.18"),
                  math.exp(155.0), threads=1, atilde_primes=30)
    (sums,) = first
    assert len(terms.seen) == len(sums)
    digests = tuple(hashlib.sha256("\n".join(sorted(rows)).encode()
                                   ).hexdigest()
                    for rows in ([float(v).hex() for v in sums.values()],
                                 terms.seen))
    assert digests == FIRST_BLOCK_PINS[name]


# repr of lower_order_limit with the family cubic-moment sum stubbed to
# zero: every bit of every piece, signed zeros included
LOWER_ORDER_LIMIT_PINS = {
    "cusp_model": (
        "{'S_Aprime': {'main': 0.0, 'sieve': 0.0}, "
        "'S_0': {'main': -3.434274902170102, 'sieve': 0.0}, "
        "'S_1': {'main': -0.0, 'sieve': -0.0}, "
        "'S_2': {'main': 2.517764098220118, 'sieve': -0.0}, "
        "'S_Atilde': {'main': -0.41607137178045794, 'sieve': -0.0}}"),
    "cm_b1_kappa2": (
        "{'S_Aprime': {'main': 0.0, 'sieve': 0.0}, "
        "'S_0': {'main': -4.800638609288671, 'sieve': 0.005259312130091782}, "
        "'S_1': {'main': -0.0, 'sieve': -0.0}, "
        "'S_2': {'main': 3.016782332578896, 'sieve': -0.000970988514807159}, "
        "'S_Atilde': {'main': -0.0, 'sieve': -0.0}}"),
    "cm_b6_kappa1": (
        "{'S_Aprime': {'main': 0.0, 'sieve': 0.0}, "
        "'S_0': {'main': -4.800638609288671, 'sieve': 3.130962087235294e-05}, "
        "'S_1': {'main': -0.0, 'sieve': -0.0}, "
        "'S_2': {'main': 3.016782332578896, 'sieve': -2.3871038237642346e-06}, "
        "'S_Atilde': {'main': -0.0, 'sieve': -0.0}}"),
    "noncm_3x12t": (
        "{'S_Aprime': {'main': 0.08297142603970759, 'sieve': -0.0}, "
        "'S_0': {'main': -5.155598051699888, 'sieve': 0.0}, "
        "'S_1': {'main': -0.07102976213823635, 'sieve': -0.0}, "
        "'S_2': {'main': 2.9403111360696976, 'sieve': -0.0}, "
        "'S_Atilde': {'main': -0.0, 'sieve': -0.0}}"),
}


@pytest.mark.parametrize("name", LOWER_ORDER_LIMIT_PINS)
def test_lower_order_limit_pins(monkeypatch, name):
    monkeypatch.setattr(constants, "_gamma_atilde_family",
                        lambda fam, n: (0.0, 0.0))
    assert repr(ef.lower_order_limit(name)) == LOWER_ORDER_LIMIT_PINS[name]


# --------------------------------------------------------------------------
# the memo of the prime pass

MEMO_ENTRIES = ["cusp_model"] + sorted(families.REGISTRY)


def _counted_passes(monkeypatch):
    """An empty pass memo for the test, and the list that the worker count
    of each block pass run is appended to."""
    runs, block_sums = [], ef.block_sums

    def counted(block_fn, n, threads):
        runs.append(threads)
        return block_sums(block_fn, n, threads)

    monkeypatch.setattr(ef, "_PASS_MEMO", {})
    monkeypatch.setattr(ef, "block_sums", counted)
    return runs


def test_evaluate_s_from_the_memo_is_the_fresh_pass(monkeypatch):
    runs = _counted_passes(monkeypatch)
    pair, R = ef.builtin_test_pair("indicator_smooth:0.18"), math.exp(120.0)

    def evaluate(name):
        return repr(ef.evaluate_S(name, pair, R, threads=1,
                                  atilde_primes=500).as_dict())

    served = {name: evaluate(name) for name in MEMO_ENTRIES}
    # one pass per moment law: the eight sextic twists take two
    assert len(runs) == len(MEMO_ENTRIES) - 6
    for name in MEMO_ENTRIES:
        ef._PASS_MEMO.clear()
        assert evaluate(name) == served[name], name
    assert len(runs) == 2 * len(MEMO_ENTRIES) - 6


def test_lower_order_limit_from_the_memo_is_the_fresh_pass(monkeypatch):
    monkeypatch.setattr(constants, "_gamma_atilde_family",
                        lambda fam, n: (0.0, 0.0))
    runs = _counted_passes(monkeypatch)
    names = [name for name in MEMO_ENTRIES
             if ef._entry(name).lead is not None]
    served = {name: repr(ef.lower_order_limit(name)) for name in names}
    assert len(runs) == len(names) - 6
    for name in names:
        ef._PASS_MEMO.clear()
        assert repr(ef.lower_order_limit(name)) == served[name], name
    assert len(runs) == 2 * len(names) - 6


def test_a_second_worker_count_runs_its_own_pass(monkeypatch):
    # so the threads 1 and 2 determinism checks compare two passes
    runs = _counted_passes(monkeypatch)
    pair = ef.builtin_test_pair("indicator_smooth:0.18")
    decs = [ef.evaluate_S("cm_b1_kappa2", pair, math.exp(120.0),
                          threads=threads, atilde_primes=30)
            for threads in (1, 2, 1)]
    assert runs == [1, 2]
    assert len({repr(dec.as_dict()) for dec in decs}) == 1


def test_separately_built_equal_pairs_share_one_pass(monkeypatch):
    runs = _counted_passes(monkeypatch)
    decs = [ef.evaluate_S("cusp_model", ef.builtin_test_pair(name),
                          math.exp(20.0), threads=1)
            for name in ("fejer:0.4", "fejer_sigma(0.4)")]
    assert len(runs) == 1 and len(ef._PASS_MEMO) == 1
    assert repr(decs[0].as_dict()) == repr(decs[1].as_dict())


def test_pairs_of_one_name_but_two_sigmas_run_two_passes(monkeypatch):
    # both print as fejer:0.123457; the memo keys on the exact sigma
    runs = _counted_passes(monkeypatch)
    pairs = [ef.builtin_test_pair("fejer", sigma=s)
             for s in (0.1234567, 0.1234568)]
    assert pairs[0].name == pairs[1].name == "fejer:0.123457"
    for pair in pairs:
        ef.evaluate_S("cusp_model", pair, math.exp(20.0), threads=1)
    assert len(runs) == 2


def test_the_memo_keeps_its_bound_and_drops_the_oldest(monkeypatch):
    runs = _counted_passes(monkeypatch)
    monkeypatch.setattr(ef, "PASS_MEMO_SIZE", 2)
    pair = ef.builtin_test_pair("fejer:0.4")
    for L in (20.0, 21.0, 22.0, 20.0, 22.0):
        ef.evaluate_S("cusp_model", pair, math.exp(L), threads=1)
    # log R 20 ran again after log R 22 dropped it; log R 22 was kept
    assert len(runs) == 4 and len(ef._PASS_MEMO) == 2
    assert all(isinstance(v, float) for sums, x_last in
               ef._PASS_MEMO.values() for v in (*sums.values(), x_last))


def test_a_borrowed_name_shares_no_pass_with_the_built_in(monkeypatch):
    # y^2 = x^3 + (6T + 1) under the name cm_b1_kappa2: its moments equal
    # the built-in's, but its entry is a brute-force one, keyed by its spec
    runs = _counted_passes(monkeypatch)
    impostor = families.load_family({
        "name": "cm_b1_kappa2", "A": [0], "B": [1, 6], "D_factors": [[1, 6]],
        "k": 3, "forced_zero_primes": [2, 3]})
    pair = ef.builtin_test_pair("fejer:0.4")
    for fam in ("cm_b1_kappa2", impostor, impostor):
        ef.evaluate_S(fam, pair, math.exp(25.0), threads=1, atilde_primes=30)
    assert len(runs) == 2


@pytest.mark.parametrize("name", ["cusp_model", "cm_b1_kappa2"])
def test_a_capped_truncation_bounds_the_window_it_drops(monkeypatch, name):
    # R^(sigma/2) = e^13.5 = 729417: the capped sum drops the S_0 and S_2
    # terms of (9973, 729417], which its tail bound must cover
    pair, R = ef.builtin_test_pair("fejer:0.9"), math.exp(30.0)
    full = ef.evaluate_S(name, pair, R, atilde_primes=500)
    monkeypatch.setattr(ef, "DEFAULT_PRIME_CAP", 10 ** 4)
    capped = ef.evaluate_S(name, pair, R, atilde_primes=500)
    assert full.support_complete and not capped.support_complete
    assert abs(full.total - capped.total) <= capped.tail_bound


def test_lower_order_limit_needs_a_prime_number_theorem_split(monkeypatch):
    # the quartic pair's A_1 and A_2 live on p = 1 mod 4, which the split
    # into all primes and p = 1 mod 3 does not cover; the entry's lead says
    # so before any prime table is built
    def no_work(*args, **kwargs):
        raise AssertionError("prime table built before the lead check")

    monkeypatch.setattr(ef, "get_table", no_work)
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
    # a tiny cubic-moment truncation keeps the clone's trace tables few;
    # both sides use the same truncation
    fast = ef.evaluate_S(fam, pair, R, atilde_primes=30)
    brute = ef.evaluate_S(clone, pair, R, atilde_primes=30)
    for key in fast.pieces:
        for part in ("main", "sieve"):
            assert brute.pieces[key][part] == pytest.approx(
                fast.pieces[key][part], rel=1e-9, abs=1e-12)


def _moments(entry, p_int, pf):
    """An entry's moments by name, with has_bad for its bad moments; a
    column the entry reports as identically zero (None) as zeros."""
    A0, A1, A2, aprime, hs = entry.moments(Block(p_int))
    zero = np.zeros_like(pf)
    Aprime1, Aprime2 = aprime or (None, None)
    return SimpleNamespace(A0=A0, A1=zero if A1 is None else A1, A2=A2,
                           Aprime1=Aprime1, Aprime2=Aprime2,
                           hs=zero if hs is None else hs,
                           has_bad=aprime is not None)


def _clone(name):
    """A built-in's curve under another name: a custom family."""
    fam = families.get_family(name)
    return families.load_family({
        "name": "generic_clone", "A": list(fam.A_poly),
        "B": list(fam.B_poly),
        "D_factors": [list(f) for f in fam.D_factors],
        "k": None if fam.k == families.INF else int(fam.k),
        "forced_zero_primes": [2, 3]})


def test_evaluate_s_custom_family_golden():
    # the SHA-256 of a custom clone's decomposition, canonical JSON
    dec = ef.evaluate_S(_clone("cm_b1_kappa2"),
                        ef.builtin_test_pair("fejer:0.4"), math.exp(25.0),
                        atilde_primes=30)
    canon = json.dumps(dec.as_dict(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canon.encode()).hexdigest() == (
        "ea1cf27ffa804cabc59d290de26e7949ce92dc2d6ebfd7f82b29a469f82a37b2")


@pytest.mark.parametrize("count", [0, -2, 2.5])
def test_evaluate_s_refuses_an_atilde_truncation_below_one(monkeypatch,
                                                           count):
    # or one that is not an integer; the cusp model sums no Atilde prime,
    # but refuses what a family refuses, before any pass
    def no_pass(*args):
        raise AssertionError("pass started before the check")

    monkeypatch.setattr(ef, "_block_pass", no_pass)
    pair = ef.builtin_test_pair("fejer:0.4")
    for fam in ("cm_b1_kappa2", "cusp_model"):
        with pytest.raises(DomainError, match="prime count"):
            ef.evaluate_S(fam, pair, math.exp(25.0), atilde_primes=count)


def test_evaluate_s_custom_family_refuses_uncapped_atilde(monkeypatch):
    # the default cubic-moment truncation reaches p = 48611, far past the
    # brute-force cap; the refusal comes before the prime table is built
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the cap check")

    monkeypatch.setattr(ef, "get_table", no_work)
    monkeypatch.setattr(constants, "_gamma_atilde_family", no_work)
    pair = ef.builtin_test_pair("fejer:0.4")
    with pytest.raises(ResourceError):
        ef.evaluate_S(_clone("cm_b1_kappa2"), pair, math.exp(25.0))


def test_evaluate_s_custom_family_refuses_prime_limit_past_cap(monkeypatch):
    # the brute-force moment cap is checked before the prime table is built
    def no_work(*args, **kwargs):
        raise AssertionError("prime table built before the cap check")

    monkeypatch.setattr(ef, "get_table", no_work)
    clone = _clone("cm_b1_kappa2")
    pair = ef.builtin_test_pair("indicator_smooth:0.18")
    with pytest.raises(ResourceError):
        ef.evaluate_S(clone, pair, math.exp(200.0), atilde_primes=30)
    with pytest.raises(ResourceError):
        ef.evaluate_S(clone, pair, math.exp(25.0), atilde_primes=30,
                      prime_limit=families.BRUTE_FORCE_CAP + 1)


@pytest.mark.parametrize("name", sorted(families.BUILTIN_FAMILIES))
def test_registry_moment_arrays_match_brute_force(name):
    # the arrays evaluate_S sums, against point counts of a renamed clone
    p_int = get_table(300).primes
    p_int = p_int[p_int >= 5]
    pf = p_int.astype(np.float64)
    fast = _moments(families.entry_of(name), p_int, pf)
    brute = _moments(families.entry_of(_clone(name)), p_int, pf)
    attrs = ["A0", "A1", "A2"]
    if fast.has_bad:
        attrs += ["Aprime1", "Aprime2"]
    for attr in attrs:
        want = getattr(brute, attr)
        got = np.broadcast_to(getattr(fast, attr), want.shape)
        assert np.array_equal(got, want), attr
    assert np.array_equal(fast.hs, brute.hs)


# --------------------------------------------------------------------------
# the block pass against full-length term vectors

def _full_array_decomposition(name, phi, R, atilde_primes):
    """(pieces, total, prime count) of evaluate_S at its default
    truncation, with every term built over the whole prime table and
    summed in fixed CHUNK slices, the partials combined by math.fsum: the
    term expressions evaluate_S forms on each block, in one full-length
    pass per term."""
    model = name == "cusp_model"
    fam = None if model else families.get_family(name)
    L = math.log(R)
    table = get_table(math.ceil(math.exp(L * phi.sigma / 2.0)))
    p_int = table.primes if model else table.primes[table.primes >= 5]
    pf = p_int.astype(np.float64)
    lp = np.log(pf)
    ph0 = phi.phihat0
    phihat1 = np.asarray(phi.eval_phihat(lp / L), dtype=np.float64)
    phihat2 = np.asarray(phi.eval_phihat(2.0 * lp / L), dtype=np.float64)
    entry = ef.CUSP_MODEL if model else families.entry_of(fam)
    mom = _moments(entry, p_int, pf)

    def chunked(vec):
        return math.fsum(float(np.sum(vec[s:s + CHUNK]))
                         for s in range(0, vec.size, CHUNK))

    def pair(vec):
        return {"main": chunked(vec), "sieve": chunked(vec * mom.hs)}

    pieces = {}
    if mom.has_bad:
        sa = pair(constants.aprime_terms(mom.Aprime1, mom.Aprime2,
                                         Block(p_int)))
        pieces["S_Aprime"] = {k: -2.0 * ph0 * v / L for k, v in sa.items()}
    else:
        pieces["S_Aprime"] = {"main": 0.0, "sieve": 0.0}
    s0a = pair(2.0 * mom.A0 * lp / (pf * pf * (pf + 1.0)))
    s0b = pair(2.0 * mom.A0 * lp / (pf * pf) * phihat2)
    pieces["S_0"] = {k: (-2.0 * ph0 * s0a[k] + 2.0 * s0b[k]) / L
                     for k in ("main", "sieve")}
    s1a = pair(mom.A1 * lp / (pf * pf) * phihat1)
    s1b = pair(mom.A1 * (3.0 * pf + 1.0) * lp / (pf * pf * (pf + 1.0) ** 2))
    pieces["S_1"] = {k: (-2.0 * s1a[k] + 2.0 * ph0 * s1b[k]) / L
                     for k in ("main", "sieve")}
    s2a = pair(mom.A2 * lp / pf ** 3 * phihat2)
    s2b = pair(mom.A2 * (4.0 * pf * pf + 3.0 * pf + 1.0) * lp
               / (pf ** 3 * (pf + 1.0) ** 3))
    pieces["S_2"] = {k: (-2.0 * s2a[k] + 2.0 * ph0 * s2b[k]) / L
                     for k in ("main", "sieve")}
    if model:
        at_main = chunked(ef.CUSP_MODEL.atilde_terms(Block(p_int)))
        at_sieve = 0.0
    else:
        at_main, at_sieve = constants._gamma_atilde_family(fam,
                                                           atilde_primes)
    pieces["S_Atilde"] = {"main": -2.0 * ph0 * at_main / L,
                          "sieve": -2.0 * ph0 * at_sieve / L}
    total = math.fsum(v["main"] + v["sieve"] for v in pieces.values())
    return pieces, total, p_int.size


@pytest.mark.parametrize("name", [
    "cusp_model", "cm_b1_kappa1", "cm_b2_kappa2", "noncm_3x12t", "rank1_36t"])
def test_block_pass_is_bit_identical_to_full_array_sums(name):
    pair = ef.builtin_test_pair("indicator_smooth:0.18")
    R = math.exp(170.0)
    pieces, total, count = _full_array_decomposition(name, pair, R, 30)
    assert count > 2 * CHUNK     # at least three blocks
    for threads in (1, 2, 3):
        dec = ef.evaluate_S(name, pair, R, threads=threads, atilde_primes=30)
        assert dec.pieces == pieces and dec.total == total
        assert repr((dec.pieces, dec.total)) == repr((pieces, total))


# the quartic pair at log R 75 over the whole support of S_1: the values of
# the scalar per-prime A_2 and of the one Atilde recipe, which the array
# kernels must keep
QUARTIC_GOLDEN = {
    "rank1_36t": {
        "pieces": {
            "S_0": {"main": 0.1898375114887609,
                    "sieve": 0.00022224947831717284},
            "S_1": {"main": 0.2508111513768356,
                    "sieve": 0.00016665522566033586},
            "S_2": {"main": -0.0821686959686685,
                    "sieve": -0.00010233720045472509},
            "S_Aprime": {"main": 0.0,
                         "sieve": 0.0},
            "S_Atilde": {"main": 0.0029622522623109437,
                         "sieve": 3.6125152353642984e-05},
        },
        "total": 0.36176491181511533,
        "tail_bound": 0.000980887252675951,
        "main_term_estimate": 0.486,
        "lower_order_coefficient": -4.658815806933174,
    },
    "rank0_36t": {
        "pieces": {
            "S_0": {"main": 0.1898375114887609,
                    "sieve": 0.00022224947831717284},
            "S_1": {"main": -0.024222785611803525,
                    "sieve": -0.00016024888057840657},
            "S_2": {"main": -0.0821686959686685,
                    "sieve": -0.00010233720045472509},
            "S_Aprime": {"main": 0.0,
                         "sieve": 0.0},
            "S_Atilde": {"main": -0.01674237150934618,
                         "sieve": -0.00017307740028115048},
        },
        "total": 0.06649024439594559,
        "tail_bound": 0.000980640856196065,
        "main_term_estimate": 0.162,
        "lower_order_coefficient": -3.5816158351520406,
    },
}


@pytest.mark.parametrize("name", QUARTIC_GOLDEN)
def test_quartic_decomposition_at_r_sigma_keeps_its_bits(name):
    pair = ef.builtin_test_pair("indicator_smooth:0.18")
    R = math.exp(75.0)
    x = math.ceil(R ** pair.sigma)
    assert x == 729417
    want = {"family": name, "phi": "indicator:0.18", "R": R,
            "prime_limit": x, "support_complete": True,
            **QUARTIC_GOLDEN[name]}
    dec = ef.evaluate_S(name, pair, R, prime_limit=x)
    assert repr(dec.as_dict()) == repr(want)


# --------------------------------------------------------------------------
# S_A': the bad-prime m-series in closed form

def _aprime_m_series(bad_moment, pf, lp):
    """sum_m A'_m log p / p^(m+1) term by term, to m = 25, where the bound
    2/5^(m+1) on the terms has dropped below 1e-18."""
    acc = np.zeros_like(pf)
    for m in range(1, 26):
        acc = acc + bad_moment(m) / pf ** (m + 1)
    return acc * lp


def _assert_aprime_matches_series(mom, bad_moment, p_int):
    pf = p_int.astype(np.float64)
    lp = np.log(pf)
    closed = constants.aprime_terms(mom.Aprime1, mom.Aprime2, Block(p_int))
    series = _aprime_m_series(bad_moment, pf, lp)
    assert np.all(series != 0.0)
    assert np.max(np.abs(closed - series) / np.abs(series)) <= 1e-15


def test_aprime_closed_form_matches_m_series():
    p_int = get_table(10 ** 5).primes
    p_int = p_int[p_int >= 5]
    s3 = np.array([legendre_symbol(3, int(p)) for p in p_int])
    sm3 = np.array([legendre_symbol(-3, int(p)) for p in p_int])
    fam = families.get_family("noncm_3x12t")
    mom = _moments(families.entry_of(fam), p_int, p_int.astype(np.float64))
    _assert_aprime_matches_series(
        mom, lambda m: (s3 ** m + sm3 ** m).astype(np.float64), p_int)
    # the same curve as a custom family, through the brute-force moments
    clone = _clone("noncm_3x12t")
    p_int = p_int[p_int <= 200]
    mom = _moments(families.entry_of(clone), p_int,
                   p_int.astype(np.float64))
    _assert_aprime_matches_series(
        mom, lambda m: np.array([families.complete_moment(
            clone, int(p), m, "bad") for p in p_int], dtype=np.float64),
        p_int)


def test_lower_order_limit_aprime_is_the_catalog_constant(monkeypatch):
    monkeypatch.setattr(constants, "_gamma_atilde_family",
                        lambda fam, n: (0.0, 0.0))
    limit = ef.lower_order_limit("noncm_3x12t")
    assert limit["S_Aprime"]["main"] == -constants.compute_constant(
        "gamma_aprime_3", prime_limit=ef.LIMIT_PRIME_LIMIT).value


def test_brute_moments_refuse_bad_trace_beyond_one(monkeypatch):
    # the closed-form S_A' needs a_t(p) in {-1, 0, 1} at every bad t
    curve_data = families._curve_data

    def two_at_bad_t(fam, p):
        a_vals, good = curve_data(fam, p)
        return np.where(good, a_vals, 2), good

    monkeypatch.setattr(families, "_curve_data", two_at_bad_t)
    pair = ef.builtin_test_pair("fejer:0.4")
    with pytest.raises(VerificationError):
        ef.evaluate_S(_clone("noncm_3x12t"), pair, math.exp(25.0),
                      atilde_primes=30)
