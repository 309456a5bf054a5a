"""Prime sieve, multiplicative symbols, and the prime-counting constants.

Oracles: sympy's isprime / legendre_symbol / jacobi_symbol, mpmath's
constants for the closed forms' literals, plus classic prime-count
checkpoints frozen from the literature.
"""

import hashlib
import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ldl import _sum, constants, explicit_formula as ef, families, primes
from ldl._sum import CHUNK
from ldl.errors import DomainError, ResourceError

def _class(table, a, b):
    """The primes p = a mod b of a table, joined from its class blocks."""
    return np.concatenate([np.empty(0, dtype=np.int64),
                           *table.residue_blocks(a, b)])


PRIMES_BELOW_100 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                    47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]

SOME_ODD_PRIMES = [3, 5, 7, 11, 13, 17, 101, 997, 10007, 104729]


def test_sieve_matches_known_primes():
    table = primes.sieve_primes(100)
    assert list(table.primes) == PRIMES_BELOW_100


def test_prime_counting_checkpoints():
    # pi(10^4) = 1229, pi(10^6) = 78498 and pi(10^8) = 5761455
    assert primes.sieve_primes(10 ** 4).primes.size == 1229
    assert primes.sieve_primes(10 ** 6).primes.size == 78498
    assert len(primes.sieve_primes(10 ** 8)) == 5761455


def test_first_n_primes():
    table = primes.first_n_primes(5000)
    assert table.primes.size == 5000
    assert int(table.primes[-1]) == 48611
    assert int(primes.first_n_primes(1).primes[0]) == 2


@pytest.mark.parametrize("n", [0, -2])
def test_first_n_primes_refuses_fewer_than_one(n):
    with pytest.raises(DomainError, match="prime count"):
        primes.first_n_primes(n)
    with pytest.raises(DomainError):
        primes.gamma_pnt(first_primes=n)


def test_get_table_is_grow_only():
    big = primes.get_table(10 ** 4)
    small = primes.get_table(100)
    assert int(small.primes[-1]) <= 100
    assert int(big.primes[-1]) <= 10 ** 4
    assert small.primes.size == len(PRIMES_BELOW_100)


@pytest.mark.parametrize("a, b", [(1, 3), (2, 3), (1, 4), (3, 4), (5, 12)])
def test_residue_class_matches_the_remainder(a, b):
    table = primes.sieve_primes(10 ** 6)          # 78498 primes, two CHUNKs
    assert table.primes.size > CHUNK
    assert np.array_equal(_class(table, a, b),
                          table.primes[table.primes % b == a % b])


@pytest.mark.parametrize("n", [39016, 39017, 10 ** 5, 10 ** 6, 4 * 10 ** 6])
def test_nth_prime_limit_bounds_the_nth_prime(n):
    # Rosser-Schoenfeld below 39017, Dusart's tighter bound from there on
    assert primes.nth_prime_limit(n) >= sympy.prime(n)


def test_first_n_primes_sieves_once(monkeypatch):
    sieve, calls = primes.sieve_primes, []

    def counted(limit):
        calls.append(limit)
        return sieve(limit)

    monkeypatch.setattr(primes, "_TABLE_CACHE", None)
    monkeypatch.setattr(primes, "sieve_primes", counted)
    table = primes.first_n_primes(10 ** 6)
    assert calls == [primes.nth_prime_limit(10 ** 6)]
    assert table.primes.size == 10 ** 6 and int(table.primes[-1]) == 15485863


def test_residue_class_partition():
    table = primes.get_table(10 ** 4)
    r1, r3 = _class(table, 1, 4), _class(table, 3, 4)
    assert np.all(r1 % 4 == 1)
    assert np.all(r3 % 4 == 3)
    assert r1.size + r3.size == table.primes.size - 1  # all but p = 2


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_is_prime_matches_sympy(n):
    assert primes.is_prime(n) == sympy.isprime(n)


@pytest.mark.parametrize("n, factor", [
    (341550071728321, 10670053),
    (3825123056546413051, 149491),
    (318665857834031151167461, 399165290221),
])
def test_is_prime_refuses_strong_pseudoprimes_to_the_bases_up_to_17(
        n, factor):
    # psi_7, psi_9 and psi_12, the least strong pseudoprimes to the first
    # 7, 9 and 12 primes as bases: each passes every base up to 17, and
    # the first 13 primes as bases catch all three
    assert n % factor == 0 and 1 < factor < n
    assert not primes.is_prime(n)
    with pytest.raises(DomainError):
        primes.legendre_symbol(2, n)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
       st.sampled_from(SOME_ODD_PRIMES))
def test_legendre_symbol_matches_sympy(a, p):
    assert primes.legendre_symbol(a, p) == sympy.legendre_symbol(a, p)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
       st.integers(min_value=1, max_value=10 ** 5).map(lambda n: 2 * n + 1))
def test_jacobi_symbol_matches_sympy(a, n):
    assert primes.jacobi_symbol(a, n) == sympy.jacobi_symbol(a, n)


def test_legendre_symbols_vec_matches_scalar():
    p = 97
    a = np.arange(0, 3 * p, dtype=np.int64)
    vec = primes.legendre_symbols_vec(a, p)
    for ai, vi in zip(a, vec):
        assert int(vi) == primes.legendre_symbol(int(ai), p)


def test_gamma_pnt_closed_form():
    res = primes.gamma_pnt(prime_limit=10 ** 6)
    assert res.method == "closed_form"
    # value at the reference precision is -1.33258; allow for the tail
    assert res.value == pytest.approx(-1.33258, abs=5e-6 + res.tail_bound)


def test_gamma_pnt_integral_agrees_with_closed_form():
    closed = primes.gamma_pnt(prime_limit=10 ** 6)
    integral = primes.gamma_pnt(method="integral", prime_limit=10 ** 6)
    assert integral.method == "integral"
    tol = integral.tail_bound + closed.tail_bound + 1e-12
    assert abs(integral.value - closed.value) <= tol


def test_gamma_pnt_residue_classes():
    r13 = primes.gamma_pnt_ab(1, 3, prime_limit=10 ** 6)
    r14 = primes.gamma_pnt_ab(1, 4, prime_limit=10 ** 6)
    assert r13.value == pytest.approx(-2.375494, abs=1e-5 + r13.tail_bound)
    assert r14.value == pytest.approx(-2.224837, abs=1e-5 + r14.tail_bound)


#: each literal of the closed forms, to 40 digits
MPMATH_LITERALS = {
    "euler_gamma": lambda: mpmath.euler,
    "log_2pi": lambda: mpmath.log(2 * mpmath.pi),
    "log_3": lambda: mpmath.log(3),
    "gamma_one_third": lambda: mpmath.gamma(mpmath.mpf(1) / 3),
    "gamma_one_fourth": lambda: mpmath.gamma(mpmath.mpf(1) / 4),
}


@pytest.mark.parametrize("name", sorted(MPMATH_LITERALS))
def test_literals_are_thirty_correct_digits_and_their_doubles(name):
    assert set(primes.LITERALS_30) == set(MPMATH_LITERALS)
    text = primes.LITERALS_30[name]
    with mpmath.workdps(40):
        want = MPMATH_LITERALS[name]()
        # 30 significant digits, within half a unit of the last of them
        digits = text.replace(".", "").lstrip("0")
        assert len(digits) == 30, name
        unit = mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(want)) - 29)
        assert abs(mpmath.mpf(text) - want) <= unit / 2, name
        # the module's float is the double nearest the constant
        assert getattr(primes, name.upper()) == float(want), name


def test_constant_result_carries_provenance():
    res = primes.gamma_pnt(prime_limit=10 ** 6)
    row = res.as_dict()
    for key in ("name", "value", "truncation", "tail_bound", "method"):
        assert key in row
    assert row["tail_bound"] >= 0.0


def test_get_table_refuses_a_limit_below_two_with_a_table_cached():
    primes.get_table(100)
    for limit in (1, 0, -3):
        with pytest.raises(DomainError, match="empty table"):
            primes.get_table(limit)


#: SHA-256 of the primes <= 10^7 as little-endian int64, pinned from the
#: int64 table of the package's first sieve
PRIMES_TO_1E7_SHA256 = (
    "2ad296d1337aaafbb800643fa0cf7a36badb424747f4b9a112d353f8b6631993")


def test_the_sieve_holds_one_window_beside_its_table():
    # past the table, whose steps are allocated at their Rosser-Schoenfeld
    # size and returned as a slice, the sieve holds a 1 MiB window and the
    # window's indices; a 16 MiB segment mask alone would break the bound
    tracemalloc.start()
    try:
        table = primes.sieve_primes(10 ** 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - table.nbytes < 4 << 20


def test_tables_and_blocks_are_int64():
    for table in (primes.sieve_primes(100), primes.sieve_primes(10 ** 6),
                  primes.get_table(10 ** 5), primes.first_n_primes(5000)):
        assert table.primes.dtype == np.int64
        for blk in itertools.chain(table.blocks(2),
                                   table.residue_blocks(1, 4)):
            assert blk.dtype == np.int64
    table = primes.get_table(10 ** 7)
    digest = hashlib.sha256(table.primes.astype("<i8").tobytes())
    assert digest.hexdigest() == PRIMES_TO_1E7_SHA256


def test_the_int32_cap_is_refused_before_anything_is_allocated():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="cap"):
            primes.sieve_primes(primes.HARD_SIEVE_CAP + 1)
        with pytest.raises(ResourceError, match="cap"):
            primes.first_n_primes(primes.PRIMES_BELOW_CAP + 1)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_first_n_primes_at_the_cap_sieves_no_further(monkeypatch):
    # Dusart's bound for pi(2^31 - 1) primes lies past the cap itself
    assert primes.nth_prime_limit(primes.PRIMES_BELOW_CAP) > (
        primes.HARD_SIEVE_CAP)
    calls = []

    def refused(limit):
        calls.append(limit)
        raise ResourceError("not sieved in a test")

    monkeypatch.setattr(primes, "get_table", refused)
    with pytest.raises(ResourceError, match="not sieved"):
        primes.first_n_primes(primes.PRIMES_BELOW_CAP)
    assert calls == [primes.HARD_SIEVE_CAP]


def test_table_sums_copy_no_table(monkeypatch):
    # a block pass allocates a few block-sized temporaries, about 4.5 MB at
    # 2^16 primes, where a table-length column takes 8 bytes a prime; the
    # bound is 2 bytes a prime at 10^8 (11.5 MB) to tell them apart
    monkeypatch.setattr(primes, "_TABLE_CACHE", None)
    limit = 10 ** 8
    table = primes.get_table(limit)
    phi = ef.builtin_test_pair("indicator_smooth:0.18")
    calls = {
        "gamma_st_2": lambda: constants.compute_constant(
            "gamma_st_2", prime_limit=limit),
        "gamma_cm2_13": lambda: constants.compute_constant(
            "gamma_cm2_13", prime_limit=limit),
        "gamma_pnt": lambda: primes.gamma_pnt(
            method="integral", prime_limit=limit),
        "gamma_pnt_13": lambda: primes.gamma_pnt_ab(
            1, 3, prime_limit=limit),
        "gamma_pnt_13 integral": lambda: primes.gamma_pnt_ab(
            1, 3, method="integral", prime_limit=limit),
        "evaluate_S": lambda: ef.evaluate_S(
            "cm_b1_kappa2", phi, math.exp(200), prime_limit=limit,
            threads=1),
    }
    for name, call in calls.items():
        call()                        # its caches, outside the trace
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(table), name


def test_invalid_inputs_raise():
    # "direct" is the CLI's name for the integral method, not the library's
    for method in ("nonsense", "direct"):
        with pytest.raises(DomainError, match="unknown method"):
            primes.gamma_pnt(method=method, prime_limit=10 ** 6)
        with pytest.raises(DomainError, match="unknown method"):
            primes.gamma_pnt_ab(1, 3, method=method, prime_limit=10 ** 6)
    with pytest.raises(DomainError):
        primes.legendre_symbol(2, 2)
    # an X that is not a finite real, and a modulus below 1: never a raw
    # ValueError, OverflowError or ZeroDivisionError
    for X in (math.nan, math.inf, "100"):
        with pytest.raises(DomainError, match="upper_limit"):
            primes.theta_error_integral("all", X)
    table = primes.get_table(100)
    for b in (0, -3, 4.0):
        with pytest.raises(DomainError, match="modulus"):
            primes.theta_error_integral((1, b), 100.0)
        with pytest.raises(DomainError, match="modulus"):
            table.residue_blocks(1, b)


def test_theta_error_integral_refuses_a_bad_class():
    # a class that is neither "all" nor a pair of integers: not a raw
    # unpacking ValueError, nor an empty sum for a non-integer residue
    for cls in ("foo", "al", (1,), (1, 3, 5), None, 3, (1.5, 3), ("a", 3)):
        with pytest.raises(DomainError, match="cls|residue"):
            primes.theta_error_integral(cls, 100.0)


def test_an_unknown_method_is_refused_before_any_table(monkeypatch):
    # gamma_pnt(method="direct") sieved to 10^8 before it named the method
    def no_table(n):
        raise AssertionError(f"a table of {n} for an unknown method")

    monkeypatch.setattr(primes, "get_table", no_table)
    monkeypatch.setattr(primes, "first_n_primes", no_table)
    with pytest.raises(DomainError, match="unknown method"):
        primes.gamma_pnt(method="direct")
    with pytest.raises(DomainError, match="unknown method"):
        primes.gamma_pnt_ab(1, 3, method="direct")


#: (call, an accepted value, one that is not an integer, or not finite)
TRUNCATIONS = {
    "sieve_primes": (primes.sieve_primes, 10 ** 5, 1e5),
    "get_table": (primes.get_table, 10 ** 5, 1e5),
    "first_n_primes": (primes.first_n_primes, 10 ** 3, 1e3),
    "compute_constant": (lambda n: constants.compute_constant(
        "gamma_st_2", prime_limit=n), 10 ** 5, 1e5),
    "gamma_pnt": (lambda n: primes.gamma_pnt(prime_limit=n), 2 * 10 ** 5,
                  2e5),
    "family_constant_Atilde": (lambda n: constants.family_constant_Atilde(
        "cm_b1_kappa1", prime_count=n), 5000, 5e3),
    "evaluate_S prime_limit": (lambda n: ef.evaluate_S(
        "cm_b1_kappa1", ef.builtin_test_pair("fejer:0.6"), 1e4,
        prime_limit=n), 10 ** 5, 1e5),
    "evaluate_S atilde_primes": (lambda n: ef.evaluate_S(
        "cm_b1_kappa1", ef.builtin_test_pair("fejer:0.6"), 1e4,
        atilde_primes=n), 5000, 2.5),
    "rank_bias nan": (lambda x: families.rank_bias("rank1_36t", x), 1e4,
                      math.nan),
    "rank_bias inf": (lambda x: families.rank_bias("rank1_36t", x), 1e4,
                      math.inf),
}


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("name", list(TRUNCATIONS))
def test_a_non_integer_truncation_is_refused_cold_or_warm(monkeypatch,
                                                          name, warm):
    # a float limit used to raise TypeError on a cold table cache and to
    # pass on a warm one; now DomainError either way.  Warm is a table
    # past every limit here, and the caches of the call with a good value
    call, good, bad = TRUNCATIONS[name]
    monkeypatch.setattr(primes, "_TABLE_CACHE", None)
    if warm:
        primes.get_table(10 ** 6)
        call(good)
    with pytest.raises(DomainError):
        call(bad)


def _plain_eratosthenes(n):
    """Primes <= n by the textbook sieve over every integer."""
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for i in range(2, math.isqrt(n) + 1):
        if mask[i]:
            mask[i * i::i] = False
    return np.flatnonzero(mask)


def test_sieve_matches_plain_eratosthenes_below_300():
    for n in range(2, 300):
        assert np.array_equal(primes.sieve_primes(n).primes,
                              _plain_eratosthenes(n)), n


SPAN = 3 * 5 * 7 * 11 * 13       # the wheel's period
SEGMENT = 1 << 25                # the integers 16 sieve windows span
WINDOW = 1 << 21                 # the integers one sieve window spans


@pytest.fixture(scope="module")
def reference_primes():
    return _plain_eratosthenes(2 * SEGMENT + 1)


def _edges():
    out = [(1 << 16) + d for d in (-1, 0, 1)]          # the plain-sieve cutoff
    out += [k * SPAN + d for k in (1, 4, 5, 7, 4469) for d in (-1, 0, 1)]
    out += [k * SEGMENT + d for k in (1, 2) for d in (-1, 0, 1)]
    # the first window and the 15th to 17th; 16 * WINDOW +- 1 are the
    # SEGMENT edges above
    out += [k * WINDOW + d for k in (1, 15, 17) for d in (-1, 1)]
    # q^2 starts the marking of each base prime q > 13
    out += [q * q + d for q in (257, 4099, 5791, 8191) for d in (-1, 0, 1)]
    return out


@pytest.mark.parametrize("n", _edges())
def test_sieve_matches_plain_eratosthenes_at_the_edges(n, reference_primes):
    want = reference_primes[:np.searchsorted(reference_primes, n, "right")]
    table = primes.sieve_primes(n)
    assert table.limit == n
    assert np.array_equal(table.primes, want)


@pytest.mark.parametrize("n", [257 ** 2 + 1, 17 * WINDOW + 1, 2 * SEGMENT + 1])
def test_sieve_clears_large_base_primes_per_segment(n, reference_primes,
                                                    monkeypatch):
    # the base primes from 8192 on square past the reference range, so
    # their clearing all together, window by window, is checked with the
    # cutoff lowered to 257
    monkeypatch.setattr(primes, "_WINDOWED_BELOW", 257)
    want = reference_primes[:np.searchsorted(reference_primes, n, "right")]
    assert np.array_equal(primes.sieve_primes(n).primes, want)


def test_theta_error_integral_at_a_non_integer_x():
    # the primes <= 10^6 + 1/2 are those <= 10^6, so the table to 10^6
    # covers X; the closed form is sum_{p<=X} log p (1/p - 1/X) - log X
    X = 10 ** 6 + 0.5
    table = primes.get_table(10 ** 6)
    got = primes.theta_error_integral("all", X)
    assert got == primes.theta_error_integral("all", X, table)
    want = math.fsum(math.log(p) * (1.0 / p - 1.0 / X)
                     for p in table.primes.tolist()) - math.log(X)
    assert got == pytest.approx(want, abs=1e-9)
    with pytest.raises(DomainError):
        primes.theta_error_integral("all", 10 ** 6 + 1, table)


# --------------------------------------------------------------------------
# the one-byte table: its steps, anchors, decoder and value search

@pytest.fixture(scope="module")
def reference_tables():
    """{limit: (table, its primes as int64)} at 10^6 and 10^7, the primes
    checked against the textbook sieve and the pinned hash."""
    out = {}
    for limit in (10 ** 6, 10 ** 7):
        table = primes.sieve_primes(limit)
        out[limit] = table, table.primes
    assert np.array_equal(out[10 ** 6][1], _plain_eratosthenes(10 ** 6))
    digest = hashlib.sha256(out[10 ** 7][1].astype("<i8").tobytes())
    assert digest.hexdigest() == PRIMES_TO_1E7_SHA256
    return out


def _cuts(n):
    stride = primes._ANCHOR_STRIDE
    return [(0, 0), (0, 1), (1, 2), (0, CHUNK), (2, CHUNK + 2),
            (stride - 1, stride + 1), (stride, 3 * stride),
            (CHUNK - 1, 2 * CHUNK + 5), (n - CHUNK // 2, n), (n - 1, n),
            (n, n)]


@pytest.mark.parametrize("limit", [10 ** 6, 10 ** 7])
def test_decoded_blocks_are_the_primes_as_int64(limit, reference_tables,
                                                 monkeypatch):
    table, ref = reference_tables[limit]
    n = len(table)
    for start, stop in _cuts(n):
        got = table.decode(start, stop)
        assert got.dtype == np.int64
        assert np.array_equal(got, ref[start:stop]), (start, stop)
    # the blocks of the sums: from offset 0 and 2 (p >= 5), after a head
    # of one prime, which chunks tops up to a full first block, and with
    # a short last block
    none = ref[:0]
    for start, head in [(0, none), (2, none), (2, ref[:1]),
                        (n - CHUNK - 7, none)]:
        blocks = list(_sum.chunks(itertools.chain((head,),
                                                  table.blocks(start))))
        assert [b.size for b in blocks[:1]] == [
            min(CHUNK, head.size + n - start)]
        assert all(b.size == CHUNK for b in blocks[1:-1])
        assert np.array_equal(np.concatenate(blocks),
                              np.concatenate((head, ref[start:])))
    # the sub-tables of get_table and first_n_primes share its buffers
    monkeypatch.setattr(primes, "_TABLE_CACHE", table)
    for sub in (primes.get_table(limit // 3),
                primes.first_n_primes(CHUNK + 3)):
        m = len(sub)
        assert sub.nbytes == table.nbytes
        assert sub.last == ref[m - 1] <= sub.limit
        assert np.array_equal(np.concatenate(list(sub.blocks(2))), ref[2:m])
        assert np.array_equal(sub.primes, ref[:m])


def test_term_sum_over_decoded_blocks_keeps_its_bits(reference_tables):
    table, ref = reference_tables[10 ** 7]

    def term(blk):
        return blk.lp / (blk.pp - blk.pf)

    head = ref[:1]
    assert _sum.term_sum(term, table.blocks(2)) == \
        _sum.term_sum(term, [ref[2:]])
    assert _sum.term_sum(term, itertools.chain((head,), table.blocks(2))) \
        == _sum.term_sum(term, [np.concatenate((head, ref[2:]))])


_INDEX_TABLE = primes.sieve_primes(10 ** 6)
_INDEX_REF = _INDEX_TABLE.primes.astype(object)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(min_value=-5, max_value=10 ** 6 + 5),
                 st.integers(min_value=-2 ** 70, max_value=2 ** 70)),
       st.sampled_from(["left", "right"]),
       st.sampled_from([len(_INDEX_TABLE), 1, 2, 3, 1025, 40_000]))
def test_table_index_is_searchsorted_on_the_primes(x, side, n):
    # keys inside the table, on its primes and past int64 either way
    table = _INDEX_TABLE.take(n)
    want = int(np.searchsorted(_INDEX_REF[:n], x, side))
    assert table.index(x, side) == want


def test_the_encoder_refuses_a_half_gap_past_a_byte():
    # j = 1, 2, 257: the steps 0, 1 and 255 fit; 258 makes one of 256
    table = primes._encode(600, [np.array([1, 2, 257])])
    assert table.primes.tolist() == [2, 3, 5, 515]
    with pytest.raises(ResourceError, match="one byte"):
        primes._encode(600, [np.array([1, 2, 258])])
    with pytest.raises(ResourceError, match="one byte"):
        primes._encode(10 ** 6, [np.array([1, 2, 3]), np.array([259])])


def test_a_table_holds_at_most_one_and_a_quarter_bytes_per_prime():
    # steps at their Rosser-Schoenfeld size plus the anchors, where the
    # decoded primes take 8 bytes each, 46 MB at 10^8
    table = primes.sieve_primes(10 ** 8)
    assert len(table) == 5761455
    assert table.nbytes <= 1.25 * len(table)
    assert table.nbytes <= 7.5e6


@pytest.mark.parametrize("a, b", [(1, 3), (1, 4), (3, 4)])
def test_a_streamed_class_sums_as_its_array(a, b):
    # the class blocks are cut from the class primes, as from the array:
    # class sizes about CHUNK and 2 CHUNK, from 2 and from 5 on
    big = primes.sieve_primes(6 * 10 ** 6)
    ref = big.primes
    cls = ref[ref % b == a % b]

    def term(blk):
        return blk.lp * (1.0 / blk.pf - 1e-7)

    for size in (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3):
        table = big.take(int(np.searchsorted(ref, cls[size - 1])) + 1)
        assert np.array_equal(_class(table, a, b), cls[:size])
        for p_min in (2, 5):
            start = table.index(p_min)
            got = _sum.term_sum(term, table.residue_blocks(a, b, start))
            want = cls[:size][np.searchsorted(cls[:size], p_min):]
            assert got == _sum.term_sum(term, [want])
            sizes = [blk.size for blk in table.residue_blocks(a, b, start)]
            assert sizes[:-1] == [CHUNK] * (len(sizes) - 1)
