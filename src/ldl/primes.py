"""Prime generation, Legendre symbols, Chebyshev-theta error integrals and
the prime-counting constants they feed.

The central objects are gamma_pnt and its arithmetic-progression relatives
gamma_pnt_ab: the constants appearing next to phihat(0)/log R whenever a
compactly supported test function is summed against the primes.  Each has a
slowly-converging "direct" definition through the theta error integral

    1 + int_1^X E(t)/t^2 dt,      E(t) = theta(t) - t,

and a fast closed form; both are exposed and cross-checked.  The integral is
evaluated exactly (theta is a step function), never by quadrature.

A PrimeTable holds one byte per prime: the half-gaps between consecutive
primes, with the exact prime every _ANCHOR_STRIDE = 256 indices (see
PrimeTable).  The large sums over a table (these constants, the catalog
constants, the explicit formula's pass and rank_bias) decode it one CHUNK
block of int64 primes at a time, so none holds an array of its length.
"""

from __future__ import annotations

import bisect
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._sum import CHUNK, Block, chunks, term_sum
from .errors import DomainError, ResourceError, integer

#: a resource cap: a table to it takes 6.3-6.5 s and a 142 MB peak
#: (README), and every gap below it is at most 288, so its half-gaps fit
#: one byte
HARD_SIEVE_CAP = 2 ** 31 - 1
#: pi(HARD_SIEVE_CAP): first_n_primes refuses a longer table
PRIMES_BELOW_CAP = 105_097_565
#: tables up to this limit come from the plain sieve
_SMALL_LIMIT = 1 << 16
#: the wheel sieve's one window, one byte per odd number: 1 MiB, so it
#: stays in a 2 MiB L2 cache while it is cleared and collected
_WINDOW = 1 << 20
#: base primes below this, with more than 128 multiples in a window, clear
#: them by one slice each, which bounds the Python loop (1.05e6 slices at
#: the sieve cap); the larger ones clear theirs all together, by one
#: fancy-index assignment per window
_WINDOWED_BELOW = _WINDOW >> 7
#: the wheel primes; their multiples are cleared by copying the pattern
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL_SPAN = math.prod(_WHEEL_PRIMES)
#: a table holds the exact prime at every index that is a multiple of
#: this, so a block decodes from at most this many half-gaps before it
_ANCHOR_STRIDE = 1 << 8


# --------------------------------------------------------------------------
# sieving

def _simple_sieve(limit: int) -> np.ndarray:
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if mask[i]:
            mask[i * i::i] = False
    return np.flatnonzero(mask)


class PrimeTable:
    """The ascending primes up to an inclusive bound limit (at most
    HARD_SIEVE_CAP), one byte each.

    With j = floor(p / 2), so that p = 2j + 1 for every odd prime (the
    sieve's mask index), the table holds the uint8 steps of j from 0: 1
    for p_0 = 2 and 0 for p_1 = 3 (both have j = 1), then the half-gaps
    (p_i - p_(i-1)) / 2.  Beside them it holds, as int64 anchors, the
    exact prime at every index that is a multiple of _ANCHOR_STRIDE.
    decode rebuilds any run of primes as int64 by one cumulative sum of
    the steps from the anchor at or below it, which is what a
    _sum.Block holds.  A byte holds every half-gap below the cap: the
    largest gap below 2^31 is 288, after 1,453,168,141, and the first gap
    past 510 comes only after 3e11 (Oliveira e Silva, Herzog and Pardi,
    Math. Comp. 83, 2014).

    Large sums read the table one CHUNK block at a time (blocks,
    residue_blocks); primes decodes it whole, for tests and small
    callers."""

    def __init__(self, limit: int, steps: np.ndarray, anchors: np.ndarray):
        self.limit, self._steps, self._anchors = limit, steps, anchors

    def __len__(self) -> int:
        return int(self._steps.size)

    @property
    def nbytes(self) -> int:
        """The bytes of the buffers the table holds: the whole allocation
        of its steps and its anchors, shared with a sub-table or not."""
        return sum((a if a.base is None else a.base).nbytes
                   for a in (self._steps, self._anchors))

    def decode(self, start: int, stop: int | None = None) -> np.ndarray:
        """The primes of indices start .. stop - 1 (by default to the end)
        as a new int64 array (or a view of one)."""
        stop = len(self) if stop is None else stop
        if start >= stop:
            return np.empty(0, dtype=np.int64)
        lo = start - start % _ANCHOR_STRIDE
        p = self._steps[lo:stop].astype(np.int64)
        p *= 2
        p[0] = self._anchors[lo // _ANCHOR_STRIDE] | 1    # 2j + 1, 3 for 2
        np.add.accumulate(p, out=p)
        if lo == 0:
            p[0] = 2
        return p[start - lo:]

    def blocks(self, start: int = 0, stop: int | None = None):
        """decode over the indices start .. stop - 1 in consecutive
        blocks of CHUNK primes, the last possibly shorter."""
        stop = len(self) if stop is None else stop
        for lo in range(start, stop, CHUNK):
            yield self.decode(lo, min(lo + CHUNK, stop))

    def residue_blocks(self, a: int, b: int, start: int = 0,
                       stop: int | None = None):
        """The primes p = a mod b among the indices start .. stop - 1, in
        consecutive CHUNK blocks of them, the last possibly shorter:
        filtered out of the decoded blocks one at a time, so no class
        array and no table-length mask is built.  DomainError for a
        modulus b that is not an integer >= 1."""
        if integer(b, "the modulus") < 1:
            raise DomainError(f"the modulus must be >= 1, got {b}")
        return chunks(blk[Block(blk).mod(b) == a % b]
                      for blk in self.blocks(start, stop))

    def index(self, x: int, side: str = "left") -> int:
        """np.searchsorted(self.primes, x, side) for any int x, from the
        anchors and one decoded stride."""
        if x < 2 or x > HARD_SIEVE_CAP:       # past int64 too
            return 0 if x < 2 else len(self)
        k = int(self._anchors.searchsorted(x, side))
        lo = max(k - 1, 0) * _ANCHOR_STRIDE
        stride = self.decode(lo, min(lo + _ANCHOR_STRIDE, len(self)))
        return lo + int(stride.searchsorted(x, side))

    @property
    def last(self) -> int:
        """The largest prime of the table."""
        return int(self.decode(len(self) - 1)[0])

    def take(self, n: int, limit: int | None = None) -> PrimeTable:
        """The first n >= 1 primes, on this table's buffers, as the table
        to limit (by default their largest prime)."""
        table = PrimeTable(limit, self._steps[:n],
                           self._anchors[:-(-n // _ANCHOR_STRIDE)])
        if limit is None:
            table.limit = table.last
        return table

    @property
    def primes(self) -> np.ndarray:
        """The table decoded whole, as a new int64 array."""
        return self.decode(0)


def _encode(limit: int, odd_j) -> PrimeTable:
    """The table to limit of 2 and the odd primes 2j + 1, for the
    ascending int j of each array that odd_j yields in turn.  Its steps
    are sized by Rosser-Schoenfeld, pi(x) < 1.25506 x / log x, and its
    anchors by the steps; both are returned as slices.  ResourceError for
    a half-gap past 255."""
    steps = np.empty(int(1.25506 * limit / math.log(limit)) + 2,
                     dtype=np.uint8)
    anchors = np.empty(steps.size // _ANCHOR_STRIDE + 1, dtype=np.int64)
    steps[0], anchors[0] = 1, 2               # j = 1 for p_0 = 2
    count, prev = 1, 1
    for j in odd_j:
        if not j.size:
            continue
        out = steps[count:count + j.size]
        np.subtract(j[:1], prev, out=out[:1], casting="unsafe")
        np.subtract(j[1:], j[:-1], out=out[1:], casting="unsafe")
        # a step past 255 wraps, which takes a multiple of 256 off the sum
        if int(out.sum(dtype=np.int64)) != int(j[-1]) - prev:
            raise ResourceError("a prime gap past 510 does not fit the "
                                "table's one byte per prime")
        first = -count % _ANCHOR_STRIDE       # its first anchor, less count
        at = j[first::_ANCHOR_STRIDE]
        k = (count + first) // _ANCHOR_STRIDE
        anchors[k:k + at.size] = 2 * at + 1
        count += j.size
        prev = int(j[-1])
    return PrimeTable(limit, steps[:count],
                      anchors[:-(-count // _ANCHOR_STRIDE)])


def _clear(win: np.ndarray, lo: int, base: list, nxt: list) -> None:
    """Clear from win, the mask indices lo .. lo + win.size - 1, the odd
    multiples of each base prime, from its saved index in nxt, and
    advance each saved index to its first multiple past win."""
    hi = lo + win.size
    for i, q in enumerate(base):
        j = nxt[i]
        if j < hi:
            win[j - lo::q] = False
            nxt[i] = j - (j - hi) // q * q    # the first multiple >= hi


def _clear_together(win: np.ndarray, lo: int, base: np.ndarray,
                    nxt: np.ndarray) -> None:
    """_clear for int64 arrays of base primes and their saved indices, by
    one fancy-index assignment.  Its indices are the cumulative sum of
    np.repeat of the primes, one run of steps per prime, where each run's
    first step goes from the previous run's last index to the run's own
    first one."""
    hi = lo + win.size
    runs = np.maximum(-((nxt - hi) // base), 0)   # the multiples below hi
    on = runs > 0
    step, runs, start = base[on], runs[on], nxt[on] - lo
    nxt[on] += runs * step
    if runs.size:
        steps = np.repeat(step, runs)
        last = start + (runs - 1) * step
        steps[np.cumsum(runs) - runs] = start - np.append(0, last[:-1])
        win[np.cumsum(steps)] = False


def _wheel_sieve(limit: int):
    """The mask indices j of the odd primes 2j + 1 <= limit, one ascending
    int64 array per window, by an odd-only segmented sieve of Eratosthenes
    with a 3*5*7*11*13 wheel (Bays & Hudson, BIT 17, 1977).

    The one mask is a window of _WINDOW odd numbers, 1 MiB, sieved and
    collected in turn.  Each window starts as the wheel pattern, which is
    periodic in j with period _WHEEL_SPAN, so it is filled from a two-span
    pattern by doubling slice copies.  The base primes q > 13 then clear
    their odd multiples from q^2 on, each resuming at the multiple saved
    from the previous window: those below _WINDOWED_BELOW one slice each,
    the larger ones all together (_clear_together)."""
    odds = (limit + 1) // 2                   # the odd numbers 1 .. limit
    pattern = np.gcd(np.arange(1, 4 * _WHEEL_SPAN, 2), _WHEEL_SPAN) == 1
    base = [int(q) for q in _simple_sieve(math.isqrt(limit))
            if q > _WHEEL_PRIMES[-1]]
    small = bisect.bisect_left(base, _WINDOWED_BELOW)
    base, large = base[:small], np.array(base[small:], dtype=np.int64)
    nxt = [(q * q) // 2 for q in base]        # index of q^2
    large_nxt = large * large // 2
    mask = np.empty(min(odds, _WINDOW), dtype=bool)
    for lo in range(0, odds, mask.size):
        win = mask[:min(mask.size, odds - lo)]
        first = min(_WHEEL_SPAN, win.size)
        offset = lo % _WHEEL_SPAN
        win[:first] = pattern[offset:offset + first]
        filled = first
        while filled < win.size:
            step = min(filled, win.size - filled)
            win[filled:filled + step] = win[:step]
            filled += step
        if lo == 0:
            win[0] = False                    # 1
            win[[q // 2 for q in _WHEEL_PRIMES]] = True
        _clear(win, lo, base, nxt)
        _clear_together(win, lo, large, large_nxt)
        idx = np.flatnonzero(win)
        idx += lo
        yield idx


def sieve_primes(limit: int) -> PrimeTable:
    """All primes <= limit; past 2^16 by the segmented wheel sieve, whose
    windows are encoded into the table one at a time, so the sieve holds
    one 1 MiB window and its indices beside the table.  DomainError for a
    limit that is not an integer, ResourceError past HARD_SIEVE_CAP, both
    before anything is allocated."""
    limit = integer(limit, "sieve limit")
    if limit < 2:
        raise DomainError(f"sieve limit {limit} yields an empty table")
    if limit > HARD_SIEVE_CAP:
        raise ResourceError(
            f"sieve limit {limit} exceeds the configured cap {HARD_SIEVE_CAP}")
    if limit <= _SMALL_LIMIT:
        return _encode(limit, [_simple_sieve(limit)[1:] // 2])
    return _encode(limit, _wheel_sieve(limit))


_TABLE_CACHE: PrimeTable | None = None


def get_table(limit: int) -> PrimeTable:
    """Grow-only cached table, reusing the largest sieve; limit >= 2, an
    integer whatever the cache holds."""
    global _TABLE_CACHE
    limit = integer(limit, "sieve limit")
    if _TABLE_CACHE is None or not 2 <= limit <= _TABLE_CACHE.limit:
        _TABLE_CACHE = sieve_primes(limit)
    if _TABLE_CACHE.limit == limit:
        return _TABLE_CACHE
    return _TABLE_CACHE.take(_TABLE_CACHE.index(limit, "right"), limit)


def nth_prime_limit(n: int) -> int:
    """An upper bound for the n-th prime: p_n < n (log n + log log n) for
    n >= 6 (Rosser-Schoenfeld), tightened by 0.9484 n for n >= 39017
    (Dusart, Math. Comp. 68, 1999)."""
    if n < 6:
        return 13
    x = float(n)
    shift = 0.9484 if n >= 39017 else 0.0
    return int(x * (math.log(x) + math.log(math.log(x)) - shift)) + 10


def first_n_primes(n: int) -> PrimeTable:
    """The first n primes; DomainError for a non-integer n or n < 1,
    ResourceError past PRIMES_BELOW_CAP, before anything is allocated."""
    n = integer(n, "the prime count")
    if n < 1:
        raise DomainError(f"the prime count must be >= 1, got {n}")
    if n > PRIMES_BELOW_CAP:
        raise ResourceError(
            f"prime count {n} exceeds the {PRIMES_BELOW_CAP} primes below "
            f"the configured cap {HARD_SIEVE_CAP}")
    # the bound is proven; at the cap, the table holds PRIMES_BELOW_CAP
    return get_table(min(nth_prime_limit(n), HARD_SIEVE_CAP)).take(n)


# --------------------------------------------------------------------------
# primality / symbols

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)  # first 13


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first 13 primes as bases: deterministic below
    psi_13 = 3317044064679887385961981, the least strong pseudoprime to
    all of them (Sorenson & Webster, Math. Comp. 86, 2017), and a strong
    probable-prime test past it.  DomainError for an n that is not an
    integer."""
    n = integer(n, "n")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre_symbol(a: int, p: int) -> int:
    """(a/p) for an odd prime p: 0 if p|a, +1 for nonzero squares, -1
    otherwise; the Jacobi symbol, which equals it there.  DomainError for
    any other p."""
    if integer(p, "p") == 2 or not is_prime(p):
        raise DomainError(f"legendre_symbol needs an odd prime, got {p}")
    return jacobi_symbol(a, p)


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1."""
    a, n = integer(a, "a"), integer(n, "n")
    if n <= 0 or n % 2 == 0:
        raise DomainError(f"jacobi_symbol needs odd positive n, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def legendre_symbols_vec(a: np.ndarray, p: int) -> np.ndarray:
    """(a_i/p) for an int array, via one squares table mod p."""
    squares = np.zeros(p, dtype=np.int8)
    x = np.arange(p, dtype=np.int64)
    squares[(x * x) % p] = 1
    r = a % p
    out = np.where(squares[r] == 1, 1, -1).astype(np.int8)
    out[r == 0] = 0
    return out


#: real characters as tables indexed by p mod q: (2/p) mod 8, (3/p) mod 12
#: and (-3/p) mod 3
CHI_2 = (0, 1, 0, -1, 0, -1, 0, 1)
CHI_3 = (0, 1, 0, 0, 0, -1, 0, -1, 0, 0, 0, 1)
CHI_M3 = (0, 1, -1)


# --------------------------------------------------------------------------
# theta error integrals

#: the largest modulus theta_error_integral takes: phi(b) comes from trial
#: division up to sqrt(b), at most 5e5 divisors
MODULUS_LIMIT = 10 ** 12


def _totient(b: int) -> int:
    """Euler's phi(b) for an int b >= 1, from the prime factors of b,
    found by trial division up to sqrt(b)."""
    phi, d = b, 2
    while d * d <= b:
        if b % d == 0:
            phi -= phi // d
            while b % d == 0:
                b //= d
        d += 1 if d == 2 else 2
    return phi - phi // b if b > 1 else phi


def theta_error_integral(cls, upper_limit: float,
                         table: PrimeTable | None = None) -> float:
    """int_1^X E(t)/t^2 dt, exactly, for E = theta - t or its AP analogue.

    theta is a step function, so integrating by parts over each step gives
    the finite closed form  sum_{p<=X} log p (1/p - 1/X) - log X / phi(b)
    (phi(b) = 1 in the all-primes case).  DomainError for a cls not
    "all" or an integer pair (a, b), a modulus b below 1, or an X not a
    finite real >= 2; ResourceError for b past MODULUS_LIMIT.  Both come
    before any table.
    """
    if not (isinstance(cls, (tuple, list)) and len(cls) == 2
            or cls == "all"):
        raise DomainError(f"cls must be 'all' or a pair (a, b), got {cls!r}")
    if not (isinstance(upper_limit, numbers.Real)
            and 2 <= upper_limit < math.inf):
        raise DomainError(
            f"upper_limit must be finite and >= 2, got {upper_limit!r}")
    if cls != "all":
        a, b = integer(cls[0], "the residue"), integer(cls[1], "the modulus")
        if b < 1:
            raise DomainError(f"the modulus must be >= 1, got {b}")
        if b > MODULUS_LIMIT:
            raise ResourceError(f"the modulus {b} is past the limit "
                                f"{MODULUS_LIMIT}")
    top = math.floor(upper_limit)             # the primes <= X are <= floor X
    if table is None:
        table = get_table(top)
    if table.limit < top:
        raise DomainError(
            f"prime table (limit {table.limit}) does not cover X={upper_limit}")
    stop = table.index(top, "right")
    if cls == "all":
        primes, phib = table.blocks(0, stop), 1
    else:
        primes, phib = table.residue_blocks(a, b, 0, stop), _totient(b)

    def term(blk):
        return blk.lp * (1.0 / blk.pf - 1.0 / upper_limit)

    s = term_sum(term, primes)
    return s - math.log(upper_limit) / phib


@dataclass
class ConstantResult:
    """A named prime-sum constant with full truncation provenance."""

    name: str
    value: float
    truncation_kind: str  # "prime_limit" or "prime_count"
    truncation: int
    tail_bound: float
    method: str  # "direct_sum" | "closed_form" | "integral"

    def as_dict(self) -> dict:
        return {
            "name": self.name, "value": self.value,
            "truncation_kind": self.truncation_kind,
            "truncation": self.truncation,
            "tail_bound": self.tail_bound, "method": self.method,
        }


def _resolve_truncation(prime_limit: int | None, first_primes: int | None,
                        default_limit: int | None = None,
                        default_count: int | None = None) -> tuple:
    """(table, kind, truncation): the first first_primes primes, or those
    up to prime_limit, else the first default_count, else to default_limit."""
    if prime_limit is not None and first_primes is not None:
        raise DomainError("specify prime_limit or first_primes, not both")
    if prime_limit is None and first_primes is None:
        first_primes = default_count
    if first_primes is not None:
        table = first_n_primes(first_primes)
        return table, "prime_count", first_primes
    limit = prime_limit if prime_limit is not None else default_limit
    return get_table(limit), "prime_limit", limit


#: the constants of the closed forms below and of constants' gamma_23 to
#: 30 significant digits, as strings (tests/test_primes.py checks every
#: digit against mpmath), and their double roundings
LITERALS_30 = {
    "euler_gamma": "0.577215664901532860606512090082",
    "log_2pi": "1.83787706640934548356065947281",
    "log_3": "1.09861228866810969139524523692",
    "gamma_one_third": "2.67893853470774763365569294097",
    "gamma_one_fourth": "3.62560990822190831193068515587",
}
EULER_GAMMA, LOG_2PI, LOG_3, GAMMA_ONE_THIRD, GAMMA_ONE_FOURTH = map(
    float, LITERALS_30.values())


def gamma_pnt(method: str = "closed_form", prime_limit: int | None = None,
              first_primes: int | None = None) -> ConstantResult:
    """The constant gamma_PNT = 1 + int_1^inf E(t)/t^2 dt = -gamma_Euler -
    sum_p log p/(p^2 - p)."""
    if method not in ("closed_form", "integral"):    # before any table
        raise DomainError(f"unknown method {method!r}")
    table, kind, trunc = _resolve_truncation(prime_limit, first_primes, 10 ** 8)
    if len(table) < 10 ** 4:
        raise DomainError("truncation must cover at least 1e4 primes")
    X = float(table.last)
    if method == "closed_form":
        def term(blk):
            return blk.lp / (blk.pp - blk.pf)

        value = -EULER_GAMMA - term_sum(term, table.blocks())
        tail = math.log(X) / X
    else:
        value = 1.0 + theta_error_integral("all", X, table)
        # unconditional-ish fluctuation estimate for the dropped tail
        tail = 4.0 * math.log(X) ** 2 / math.sqrt(X)
    return ConstantResult("gamma_pnt", value, kind, trunc, tail, method)


_AB_CLOSED = {
    (1, 3): lambda: (-2 * EULER_GAMMA - 4 * LOG_2PI + LOG_3
                     + 6 * math.log(GAMMA_ONE_THIRD)),
    (1, 4): lambda: (-2 * EULER_GAMMA - 3 * LOG_2PI
                     + 4 * math.log(GAMMA_ONE_FOURTH)),
}


def gamma_pnt_ab(a: int, b: int, method: str = "closed_form",
                 prime_limit: int | None = None,
                 first_primes: int | None = None) -> ConstantResult:
    """gamma_PNT;a,b = 1 + int_1^inf 2 E_{a,b}(t)/t^2 dt for the progression
    p = a mod b, with the transcendental closed form for (1,3) and (1,4)."""
    if (a, b) not in _AB_CLOSED:
        raise DomainError(f"unsupported progression ({a},{b})")
    if method not in ("closed_form", "integral"):
        raise DomainError(f"unknown method {method!r}")
    table, kind, trunc = _resolve_truncation(
        prime_limit, first_primes, 67_867_979)  # the 4,000,001st prime
    X = float(table.last)
    name = f"gamma_pnt_{a}{b}"
    if method == "closed_form":
        # transcendental part minus 2 sum over the primes prime to b of
        # log p/(p^2 - p^delta), delta = 1 iff p = 1 mod b
        # the primes dividing b are at most b: the others up to b are the
        # head of the sum, followed by the table past b, which chunks cuts
        # as the joined primes
        cut = table.index(b, "right")
        small = table.decode(0, cut)
        head = small[b % small != 0]

        def term(blk):
            return blk.lp / np.where(blk.mod(b) == 1, blk.pp - blk.pf,
                                     blk.pp - 1.0)

        value = _AB_CLOSED[(a, b)]() - 2.0 * term_sum(
            term, itertools.chain((head,), table.blocks(cut)))
        tail = 2 * math.log(X) / X
    else:
        value = 1.0 + 2.0 * theta_error_integral((a, b), X, table)
        tail = 8.0 * math.log(X) ** 2 / math.sqrt(X)
    return ConstantResult(name, value, kind, trunc, tail, method)

