"""Test functions and numerical assembly of the prime-sum decomposition.

The central object is ``evaluate_S``: given a family, an even test-function
pair (phi, phihat) with phihat supported in [-sigma, sigma], and a scaling
R, it evaluates the five prime-sum pieces

    S = S_A' + S_0 + S_1 + S_2 + S_Atilde

term for term, splitting each piece into its main part (H = 1) and its
sieve part (H_sieve weight).  As log R grows the total approaches
phi(0)*(1/2 + rank) plus c * 2*phihat(0)/log R; the residual decays like
log^-2 R for smooth test functions with vanishing phihat'(0+).

``lower_order_limit`` derives c piece by piece from the same moment terms,
without evaluating S: each phihat-weighted density splits into a
prime-number-theorem part, which contributes gamma_pnt (or gamma_pnt_13),
and an absolutely convergent remainder.  That limit is the *derived*
aggregate of ``constants.aggregate_lower_order(..., source="derived")``.
For the cusp model and the CM families its S_0, S_1, S_2 and S_A' pieces
agree with those assembled from the cited constants; for the non-CM family
it is about -2.542, while the printed total -2.703 is off by the gap in the
S_0, S_1 and S_2 pieces built from gamma_0_3, gamma_1_3 and gamma_2_3 (see
the constants module notes).

Both sum over the primes in _prime_pass and read the family off one entry:
families.entry_of's for a family, CUSP_MODEL (the idealized cusp-form
average) for "cusp_model"; an entry has moments, `moment_law`, `lead`,
`rank` and `cap`.  S_0, S_1, S_2 and S_A' depend on the family only
through its moments, so _prime_pass keeps the sums of each pass in one
memo of at most PASS_MEMO_SIZE passes, keyed by (moment law, prime_limit,
terms key, worker count), the terms key (pair, log R) for evaluate_S and
("limit", lead) for lower_order_limit.  A pair is a value, its kind and
its exact sigma, so two pairs built apart but equal share their passes.
The eight sextic twists share one pass, which sums the sieve part at both
of their exponents, k = 3 and k = 6, and a repeated call runs none;
S_Atilde stays the family's own, from the constants module's cache.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
import threading
import warnings
from collections import defaultdict, namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import constants, families
from ._sum import Block, block_sums, thread_count
from .errors import DomainError, IncompleteSumError, integer
from .primes import first_n_primes, gamma_pnt, gamma_pnt_ab, get_table

#: hard cap on the automatically chosen prime truncation
DEFAULT_PRIME_CAP = 10 ** 9

#: cubic-moment truncation (first primes) of the reference tabulations
ATILDE_PRIMES = 5000

_LOG_FLOAT_MAX = math.log(sys.float_info.max)      # e^x overflows past it

# flat-top fraction of the raised-cosine pair
_RC_FLAT = 0.8


# --------------------------------------------------------------------------
# test-function pairs

@dataclass(frozen=True)
class TestFunctionPair:
    """An even test function phi with phihat(0) = 1 and phihat supported in
    [-sigma, sigma]: a value, one subclass per kind; two pairs are equal,
    and hash alike, iff their kinds and exact float sigmas agree."""
    sigma: float
    phihat0 = 1.0

    @property
    def name(self) -> str:
        return f"{self.kind}:{self.sigma:g}"


class _Fejer(TestFunctionPair):
    kind = "fejer"
    phi0 = property(lambda self: self.sigma)

    def eval_phihat(self, u):
        u = np.asarray(u, dtype=np.float64)
        return np.maximum(1.0 - np.abs(u) / self.sigma, 0.0)

    def eval_phi(self, x):
        x = np.asarray(x, dtype=np.float64)
        return self.sigma * np.sinc(self.sigma * x) ** 2


class _Gaussian(TestFunctionPair):
    """phihat = exp(-u^2/2w^2) on |u| < sigma, w = sigma/4; phi by
    Simpson's rule on 4096 intervals, so phi and phi0 are estimates."""
    kind = "gaussian"
    phi0 = property(lambda self: 2.0 * float(self._simpson()[1].sum()))

    def eval_phihat(self, u):
        s, w = self.sigma, self.sigma / 4.0
        u = np.asarray(u, dtype=np.float64)
        return np.where(np.abs(u) < s, np.exp(-u * u / (2 * w * w)), 0.0)

    def _simpson(self):
        """The nodes of [0, sigma] and phihat times their Simpson weights."""
        s, w, n = self.sigma, self.sigma / 4.0, 4096
        grid = np.linspace(0.0, s, n + 1)
        weights = np.full(n + 1, 2.0)
        weights[1::2] = 4.0
        weights[0] = weights[-1] = 1.0
        weights *= (s / n) / 3.0
        return grid, np.exp(-grid * grid / (2 * w * w)) * weights

    def eval_phi(self, x):
        # phi(x) = 2 int_0^s exp(-u^2/2w^2) cos(2 pi u x) du, in x's shape
        x = np.asarray(x, dtype=np.float64)
        grid, gvals = self._simpson()
        out = 2.0 * (np.cos(2 * math.pi * np.outer(x, grid)) @ gvals)
        return out.reshape(x.shape)


class _Indicator(TestFunctionPair):
    """Raised-cosine flat-top: phihat = 1 on |u| <= 0.8 s, cosine roll-off
    to zero at |u| = s; phi has the classic sinc * raised-cosine closed
    form."""
    kind = "indicator"
    phi0 = property(lambda self: self.sigma * (1 + _RC_FLAT))

    def eval_phihat(self, u):
        s, a = self.sigma, _RC_FLAT
        u = np.asarray(u, dtype=np.float64)
        if u.ndim == 1 and u.size and u[0] >= 0 and (u[:-1] <= u[1:]).all():
            # ascending from 0 on, as k log p / L over a block: the flat
            # part and the roll-off band a s < u < s are two cuts
            flat = u.searchsorted(a * s, "right")
            band = slice(flat, u.searchsorted(s, "left"))
            out = np.zeros(u.size)
            out[:flat] = 1.0
        else:
            u = np.abs(u)
            out = np.where(u <= a * s, 1.0, 0.0)
            # the cosine only on the roll-off band a s < |u| < s, as a
            # slice where the band is one run
            band = (u > a * s) & (u < s)
            run = np.flatnonzero(band)
            if u.ndim == 1 and run.size and run[-1] - run[0] < run.size:
                band = slice(run[0], run[-1] + 1)
        out[band] = 0.5 * (1.0 + np.cos(math.pi * (u[band] - a * s)
                                        / ((1 - a) * s)))
        return out

    def eval_phi(self, x):
        s, a = self.sigma, _RC_FLAT
        x = np.asarray(x, dtype=np.float64)
        z = 2.0 * s * (1 - a) * x
        denom = 1.0 - z * z
        core = s * (1 + a) * np.sinc(s * (1 + a) * x)
        safe = np.where(np.abs(denom) < 1e-10, 1.0, denom)
        val = core * np.cos(math.pi * s * (1 - a) * x) / safe
        # removable singularity at |2 s (1-a) x| = 1: limit is (pi/4) core
        return np.where(np.abs(denom) < 1e-10, core * math.pi / 4.0, val)


_PAIR_KINDS = {cls.kind: cls for cls in (_Fejer, _Gaussian, _Indicator)}
_PAIR_ALIASES = {"fejer_sigma": "fejer", "gaussian_truncated": "gaussian",
                 "indicator_smooth": "indicator"}


def builtin_test_pair(name: str, sigma: float | None = None
                      ) -> TestFunctionPair:
    """Construct a built-in pair; `name` may embed the support radius as
    "fejer:0.9" or "fejer_sigma(0.9)", or pass `sigma` separately, a real
    number in (0, 4]; an alias names its kind's pair."""
    key = name
    if sigma is None:
        if ":" in name:
            key, _, tail = name.partition(":")
        elif name.endswith(")") and "(" in name:
            key, _, tail = name[:-1].partition("(")
        else:
            raise DomainError(f"no support radius given in {name!r}")
        try:
            sigma = float(tail)
        except ValueError:
            raise DomainError(
                f"cannot parse support radius from {name!r}") from None
    kind = _PAIR_ALIASES.get(key, key)
    if kind not in _PAIR_KINDS:
        raise DomainError(f"unknown test-function pair {key!r}; known: "
                          f"{sorted([*_PAIR_KINDS, *_PAIR_ALIASES])}")
    if not (isinstance(sigma, numbers.Real) and 0 < sigma <= 4):
        raise DomainError("support radius must be a number in (0, 4]")
    return _PAIR_KINDS[kind](float(sigma))


# --------------------------------------------------------------------------
# digamma and the conductor term

def digamma(x: float) -> float:
    """psi(x) for a finite x > 0 by recurrence + asymptotic series (12+
    digits)."""
    if not 0 < x < math.inf:
        raise DomainError("digamma implemented for finite x > 0 only")
    acc = 0.0
    while x < 12.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = (1.0 / 12 - inv2 * (1.0 / 120 - inv2 * (1.0 / 252 - inv2 * (
        1.0 / 240 - inv2 * (1.0 / 132 - inv2 * 691.0 / 32760)))))
    return acc + math.log(x) - 0.5 / x - series * inv2


def conductor_weight(k: int) -> float:
    """A(k) = psi(k/4) + psi((k+2)/4) - 2 log pi."""
    if k < 2 or k % 2 != 0:
        raise DomainError("weight k must be an even integer >= 2")
    return digamma(k / 4.0) + digamma((k + 2) / 4.0) - 2.0 * math.log(math.pi)


def conductor_term(k: int, N: float, R: float,
                   phi: TestFunctionPair) -> float:
    """phihat(0) (log N + A(k)) / log R."""
    if not (0 < N < math.inf and 1 < R < math.inf):
        raise DomainError("need finite N > 0 and R > 1")
    return phi.phihat0 * (math.log(N) + conductor_weight(k)) / math.log(R)


# --------------------------------------------------------------------------
# geometric-series remainder (the m >= 3 tail for a single form)

def _check_lam_p(lam: float, p: int) -> None:
    if not abs(lam) <= 2:
        raise DomainError("|lambda| must be finite and <= 2")
    if integer(p, "p") < 2:
        raise DomainError("p must be >= 2")


def m3_remainder(lam: float, p: int) -> float:
    """Closed form of sum_{m>=3} [(alpha/sqrt p)^m + (beta/sqrt p)^m] with
    alpha+beta = lam*sqrt(p), alpha*beta = p, for a finite |lam| <= 2 and
    an integer p >= 2."""
    _check_lam_p(lam, p)
    sp = math.sqrt(p)
    return (lam ** 3 * sp - lam ** 2 - 3 * lam * sp + 2) / \
        (p * (p + 1 - lam * sp))


def m3_direct(lam: float, p: int, terms: int = 60) -> float:
    """Direct summation oracle companion: the normalized power sums
    y_m = (alpha^m + beta^m)/p^{m/2} satisfy y_m = lam y_{m-1} - y_{m-2}
    with y_0 = 2, y_1 = lam; the remainder is sum_{m=3}^{terms} y_m /
    p^{m/2}, for an integer terms >= 3 and (lam, p) as m3_remainder."""
    _check_lam_p(lam, p)
    if integer(terms, "terms") < 3:
        raise DomainError("terms must be >= 3")
    y0, y1 = 2.0, lam
    total = 0.0
    for m in range(2, terms + 1):
        y0, y1 = y1, lam * y1 - y0
        if m >= 3:
            total += y1 / p ** (m / 2.0)
    return total


# --------------------------------------------------------------------------
# random-matrix predictions

_RMT_ORTHOGONAL = {"SO_even", "SO_odd", "O"}


def rmt_prediction(symmetry: str, phi: TestFunctionPair) -> float:
    """One-level-density prediction for phihat supported in (-1, 1)."""
    if phi.sigma >= 1:
        warnings.warn("support radius >= 1: the symmetry-type predictions "
                      "differ outside (-1, 1)", stacklevel=2)
    if symmetry == "U":
        return phi.phihat0
    if symmetry == "USp":
        return phi.phihat0 - 0.5 * phi.phi0
    if symmetry in _RMT_ORTHOGONAL:
        return phi.phihat0 + 0.5 * phi.phi0
    raise DomainError(f"unknown symmetry class {symmetry!r}")


# --------------------------------------------------------------------------
# the cusp-form model

# Every entry carries `lead`: for the densities A_0/p^2, A_1/p^2 and A_2/p^3
# the pairs (a, b) with density = (a + b*[p = 1 mod 3])/p + O(1/p^2), or
# None where the leading behaviour needs other progressions;
# lower_order_limit splits on it.

class _CuspModel:
    """Idealized constant-moment model for the weight-k cusp-form average:
    A_0 = p (all residues good), A_1 = 0, A_2 = p^2 (unit second moment),
    Atilde*p^{3/2} = 2p+1, no bad primes, no sieving.  Its sums run over
    every prime."""

    name, rank, cap = "cusp_model", 0, math.inf
    lead = ((1.0, 0.0), (0.0, 0.0), (1.0, 0.0))
    moment_law = property(lambda self: self)

    atilde_terms = staticmethod(constants.st_atilde_terms)

    def moments(self, blk):
        return blk.pf, None, blk.pp, None, None


CUSP_MODEL = _CuspModel()


def _entry(fam):
    """The entry of a family, a built-in's name, or "cusp_model"."""
    return CUSP_MODEL if fam == "cusp_model" else families.entry_of(fam)


# --------------------------------------------------------------------------
# the decomposition

#: The moment pieces r = 0, 1, 2 of S.  Piece r is (eps/log R) times
#: 2 sum_p Y(p) log p phihat(k log p/log R) - 2 phihat(0) sum_p Z(p) log p,
#: with the density Y = c A_r/p^d and its phihat(0) correction
#: Z = Y num/den (a num of None is 1).
_Piece = namedtuple("_Piece", "name c d num den k eps")
_PIECES = (
    _Piece("S_0", 2.0, 2, None, lambda b: b.q, 2, 1.0),
    _Piece("S_1", 1.0, 2, lambda b: 3.0 * b.pf + 1.0, lambda b: b.q * b.q,
           1, -1.0),
    _Piece("S_2", 1.0, 3, lambda b: 4.0 * b.pp + 3.0 * b.pf + 1.0,
           lambda b: b.q3, 2, -1.0),
)
_PARTS = ("main", "sieve")


def _times(c, x):
    """c * x, and x itself for c = 1."""
    return x if c == 1.0 else c * x


def _y_z(blk, row, A):
    """Y log p and Z log p of a moment piece over a block, each in its
    formula's operation order (y = c A log p/p^d)."""
    pd = blk.pp if row.d == 2 else blk.power(row.d)
    y = _times(row.c, A) * blk.lp
    z = (y if row.num is None else _times(row.c, A) * row.num(blk) * blk.lp) \
        / (pd * row.den(blk))
    y /= pd
    return y, z


#: the most passes _prime_pass remembers; past it the oldest is dropped
PASS_MEMO_SIZE = 64

# (moment law, prime_limit, terms key, workers) -> (block sums, x_last);
# the lock makes each eviction and insertion one step for concurrent callers
_PASS_MEMO, _PASS_LOCK = {}, threading.Lock()


@lru_cache(maxsize=256)
def _last_prime(count: int) -> float:
    """The largest of the first count >= 1 primes; first_n_primes refuses
    a count past the cap, and a refusal is not cached."""
    return float(first_n_primes(count).last)


def _prime_pass(entry, prime_limit, terms, terms_key, piece, scale,
                threads=None, atilde_primes=ATILDE_PRIMES):
    """The pieces of S for an entry from one pass over its primes to
    prime_limit: p >= 5 for a family (additive reduction at 2 and 3 zeroes
    every term), every prime for the cusp model.

    _sum.block_sums hands the pass the leaves of each CHUNK block's
    pairwise tree, at most LEAF primes each, and each leaf is a
    _sum.Block, shared by its moments, sieve weight and terms.  It forms
    y = Y log p and z = Z log p of each moment piece once (_PIECES) and
    passes them to terms(add, blk, piece, A_r, y, z); add(key, vec,
    sieve=vec) sums vec as (key, "main"), and sieve weighted by H_sieve
    at each sieve exponent k of the moment law as (key, ("sieve", k)),
    the last product in place.  A column the entry reports as None (the
    sextic A_1, an unsieved H_sieve) forms no terms, which sum to 0.0 as
    zeros would; every term keeps its operation order, so each sum is
    bit-identical to the chunked sum of its full-length term vector.

    The block sums depend only on what the entry's moments(blk) read,
    its moment_law, and on what terms reads, terms_key, so one memo keeps
    them with the largest prime summed, under (moment law, prime_limit,
    terms key, worker count): the eight sextic twists share a pass, each
    reading the sieve sums of its own exponent (families.sieve_exponent)
    as its sieve part, and a repeated call does none.  The worker count
    does not change a bit; it is in the key so that two counts still run
    two passes.  The memo holds at most PASS_MEMO_SIZE passes, floats
    only, and drops the oldest first.

    piece(row, sums) assembles S_r from the sums.  S_A' (0.0 without a
    multiplicative bad t) and S_Atilde (the cusp model's closed form over
    the same primes, else the family's cached sum over its first
    atilde_primes primes) are scale of their sums; the largest Atilde
    prime is cached by its count (_last_prime), so a memo hit reads no
    table.  Returns (pieces, largest prime summed or 5.0, largest Atilde
    prime); ResourceError if either passes the cap, and DomainError for a
    worker count that is not an integer, before the memo and any table."""
    model = entry is CUSP_MODEL
    families.check_cap(entry, prime_limit, "prime_limit")
    # the model sums no Atilde prime, but refuses what a family refuses
    count = integer(atilde_primes, "the prime count")
    if count < 1:
        raise DomainError(f"the prime count must be >= 1, got {count}")
    if not model:
        x_at = _last_prime(count)
        families.check_cap(entry, x_at, "largest Atilde prime")
    key = (entry.moment_law, prime_limit, terms_key, thread_count(threads))
    memo = _PASS_MEMO.get(key)
    if memo is None:
        memo = _block_pass(entry, prime_limit, terms, key[-1])
        with _PASS_LOCK:
            if len(_PASS_MEMO) >= PASS_MEMO_SIZE:
                del _PASS_MEMO[next(iter(_PASS_MEMO))]
            _PASS_MEMO[key] = memo
    # the entry's own sieve exponent's sums are its sieve part; a term that
    # was not formed sums to 0.0, as its zeros would
    own = None if model else families.sieve_exponent(entry.spec)
    parts = {"main": "main", ("sieve", own): "sieve"}
    sums, x_last = defaultdict(float, {
        (key, parts[part]): v for (key, part), v in memo[0].items()
        if part in parts}), memo[1]
    pieces = {"S_Aprime": {k: scale(sums["S_Aprime", k])
                           if ("S_Aprime", "main") in sums else 0.0
                           for k in _PARTS}}
    for row in _PIECES:
        pieces[row.name] = piece(row, sums)
    if model:
        atilde, x_at = (sums["S_Atilde", "main"], 0.0), x_last
    else:
        atilde = constants._gamma_atilde_family(entry.spec, atilde_primes)
    pieces["S_Atilde"] = dict(zip(_PARTS, map(scale, atilde)))
    return pieces, x_last, x_at


def _block_pass(entry, prime_limit, terms, workers):
    """(block sums, largest prime summed or 5.0) of _prime_pass: one pass
    of _sum.block_sums over the table to prime_limit on `workers`."""
    model = entry is CUSP_MODEL
    table = get_table(prime_limit)
    lo = 0 if model else table.index(5)

    def block(start, stop):
        blk = Block(table.decode(lo + start, lo + stop))
        *moments, aprime, hs = entry.moments(blk)
        sums = {}

        def add(key, vec, sieve=None):
            sums[key, "main"] = np.sum(vec)
            sieve = vec if sieve is None else sieve
            for i, (k, h) in enumerate(hs or ()):
                # the last weight in place: a product has the same bits
                # in place or into a copy
                sums[key, ("sieve", k)] = np.sum(np.multiply(
                    sieve, h, out=sieve if i == len(hs) - 1 else None))

        # S_A': sum_p sum_m A'_m H log p / p^(m+1)
        if aprime is not None:
            add("S_Aprime", constants.aprime_terms(*aprime, blk))
        for row, A in zip(_PIECES, moments):
            if A is not None:   # one row's y and z at a time, freed by terms
                terms(add, blk, row, A, *_y_z(blk, row, A))
        if model:
            sums["S_Atilde", "main"] = np.sum(entry.atilde_terms(blk))
        return sums

    return (block_sums(block, len(table) - lo, workers),
            float(table.last) if len(table) > lo else 5.0)


@dataclass(frozen=True)
class SDecomposition:
    family: str
    phi_name: str
    R: float
    prime_limit: int
    support_complete: bool
    pieces: dict            # piece -> {"main": float, "sieve": float}
    total: float
    tail_bound: float
    main_term_estimate: float
    lower_order_coefficient: float

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "phi": self.phi_name,
            "R": self.R,
            "prime_limit": self.prime_limit,
            "support_complete": self.support_complete,
            "pieces": {k: dict(v) for k, v in sorted(self.pieces.items())},
            "total": self.total,
            "tail_bound": self.tail_bound,
            "main_term_estimate": self.main_term_estimate,
            "lower_order_coefficient": self.lower_order_coefficient,
        }


def evaluate_S(fam, phi: TestFunctionPair, R: float,
               prime_limit: int | None = None,
               threads: int | None = None,
               atilde_primes: int = ATILDE_PRIMES) -> SDecomposition:
    """Evaluate the five prime-sum pieces for a family (or the string
    "cusp_model" for the idealized cusp-form average) with finite R > 1.

    The prime truncation defaults to ceil(R^{sigma/2}) (capped at 10^9, in
    which case support_complete is False and the dropped tail enters the
    tail bound).  That covers the support of phihat(2 log p / log R) in S_0
    and S_2, but not that of phihat(log p / log R) in S_1, which reaches
    R^sigma: by default the S_1 terms over (R^{sigma/2}, R^sigma] are
    dropped and enter only the tail estimate, and support_complete refers
    to R^{sigma/2}.  Pass prime_limit=ceil(R^sigma) to sum S_1 in full.
    An explicitly passed prime_limit below R^{sigma/2} is an error, since
    the truncation would drop terms where phihat(2 log p / log R) is still
    nonzero.  The cubic-moment piece uses its own truncation
    (`atilde_primes`), following the reference tabulations.  A family
    without closed forms reads its moments and Atilde off its traces, capped at
    primes up to families.BRUTE_FORCE_CAP in both truncations; a truncation
    past the cap raises ResourceError before any prime table is built.
    Every prime sum comes from one pass over the table (_prime_pass) on
    `threads` workers, or from its memo; DomainError, before the memo, for
    a non-integer prime_limit, or threads or atilde_primes not an int >= 1.
    """
    entry = _entry(fam)
    if not 1.0 < R < math.inf:
        raise DomainError("need a finite R > 1")
    L = math.log(R)
    sigma = phi.sigma
    required = _ceil_exp(L * sigma / 2.0)         # R^(sigma/2)
    if prime_limit is None:
        prime_limit = min(required, DEFAULT_PRIME_CAP)
    elif integer(prime_limit, "prime_limit") < required:
        raise IncompleteSumError(
            f"prime_limit {prime_limit} is below the support bound "
            f"R^(sigma/2) = {required}")
    support_complete = prime_limit >= required
    ph0 = phi.phihat0

    def terms(add, blk, row, A, y, z):
        # phihat(k log p / log R), once per block and k: scaling by 1 or 2
        # commutes with rounding
        y *= blk.shared(("phihat", row.k), lambda: np.asarray(
            phi.eval_phihat(row.k * (blk.lp / L)), dtype=np.float64))
        add(row.name + "Y", y)
        add(row.name + "Z", z)

    def piece(row, sums):
        w = 2.0 * row.eps
        return {k: (w * sums[row.name + "Y", k]
                    - w * ph0 * sums[row.name + "Z", k]) / L for k in _PARTS}

    pieces, x_last, x_at = _prime_pass(
        entry, prime_limit, terms, (phi, L), piece,
        lambda s: -2.0 * ph0 * s / L, threads, atilde_primes)
    total = math.fsum(v["main"] + v["sieve"] for v in pieces.values())

    # heuristic tail estimate: cubic-moment truncation (reference budget
    # 0.0367 at the 5000th prime, scaled by 1/sqrt growth) plus the
    # dropped part of the S_1/S_0 supports beyond the prime table
    tail = (2.0 * ph0 / L) * 0.0367 * math.sqrt(48611.0 / x_at)
    if x_last < _ceil_exp(L * sigma) or not support_complete:
        tail += (2.0 / L) * 4.0 * math.log(x_last) / x_last
        # for positive-rank families A_1 ~ -rank*p, so the S_1 integrand
        # decays only like log p / p and the dropped window [x_last, R^sigma]
        # carries O(1) mass
        tail += 4.0 * entry.rank * max(0.0, sigma - math.log(x_last) / L)
    if not support_complete:
        # the S_0 and S_2 terms over (x_last, R^(sigma/2)], which the cap
        # drops: by Hasse |A_0| <= p and |A_2| <= 4p^2, so |Y| <= 2/p and
        # 4/p against |phihat| <= phihat(0), and by Mertens the window's
        # sum of log p/p is about log(R^(sigma/2)/x_last); its Z and sieve
        # terms are O(log x/x), within the term above
        tail += (12.0 * ph0 / L) * (L * sigma / 2.0 - math.log(x_last))

    main_est = phi.phi0 * (0.5 + entry.rank)
    coeff = (total - main_est) * L / (2.0 * ph0)
    return SDecomposition(
        family=entry.name, phi_name=phi.name, R=R, prime_limit=prime_limit,
        support_complete=support_complete, pieces=pieces, total=total,
        tail_bound=tail, main_term_estimate=main_est,
        lower_order_coefficient=coeff)


def _ceil_exp(x: float):
    """ceil(e^x), or inf past the float range."""
    return math.ceil(math.exp(x)) if x < _LOG_FLOAT_MAX else math.inf


# --------------------------------------------------------------------------
# the log R -> infinity limit of the decomposition

#: prime truncation of the convergent sums in lower_order_limit; their
#: dropped tails are O(1/x), a few times 1e-7 each
LIMIT_PRIME_LIMIT = 10 ** 7


def lower_order_limit(fam) -> dict:
    """The log R -> infinity limit of evaluate_S, piece by piece, as each
    piece's coefficient of 2*phihat(0)/log R: {piece: {"main", "sieve"}}.

    Piece r of S (r = 0, 1, 2) is (eps/log R)(2 sum_p Y log p phihat(k log
    p/log R) - 2 phihat(0) sum_p Z log p) with Y, Z, k and eps of
    _PIECES.  The entry's `lead` writes Y = c (a + b*[p = 1 mod 3])/p +
    O(1/p^2), or is None (DomainError before any array is built); the
    phihat-weighted a/p and b/p sums contribute the main term and
    a*gamma_pnt (less the a log p/p terms of the primes below the pass's
    range, p = 2, 3 for a family) + b*gamma_pnt_13/2.  The remainders Y -
    c (a + b*[...])/p and Z are O(log p/p^2); they (in _prime_pass) and
    the prime-counting constants are summed to LIMIT_PRIME_LIMIT.  The
    sieve parts converge absolutely.  S_A' is evaluate_S's closed-form
    bad-prime sum (for noncm_3x12t, minus gamma_aprime_3 summed to
    LIMIT_PRIME_LIMIT), and S_Atilde the same cached cubic-moment sum over
    the first ATILDE_PRIMES primes (the cusp model sums its closed form to
    LIMIT_PRIME_LIMIT).
    """
    entry = _entry(fam)
    if entry.lead is None:
        raise DomainError(f"no prime-number-theorem split for the moments "
                          f"of {entry.name!r}")
    lead = dict(zip((row.name for row in _PIECES), entry.lead))
    pnt = gamma_pnt(prime_limit=LIMIT_PRIME_LIMIT).value
    pnt13 = gamma_pnt_ab(1, 3, prime_limit=LIMIT_PRIME_LIMIT).value

    def terms(add, blk, row, A, y, z):
        a, b = lead[row.name]
        on13 = blk.character((0.0, 1.0, 0.0))      # [p = 1 mod 3]
        # the numerator is exact in float64 while p^2 < 2^53
        rem = _times(row.c, A - (a + b * on13) * blk.power(row.d - 1))
        y -= z
        add(row.name, rem * blk.lp / blk.power(row.d) - z, y)

    # gamma_pnt less the terms of the primes below the pass's range
    below = () if entry is CUSP_MODEL else (2, 3)
    pnt_range = pnt - math.fsum(math.log(p) / p for p in below)

    def piece(row, sums):
        a, b = lead[row.name]
        main = (row.c * (a * pnt_range + b * pnt13 / 2.0)
                + sums[row.name, "main"])
        return {"main": row.eps * main,
                "sieve": row.eps * sums[row.name, "sieve"]}

    # terms reads the entry's lead alone, besides its moments
    return _prime_pass(entry, LIMIT_PRIME_LIMIT, terms, ("limit", entry.lead),
                       piece, operator.neg)[0]
