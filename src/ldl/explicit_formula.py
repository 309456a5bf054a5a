"""Test functions and numerical assembly of the prime-sum decomposition.

The central object is ``evaluate_S``: given a family, an even test-function
pair (phi, phihat) with compactly supported phihat, and a scaling R, it
evaluates the five prime-sum pieces

    S = S_A' + S_0 + S_1 + S_2 + S_Atilde

term for term, splitting each piece into its main part (H = 1) and its
sieve part (H_sieve weight).  As log R grows the total approaches
phi(0)*(1/2 + rank) plus c * 2*phihat(0)/log R; the residual decays like
log^-2 R for smooth test functions with vanishing phihat'(0+).

``lower_order_limit`` derives c piece by piece from the same moment arrays,
without evaluating S: each phihat-weighted density splits into a
prime-number-theorem part, which contributes gamma_pnt (or gamma_pnt_13),
and an absolutely convergent remainder.  That limit is the *derived*
aggregate of ``constants.aggregate_lower_order(..., source="derived")``.
For the cusp model and the CM families its S_0, S_1, S_2 and S_A' pieces
agree with those assembled from the cited constants; for the non-CM family
it is about -2.542, while the printed total -2.703 is off by the gap in the
S_0, S_1 and S_2 pieces built from gamma_0_3, gamma_1_3 and gamma_2_3 (see
the constants module notes).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import constants, families
from ._sum import chunked_sum, thread_count
from .errors import DomainError, IncompleteSumError, ResourceError
from .primes import first_n_primes, gamma_pnt, gamma_pnt_ab, get_table

#: hard cap on the automatically chosen prime truncation
DEFAULT_PRIME_CAP = 10 ** 9

#: cubic-moment truncation (first primes) of the reference tabulations
ATILDE_PRIMES = 5000

#: preset scaling parameters R = e^L
R_PRESETS = {L: math.exp(L) for L in (25, 50, 100, 200)}

#: families with nonzero rank over Q(T) (main term phi(0)*(1/2 + rank))
_BUILTIN_RANK = {"rank1_36t": 1}

# flat-top fraction of the raised-cosine pair
_RC_FLAT = 0.8


# --------------------------------------------------------------------------
# test-function pairs

@dataclass(frozen=True)
class TestFunctionPair:
    """An even test function phi with phihat supported in [-sigma, sigma]."""
    name: str
    sigma: float
    eval_phi: object
    eval_phihat: object
    phi0: float
    phihat0: float


def _fejer_pair(s: float) -> TestFunctionPair:
    def phihat(u):
        u = np.asarray(u, dtype=np.float64)
        return np.maximum(1.0 - np.abs(u) / s, 0.0)

    def phi(x):
        x = np.asarray(x, dtype=np.float64)
        return s * np.sinc(s * x) ** 2

    return TestFunctionPair(f"fejer:{s:g}", s, phi, phihat, float(s), 1.0)


def _gaussian_pair(s: float) -> TestFunctionPair:
    w = s / 4.0

    def phihat(u):
        u = np.asarray(u, dtype=np.float64)
        return np.where(np.abs(u) < s, np.exp(-u * u / (2 * w * w)), 0.0)

    # phi(x) = 2 int_0^s exp(-u^2/2w^2) cos(2 pi u x) du, by Simpson's rule
    n = 4096
    grid = np.linspace(0.0, s, n + 1)
    weights = np.full(n + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    weights *= (s / n) / 3.0
    gvals = np.exp(-grid * grid / (2 * w * w)) * weights

    def phi(x):
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        out = 2.0 * (np.cos(2 * math.pi * np.outer(x, grid)) @ gvals)
        return out if out.size > 1 else float(out[0])

    phi0 = 2.0 * float(gvals.sum())
    return TestFunctionPair(f"gaussian:{s:g}", s, phi, phihat, phi0,
                            1.0)


def _indicator_pair(s: float) -> TestFunctionPair:
    """Raised-cosine flat-top: phihat = 1 on |u| <= 0.8 s, cosine roll-off
    to zero at |u| = s; phi has the classic sinc * raised-cosine closed
    form."""
    a = _RC_FLAT

    def phihat(u):
        u = np.abs(np.asarray(u, dtype=np.float64))
        roll = 0.5 * (1.0 + np.cos(math.pi * (u - a * s) / ((1 - a) * s)))
        return np.where(u <= a * s, 1.0, np.where(u < s, roll, 0.0))

    def phi(x):
        x = np.asarray(x, dtype=np.float64)
        z = 2.0 * s * (1 - a) * x
        denom = 1.0 - z * z
        core = s * (1 + a) * np.sinc(s * (1 + a) * x)
        safe = np.where(np.abs(denom) < 1e-10, 1.0, denom)
        val = core * np.cos(math.pi * s * (1 - a) * x) / safe
        # removable singularity at |2 s (1-a) x| = 1: limit is (pi/4) core
        return np.where(np.abs(denom) < 1e-10, core * math.pi / 4.0, val)

    return TestFunctionPair(f"indicator:{s:g}", s, phi, phihat,
                            s * (1 + a), 1.0)


_PAIR_BUILDERS = {
    "fejer": _fejer_pair,
    "fejer_sigma": _fejer_pair,
    "gaussian": _gaussian_pair,
    "gaussian_truncated": _gaussian_pair,
    "indicator": _indicator_pair,
    "indicator_smooth": _indicator_pair,
}


def builtin_test_pair(name: str, sigma: float | None = None
                      ) -> TestFunctionPair:
    """Construct a built-in pair; `name` may embed the support radius as
    "fejer:0.9" or "fejer_sigma(0.9)", or pass `sigma` separately."""
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
    if key not in _PAIR_BUILDERS:
        raise DomainError(f"unknown test-function pair {key!r}; "
                          f"known: {sorted(set(_PAIR_BUILDERS))}")
    if not 0 < sigma <= 4:
        raise DomainError("support radius must be in (0, 4]")
    return _PAIR_BUILDERS[key](float(sigma))


# --------------------------------------------------------------------------
# digamma and the conductor term

def digamma(x: float) -> float:
    """psi(x) for x > 0 by recurrence + asymptotic series (12+ digits)."""
    if x <= 0:
        raise DomainError("digamma implemented for x > 0 only")
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
    if N <= 0 or R <= 1:
        raise DomainError("need N > 0 and R > 1")
    return phi.phihat0 * (math.log(N) + conductor_weight(k)) / math.log(R)


# --------------------------------------------------------------------------
# geometric-series remainder (the m >= 3 tail for a single form)

def m3_remainder(lam: float, p: int) -> float:
    """Closed form of sum_{m>=3} [(alpha/sqrt p)^m + (beta/sqrt p)^m] with
    alpha+beta = lam*sqrt(p), alpha*beta = p, |lam| <= 2."""
    if abs(lam) > 2:
        raise DomainError("|lambda| must be <= 2")
    sp = math.sqrt(p)
    return (lam ** 3 * sp - lam ** 2 - 3 * lam * sp + 2) / \
        (p * (p + 1 - lam * sp))


def m3_direct(lam: float, p: int, terms: int = 60) -> float:
    """Direct summation oracle companion: the normalized power sums
    y_m = (alpha^m + beta^m)/p^{m/2} satisfy y_m = lam y_{m-1} - y_{m-2}
    with y_0 = 2, y_1 = lam; the remainder is sum_{m>=3} y_m / p^{m/2}."""
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
# vectorized per-family moment arrays

def _legendre_2_vec(p_int: np.ndarray) -> np.ndarray:
    r = p_int % 8
    return np.where((r == 1) | (r == 7), 1.0, -1.0)


def _legendre_3_vec(p_int: np.ndarray) -> np.ndarray:
    r = p_int % 12
    return np.where((r == 1) | (r == 11), 1.0, -1.0)


def _legendre_m3_vec(p_int: np.ndarray) -> np.ndarray:
    return np.where(p_int % 3 == 1, 1.0, -1.0)


# Each moment class carries `lead`: for the densities A_0/p^2, A_1/p^2 and
# A_2/p^3 the pairs (a, b) with density = (a + b*[p = 1 mod 3])/p +
# O(1/p^2), or None where the leading behaviour needs other progressions;
# lower_order_limit splits on it.

class _ModelMoments:
    """Idealized constant-moment model for the weight-k cusp-form average:
    A_0 = p (all residues good), A_1 = 0, A_2 = p^2 (unit second moment),
    Atilde*p^{3/2} = 2p+1, no bad primes, no sieving."""

    lead = ((1.0, 0.0), (0.0, 0.0), (1.0, 0.0))

    def __init__(self, pf):
        self.A0 = pf
        self.A1 = np.zeros_like(pf)
        self.A2 = pf * pf
        self.hs = np.zeros_like(pf)
        self.has_bad = False

    def bad_moment(self, m):
        return 0.0


class _FamilyMoments:
    def __init__(self, fam: families.FamilySpec, p_int, pf):
        kind = families.family_kind(fam)
        self._noncm = kind[0] == "noncm"
        if kind[0] == "sextic":
            k = int(fam.k)
            self.A0 = pf - 1.0
            self.A1 = np.zeros_like(pf)
            self.A2 = np.where(p_int % 3 == 1, 2 * pf * pf - 2 * pf, 0.0)
            self.hs = 1.0 / (pf ** k - 1.0)
            self.has_bad = False
            self.lead = ((1.0, 0.0), (0.0, 0.0), (0.0, 2.0))
        elif kind[0] == "quartic":
            mask = p_int % 4 == 1
            twist = _legendre_2_vec(p_int) if kind[1] == 4 else 1.0
            self.A0 = pf - 2.0
            self.A1 = np.where(mask, -2.0 * pf * twist, 0.0)
            a_sq = np.zeros_like(pf)
            idx = np.nonzero(mask)[0]
            a_sq[idx] = [families._a_ref_curve(int(p_int[i])) ** 2
                         for i in idx]
            self.A2 = np.where(mask, 2 * pf * (pf - 1.0) - a_sq, 0.0)
            self.hs = 2.0 / (pf ** 3 - 2.0)
            self.has_bad = False
            self.lead = None    # A_1, A_2 live on p = 1 mod 4
        elif self._noncm:
            self._s3 = _legendre_3_vec(p_int)
            self._sm3 = _legendre_m3_vec(p_int)
            self.A0 = pf - 2.0
            self.A1 = -(self._s3 + self._sm3)
            self.A2 = pf * pf - 2.0 * pf - 2.0 - pf * self._sm3
            self.hs = np.zeros_like(pf)
            self.has_bad = True
            self.lead = ((1.0, 0.0), (0.0, 0.0), (1.0, 0.0))
        else:
            raise DomainError(f"no vectorized moments for {fam.name!r}")

    def bad_moment(self, m):
        if not self._noncm:
            return 0.0
        return self._s3 ** m + self._sm3 ** m


class _BruteMoments:
    """Per-prime brute-force moments for user-supplied families (O(p^2)
    work per prime, so capped at small truncations)."""

    _CAP = 5000

    def __init__(self, fam: families.FamilySpec, p_int, pf):
        if p_int.size and int(p_int[-1]) > self._CAP:
            raise ResourceError(
                "brute-force moments for custom families are capped at "
                f"prime_limit {self._CAP}; register closed forms or lower "
                "the truncation")
        rows = [[families.complete_moment(fam, int(p), r, "good")
                 for r in (0, 1, 2)] for p in p_int]
        arr = np.asarray(rows, dtype=np.float64).reshape(-1, 3)
        self.A0, self.A1, self.A2 = arr[:, 0], arr[:, 1], arr[:, 2]
        self.hs = np.asarray(
            [families.h_factor(fam, int(p))[1] for p in p_int])
        self.has_bad = True
        self._fam = fam
        self._p = p_int

    def bad_moment(self, m):
        return np.asarray(
            [families.complete_moment(self._fam, int(p), m, "bad")
             for p in self._p], dtype=np.float64)


@lru_cache(maxsize=64)
def _atilde_sums(fam: families.FamilySpec, prime_count: int):
    return constants._gamma_atilde_family(fam, prime_count)


def _aprime_density(mom, pf: np.ndarray) -> np.ndarray:
    """sum_m A'_m / p^(m+1): terms at bad reduction have |a_t| <= 1, so the
    m-sum is truncated once the bound 2/p^(m+1) drops below 1e-18 at the
    smallest prime."""
    acc = np.zeros_like(pf)
    m = 1
    while 2.0 * 5.0 ** -(m + 1) >= 1e-18:
        bm = mom.bad_moment(m)
        acc = acc + bm / pf ** (m + 1)
        m += 1
    return acc


def _model_atilde_terms(pf: np.ndarray, lp: np.ndarray) -> np.ndarray:
    """Atilde p^{3/2} (p-1) log p / (p(p+1)^3) for the cusp model."""
    return (2.0 * pf + 1.0) * (pf - 1.0) * lp / (pf * (pf + 1.0) ** 3)


# --------------------------------------------------------------------------
# the decomposition

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
    "cusp_model" for the idealized cusp-form average) with scaling R.

    The prime truncation defaults to ceil(R^{sigma/2}) (capped at 10^9, in
    which case support_complete is False and the dropped tail enters the
    tail bound).  An explicitly passed prime_limit below R^{sigma/2} is an
    error, since the truncation would drop terms where phihat(2 log p /
    log R) is still nonzero.  The cubic-moment piece uses its own
    truncation (`atilde_primes`), following the reference tabulations.
    """
    model = isinstance(fam, str) and fam == "cusp_model"
    if isinstance(fam, str) and not model:
        fam = families.get_family(fam)
    L = math.log(R)
    if L <= 0:
        raise DomainError("need R > 1")
    sigma = phi.sigma
    required = math.ceil(math.exp(L * sigma / 2.0))
    if prime_limit is None:
        prime_limit = min(required, DEFAULT_PRIME_CAP)
    elif prime_limit < required:
        raise IncompleteSumError(
            f"prime_limit {prime_limit} is below the support bound "
            f"R^(sigma/2) = {required}")
    support_complete = prime_limit >= required
    nthreads = thread_count(threads)

    table = get_table(prime_limit)
    # family sums run over p >= 5 (additive reduction at 2 and 3 zeroes
    # every term); the idealized model keeps all primes
    p_int = table.primes if model else table.primes[table.primes >= 5]
    pf = p_int.astype(np.float64)
    lp = np.log(pf)
    ph0 = phi.phihat0
    phihat1 = np.asarray(phi.eval_phihat(lp / L), dtype=np.float64)
    phihat2 = np.asarray(phi.eval_phihat(2.0 * lp / L), dtype=np.float64)

    if model:
        mom = _ModelMoments(pf)
        fam_name = "cusp_model"
        rank = 0
    else:
        fam_name = fam.name
        rank = (_BUILTIN_RANK.get(fam_name, 0)
                if families.family_kind(fam)[0] != "custom" else 0)
        try:
            mom = _FamilyMoments(fam, p_int, pf)
        except DomainError:
            mom = _BruteMoments(fam, p_int, pf)
    hs = mom.hs

    def pair(vec):
        return {"main": chunked_sum(vec, nthreads),
                "sieve": chunked_sum(vec * hs, nthreads)}

    pieces = {}

    # S_A': -2 phihat(0) sum_p sum_m A'_m H log p / p^(m+1)
    if mom.has_bad:
        sa = pair(_aprime_density(mom, pf) * lp)
        pieces["S_Aprime"] = {k: -2.0 * ph0 * v / L for k, v in sa.items()}
    else:
        pieces["S_Aprime"] = {"main": 0.0, "sieve": 0.0}

    # S_0: two sums, the second carrying phihat(2 log p / log R)
    s0a = pair(2.0 * mom.A0 * lp / (pf * pf * (pf + 1.0)))
    s0b = pair(2.0 * mom.A0 * lp / (pf * pf) * phihat2)
    pieces["S_0"] = {k: (-2.0 * ph0 * s0a[k] + 2.0 * s0b[k]) / L
                     for k in ("main", "sieve")}

    # S_1: phihat(log p / log R) sum plus the phihat(0) correction
    s1a = pair(mom.A1 * lp / (pf * pf) * phihat1)
    s1b = pair(mom.A1 * (3.0 * pf + 1.0) * lp / (pf * pf * (pf + 1.0) ** 2))
    pieces["S_1"] = {k: (-2.0 * s1a[k] + 2.0 * ph0 * s1b[k]) / L
                     for k in ("main", "sieve")}

    # S_2: phihat(2 log p / log R) sum plus the phihat(0) correction
    s2a = pair(mom.A2 * lp / pf ** 3 * phihat2)
    s2b = pair(mom.A2 * (4.0 * pf * pf + 3.0 * pf + 1.0) * lp
               / (pf ** 3 * (pf + 1.0) ** 3))
    pieces["S_2"] = {k: (-2.0 * s2a[k] + 2.0 * ph0 * s2b[k]) / L
                     for k in ("main", "sieve")}

    # S_Atilde: numerically summed at its own truncation
    if model:
        at_main = chunked_sum(_model_atilde_terms(pf, lp), nthreads)
        at_sieve = 0.0
        x_at = float(p_int[-1]) if p_int.size else 5.0
    else:
        at_main, at_sieve = _atilde_sums(fam, atilde_primes)
        x_at = float(first_n_primes(atilde_primes).primes[-1])
    pieces["S_Atilde"] = {"main": -2.0 * ph0 * at_main / L,
                          "sieve": -2.0 * ph0 * at_sieve / L}

    total = math.fsum(v["main"] + v["sieve"] for v in pieces.values())

    # heuristic tail estimate: cubic-moment truncation (reference budget
    # 0.0367 at the 5000th prime, scaled by 1/sqrt growth) plus the
    # dropped part of the S_1/S_0 supports beyond the prime table
    x_last = float(p_int[-1]) if p_int.size else 5.0
    tail = (2.0 * ph0 / L) * 0.0367 * math.sqrt(48611.0 / x_at)
    if x_last < math.exp(L * sigma) or not support_complete:
        tail += (2.0 / L) * 4.0 * math.log(x_last) / x_last
        # for positive-rank families A_1 ~ -rank*p, so the S_1 integrand
        # decays only like log p / p and the dropped window [x_last, R^sigma]
        # carries O(1) mass
        tail += 4.0 * rank * max(0.0, sigma - math.log(x_last) / L)

    main_est = phi.phi0 * (0.5 + rank)
    coeff = (total - main_est) * L / (2.0 * ph0)
    return SDecomposition(
        family=fam_name, phi_name=phi.name, R=R, prime_limit=prime_limit,
        support_complete=support_complete, pieces=pieces, total=total,
        tail_bound=tail, main_term_estimate=main_est,
        lower_order_coefficient=coeff)


# --------------------------------------------------------------------------
# the log R -> infinity limit of the decomposition

#: prime truncation of the convergent sums in lower_order_limit; their
#: dropped tails are O(1/x), a few times 1e-7 each
LIMIT_PRIME_LIMIT = 10 ** 7


def lower_order_limit(fam, threads: int | None = None) -> dict:
    """The log R -> infinity limit of evaluate_S, piece by piece, as each
    piece's coefficient of 2*phihat(0)/log R: {piece: {"main", "sieve"}}.

    Piece r of S (r = 0, 1, 2) is (eps_r/log R) times
    2 sum_p Y_r(p) log p phihat(k_r log p/log R) - 2 phihat(0) sum_p
    Z_r(p) log p, with Y_0 = 2A_0/p^2, Y_1 = A_1/p^2, Y_2 = A_2/p^3, Z_r
    the phihat(0) corrections of evaluate_S, k = (2, 1, 2) and eps = (+1,
    -1, -1).  The moment class's `lead` writes Y_r = c_r (a + b*[p = 1
    mod 3])/p + O(1/p^2) (c = 2, 1, 1); the phihat-weighted a/p and b/p
    sums contribute the main term and a*gamma_pnt (less the p = 2, 3 terms
    a*gamma_23/2 that the family sums drop) + b*gamma_pnt_13/2.  The
    remainders Y_r - c_r (a + b*[...])/p and Z_r are O(log p/p^2); they
    and the prime-counting constants are summed to LIMIT_PRIME_LIMIT.  The
    sieve parts converge absolutely.  S_A' is the bad-prime m-series of
    evaluate_S, and S_Atilde the same cached cubic-moment sum over the
    first ATILDE_PRIMES primes (the cusp model sums its closed form to
    LIMIT_PRIME_LIMIT).
    """
    model = isinstance(fam, str) and fam == "cusp_model"
    if isinstance(fam, str) and not model:
        fam = families.get_family(fam)
    nthreads = thread_count(threads)
    table = get_table(LIMIT_PRIME_LIMIT)
    p_int = table.primes if model else table.primes[table.primes >= 5]
    pf = p_int.astype(np.float64)
    lp = np.log(pf)
    mom = _ModelMoments(pf) if model else _FamilyMoments(fam, p_int, pf)
    if mom.lead is None:
        raise DomainError(
            f"no prime-number-theorem split for the moments of "
            f"{'cusp_model' if model else fam.name!r}")

    pnt = gamma_pnt(prime_limit=LIMIT_PRIME_LIMIT, threads=nthreads).value
    pnt13 = gamma_pnt_ab(1, 3, prime_limit=LIMIT_PRIME_LIMIT,
                         threads=nthreads).value
    dropped = 0.0 if model else \
        0.5 * constants.compute_constant("gamma_23").value
    on13 = (p_int % 3 == 1).astype(np.float64)

    pieces = {}
    if mom.has_bad:
        sa = _aprime_density(mom, pf) * lp
        pieces["S_Aprime"] = {"main": -chunked_sum(sa, nthreads),
                              "sieve": -chunked_sum(sa * mom.hs, nthreads)}
    else:
        pieces["S_Aprime"] = {"main": 0.0, "sieve": 0.0}

    # (piece, eps, c, A_r, d with Y_r = c A_r/p^d, Z_r/Y_r)
    rows = (("S_0", 1.0, 2.0, mom.A0, 2, 1.0 / (pf + 1.0)),
            ("S_1", -1.0, 1.0, mom.A1, 2,
             (3.0 * pf + 1.0) / (pf + 1.0) ** 2),
            ("S_2", -1.0, 1.0, mom.A2, 3,
             (4.0 * pf * pf + 3.0 * pf + 1.0) / (pf + 1.0) ** 3))
    for (name, eps, c, A, d, z_over_y), (a, b) in zip(rows, mom.lead):
        y = c * A / pf ** d
        # the numerator is exact in float64 while p^2 < 2^53
        rem = c * (A - (a + b * on13) * pf ** (d - 1)) / pf ** d
        corr = y * z_over_y
        main = (c * (a * (pnt - dropped) + b * pnt13 / 2.0)
                + chunked_sum((rem - corr) * lp, nthreads))
        sieve = chunked_sum((y - corr) * lp * mom.hs, nthreads)
        pieces[name] = {"main": eps * main, "sieve": eps * sieve}

    if model:
        at_main = chunked_sum(_model_atilde_terms(pf, lp), nthreads)
        at_sieve = 0.0
    else:
        at_main, at_sieve = _atilde_sums(fam, ATILDE_PRIMES)
    pieces["S_Atilde"] = {"main": -at_main, "sieve": -at_sieve}
    return pieces
