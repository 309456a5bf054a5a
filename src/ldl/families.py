"""One-parameter elliptic-curve families y^2 = x^3 + A(T)x + B(T).

Provides the per-prime data that feeds the explicit-formula sums: Fourier
coefficients a_t(p), reduction classification, exact complete moment sums
over t mod p (good and bad reduction separately), the cubic-moment quantity
Atilde(p), root counts nu_D of the sieving polynomial, the sieve factor
H_{D,k}(p), and power-free sieving of an actual integer window.

Built-in families:

* ``cm_b{1,2,3,6}_kappa{1,2}``:  y^2 = x^3 + B(6T+1)^kappa  (CM by Q(sqrt-3));
  sieve exponent k = 6/kappa.
* ``rank1_36t`` / ``rank0_36t``: y^2 = x^3 - c(36T+6)(36T+5)x with c = 1 and
  c = 4 (the quadratic twist by 2 of the first) (CM by Q(i)); k = 3.
* ``noncm_3x12t``: y^2 = x^3 - 3x + 12T, globally minimal, no sieving (k
  infinite).

Every family has one entry, found by entry_of.  A built-in's is in
REGISTRY, of one of three classes (_Sextic, _Quartic, _NonCM): it holds the
FamilySpec, the rank, `lead` (explicit_formula.lower_order_limit), the
Atilde method, the closed forms A_0, A_1, A_2, A'_1 and A'_2, written once
over a _sum.Block of primes p >= 5, and n_bad, its nu_D(p^k) at every
p >= 5, which _sieve_block turns into H_sieve.  Any other family gets a
brute-force entry, whose cap, BRUTE_FORCE_CAP, only evaluate_S and
rank_bias check.  A family counts as built-in only when it equals the
registered FamilySpec in every field, so a config that borrows a built-in's
name takes the brute-force entry.  Each entry's moment_law is the hashable
value its moments read: "sextic" for every sextic twist, whatever its b
and kappa, the entry itself for the other built-ins, and the FamilySpec
for a brute-force entry.  Its moments carry H_sieve at each sieve exponent
of the law (sieve_exponents): k = 3 and k = 6 for the sextic law, from the
kappas the registry builds, and the family's own k for every other.
Entries of one law have the same columns bit for bit, and
explicit_formula._prime_pass shares one pass between them.

Each per-prime quantity is written once, over an ascending block of primes;
a_tilde, h_factor and closed_form_moment are views of one prime.  A
complete sum over t mod p depends only on the multiset of traces a_t(p).
Each entry cuts a block into sub-blocks (sub_blocks), and its
trace_histograms gives, per prime of one sub-block, the traces with their
numbers of good and of bad t.  Every consumer reads them through
_histogram_map, one sub-block at a time, in order, on the entry's workers:
the moments are their exact power sums (_power_sums) and Atilde(p) one
recipe over them (_a_tildes).  No row lists a nonzero trace twice: a
bincount row (_bin_traces, from the non-CM or brute-force traces at every
t) has one column per a in [-h, h], and the class traces of a CM row are
distinct, since two equal ones would force p = n^2, 2n^2 or 3n^2 (a
sextic row's lie among +-(2a - b), +-(a + b), +-(2b - a) with pi = a + b
omega, a quartic row's are +-2a and +-2b with a^2 + b^2 = p).  The traces:

* CM built-ins, O(log p) per prime as int64 array code over the whole
  block, one sub-block: the trace of each twist y^2 = x^3 + c (resp. y^2 =
  x^3 - Dx) is read off the primary prime pi above p in Z[omega] (resp.
  Z[i]), found by Cornacchia's algorithm, and the sextic (resp. quartic)
  residue symbol of the twist (Ireland & Rosen, *A Classical Introduction
  to Modern Number Theory*, ch. 18, Thms 18.4 and 18.5).  For the quartic
  pair the number of t in each quartic class comes from the Jacobi sum
  J(chi, chi) = -chi(-1) pi.  The kernels are exact up to INT64_PRIME_LIMIT
  and raise ResourceError past it.
* ``noncm_3x12t``: an FFT correlation (_correlations), O(p log p) per
  prime, gives the trace at every s = 12t.  x^3 + ax is odd, so the trace
  at -s is (-1/p) times the trace at s, and only the shifts s < (p + 1)/2
  are transformed, at a length of about 3p/2.  A sub-block is consecutive
  primes of at most _CORRELATION_BUDGET elements (_correlation_blocks),
  transformed together, one row each, on the package's pool.  _sum's raised
  mmap threshold serves its arrays and pocketfft's scratch from the heap,
  the package's one memory-reuse rule.
* any other family: its traces at every t (_curve_data) from one
  correlation per class of A(t), at most five, each halved by the same
  symmetry and read out before the next is transformed, over the same
  sub-blocks on one worker, as its many small numpy calls hold the GIL.

Root counts nu_D(p^k) count the distinct roots of D mod p as the degree of
gcd(D, x^p - x) over F_p and lift simple ones by Hensel, else scan t mod
p^k; _sieve_block reads a built-in's n_bad instead, and its float64 ratio
nu/(p^k - nu) over a _sum.Block is the sieve part of H_{D,k}(p) that every
consumer reads.  sieve_window clears each D factor's roots mod p and tests
their lifts exactly, at each p up to a root of its bound.

Every closed form registered here is cross-checked against those power
sums, and the traces against point counts, for all primes up to 300.
"""

from __future__ import annotations

import json
import math
import numbers
import pathlib
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import zip_longest

import numpy as np

from ._sum import Block, ordered_map
from .errors import DomainError, ResourceError, VerificationError, integer
from .primes import (CHI_2, CHI_3, CHI_M3, get_table, is_prime,
                     jacobi_symbol, legendre_symbol, legendre_symbols_vec)
from .series import poly_mul

_SCAN_LIMIT = 10 ** 6

#: the primes sieve_window may scan to: an estimated 8 s at N = 10^7
_WINDOW_ROOT_LIMIT = 10 ** 5

#: the `cap` of a family without closed forms, checked only by evaluate_S
#: (its prime_limit and largest Atilde prime) and rank_bias (its X); its
#: other per-t tables (a_tilde, moment_table, complete_moment,
#: family_constant_Atilde) stop at FLOAT_PRIME_LIMIT
BRUTE_FORCE_CAP = 5000


# --------------------------------------------------------------------------
# integer polynomials (ascending coefficient tuples)

def poly_eval(coeffs, t: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def poly_eval_mod(coeffs, t, m: int):
    """Horner evaluation mod m; t may be an int or an integer ndarray."""
    if isinstance(t, np.ndarray):
        acc = np.zeros_like(t)
        for c in reversed(coeffs):
            acc = (acc * t + c % m) % m
        return acc
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * t + c) % m
    return acc


def _poly_trim(a):
    while len(a) > 1 and a[-1] == 0:
        a = a[:-1]
    return tuple(a)


# --------------------------------------------------------------------------
# family specification

INF = math.inf


@dataclass(frozen=True)
class FamilySpec:
    """y^2 = x^3 + A(T)x + B(T) with sieving data."""
    name: str
    A_poly: tuple
    B_poly: tuple
    D_factors: tuple          # tuple of coefficient tuples
    k: float                  # sieve exponent; math.inf disables sieving
    forced_zero_primes: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        disc = self.discriminant_poly()
        if all(c == 0 for c in disc):
            raise DomainError("discriminant is identically zero")
        if not all(any(fac) for fac in self.D_factors):
            raise DomainError("a D factor is identically zero")
        if not (self.k == INF or (self.k == int(self.k) and self.k >= 3)):
            raise DomainError("sieve exponent k must be >= 3 or infinite")

    def discriminant_poly(self) -> tuple:
        a3 = poly_mul(poly_mul(self.A_poly, self.A_poly), self.A_poly)
        b2 = poly_mul(self.B_poly, self.B_poly)
        return _poly_trim([-16 * (4 * a + 27 * b) for a, b in
                           zip_longest(a3, b2, fillvalue=0)])


# --------------------------------------------------------------------------
# the built-in registry (see the module docstring)

def _own_exponents(entry) -> tuple:
    """The sieve exponents of an entry's moment law: its family's own k,
    none for an unsieved family."""
    k = sieve_exponent(entry.spec)
    return () if k is None else (k,)


def _sieve_columns(entry, blk):
    """H_sieve of entry.moments(blk): one (k, nu/(p^k - nu)) pair per
    sieve exponent k of its moment law, ascending, or None for none."""
    return tuple((k, _sieve_block(entry.spec, blk, k)[1])
                 for k in entry.sieve_exponents) or None


class _Builtin:
    rank = 0
    has_bad = False       # some bad t has multiplicative reduction
    cap = INF             # closed forms hold at every prime
    threads = None        # workers of its sub-blocks: the pool's

    name = property(lambda self: self.spec.name)
    moment_law = property(lambda self: self)
    sieve_exponents = property(_own_exponents)

    def moments(self, blk):
        """(A_0, A_1, A_2, (A'_1, A'_2) or None without a multiplicative
        bad t, H_sieve) over a Block, H_sieve as _sieve_columns; None for a
        column that is identically zero (A_1 of the sextic twists, with
        `lead` (0, 0), and H_sieve of an unsieved family)."""
        return (self.A0(blk), self.A1(blk), self.A2(blk),
                self.bad_moments(blk) if self.has_bad else None,
                _sieve_columns(self, blk))

    def sub_blocks(self, p_int: np.ndarray) -> list:
        return [p_int]

    def a_tildes(self, p_int: np.ndarray) -> np.ndarray:
        return np.array(_histogram_map(self, p_int, _a_tildes), dtype=float)

    def class_histograms(self, p_int, on, counts, traces) -> tuple:
        """The trace histograms of a CM twist family: at the primes `on`
        the class counts and traces, elsewhere every good t at a = 0; the
        n_bad additive t at a = 0 in a last column."""
        out = np.zeros((3, p_int.size, traces.shape[1] + 1), dtype=np.int64)
        out[0, on, :-1], out[1, on, :-1] = traces, counts
        out[1, ~on, -1] = p_int[~on] - self.n_bad
        out[2, :, -1] = self.n_bad
        return tuple(out)

    def A0(self, blk):
        return blk.pf - self.n_bad      # n_bad t with p | Delta(t)

    def bad_moments(self, blk):
        return 0.0, 0.0                 # a_t(p) = 0 at an additive bad t


#: the kappas of the sextic built-ins
_KAPPAS = (1, 2)


class _Sextic(_Builtin):
    """y^2 = x^3 + bb(6T+1)^kappa, CM by Q(sqrt-3), k = 6/kappa: one
    additive bad t, and the good a_t vanish off p = 1 mod 3."""
    n_bad = 1
    lead = ((1.0, 0.0), (0.0, 0.0), (0.0, 2.0))
    # the moments read n_bad alone, not bb or kappa, and H_sieve at every
    # k = 6/kappa the registry builds: one law for all eight twists
    moment_law = "sextic"
    sieve_exponents = tuple(sorted({6 // kappa for kappa in _KAPPAS}))

    def __init__(self, bb: int, kappa: int):
        self.bb, self.kappa = bb, kappa
        b_poly = [bb]
        for _ in range(kappa):
            b_poly = poly_mul(b_poly, [1, 6])
        self.spec = FamilySpec(
            name=f"cm_b{bb}_kappa{kappa}", A_poly=(0,), B_poly=tuple(b_poly),
            D_factors=((1, 6),), k=6 // kappa,
            forced_zero_primes=frozenset({2, 3}))

    def A1(self, blk):
        return None

    def A2(self, blk):
        # 2p^2 - 2p on p = 1 mod 3, else 0 (scaling by 2 is exact)
        return 2.0 * (blk.pp - blk.pf) * (blk.mod(3) == 1)

    def trace_histograms(self, p_int: np.ndarray) -> tuple:
        # y^2 = x^3 + c with c = bb*(6t+1)^kappa: a depends only on the
        # sextic residue class of c, and 6t+1 covers each nonzero residue
        # once, so c runs over the classes of bb w^i, i = 0, kappa, ..,
        # 6 - kappa, each (p-1)/(6/kappa) times, for any w whose sixth
        # residue symbol is a primitive sixth root of unity
        _check_int64(p_int)
        on = p_int % 3 == 1
        p = p_int[on]
        traces = _sextic_traces(self.bb, p, _sixth_roots(p),
                                range(0, 6, self.kappa))
        return self.class_histograms(
            p_int, on, ((p - 1) // (6 // self.kappa))[:, None], traces)


class _Quartic(_Builtin):
    """y^2 = x^3 - d^2 (36T+6)(36T+5) x, CM by Q(i), k = 3: two additive bad
    t, and the good a_t vanish off p = 1 mod 4; `twist` tabulates (d/p)."""
    n_bad = 2
    lead = None           # A_1 and A_2 live on p = 1 mod 4

    def __init__(self, name: str, d: int, twist: tuple, rank: int):
        self.bb, self.twist, self.rank = d * d, twist, rank
        d_factors = ((6, 36), (5, 36))
        self.spec = FamilySpec(
            name=name, A_poly=tuple(poly_mul([-d * d], poly_mul(*d_factors))),
            B_poly=(0,), D_factors=d_factors, k=3,
            forced_zero_primes=frozenset({2, 3}))

    def A1(self, blk):
        return np.where(blk.mod(4) == 1,
                        -2.0 * blk.pf * blk.character(self.twist), 0.0)

    def A2(self, blk):
        mask = blk.mod(4) == 1
        a_sq = np.zeros(mask.shape)
        a_sq[mask] = _a_ref_curves(blk.p_int[mask]) ** 2
        return np.where(mask, 2 * blk.pf * (blk.pf - 1.0) - a_sq, 0.0)

    def trace_histograms(self, p_int: np.ndarray) -> tuple:
        # y^2 = x^3 - c x with c = bb*(36t+6)(36t+5): a depends only on the
        # quartic residue class of c (_quartic_classes)
        _check_int64(p_int)
        on = p_int % 4 == 1
        return self.class_histograms(p_int, on,
                                     *_quartic_classes(self.bb, p_int[on]))


class _NonCM(_Builtin):
    """y^2 = x^3 - 3x + 12T, globally minimal, unsieved: its bad t, 6t = 1
    and 6t = -1, are multiplicative with a_t(p) = (3/p) and (-3/p)."""
    n_bad, has_bad = 2, True
    lead = ((1.0, 0.0), (0.0, 0.0), (1.0, 0.0))
    spec = FamilySpec(
        name="noncm_3x12t", A_poly=(-3,), B_poly=(0, 12),
        D_factors=((-1, 6), (1, 6)), k=INF,
        forced_zero_primes=frozenset({2, 3}))
    # (3/p) + (-3/p), the sum of the two bad a_t(p), and (-3/p), by p mod 12
    bad_sum = tuple(CHI_3[r] + CHI_M3[r % 3] for r in range(12))
    chi_m3 = tuple(CHI_M3[r % 3] for r in range(12))

    def bad_moments(self, blk):
        return blk.character(self.bad_sum), 2.0

    def A1(self, blk):
        # 12t runs over every residue, so all the a_t(p) sum to 0
        return -blk.character(self.bad_sum)

    def A2(self, blk):
        return (blk.pp - 2.0 * blk.pf - 2.0
                - blk.pf * blk.character(self.chi_m3))

    def sub_blocks(self, p_int: np.ndarray) -> list:
        return [np.array(ps, dtype=np.int64)
                for ps in _correlation_blocks(p_int.tolist())]

    def trace_histograms(self, p_int: np.ndarray) -> tuple:
        # a_t is the trace at s = 12t of _correlations(ps, -3), so the bad
        # t, 6t = 1 and -1, are the shifts s = 2 and -2
        on = np.arange(p_int.size)
        return _bin_traces(p_int, _correlations(p_int.tolist(), -3), (
            np.tile(on, 2), np.concatenate((np.full_like(p_int, 2),
                                            p_int - 2))))


REGISTRY = {e.spec.name: e for e in (
    [_Sextic(bb, kappa) for bb in (1, 2, 3, 6) for kappa in _KAPPAS]
    + [_Quartic("rank1_36t", 1, (1,), 1), _Quartic("rank0_36t", 2, CHI_2, 0),
       _NonCM()])}
BUILTIN_FAMILIES = {name: e.spec for name, e in REGISTRY.items()}


def builtin_entry(fam):
    """The registry entry of a registered name, or of a FamilySpec equal to
    the registered one in every field; None for every other family,
    including a config that only borrows a built-in's name."""
    if isinstance(fam, str):
        return REGISTRY.get(fam)
    entry = REGISTRY.get(fam.name)
    return entry if entry is not None and entry.spec == fam else None


class _BruteForce:
    """The entry of any family without closed forms: its traces at every
    t, so evaluate_S and rank_bias refuse a prime past its cap
    (check_cap); every other call refuses one from FLOAT_PRIME_LIMIT."""
    rank, lead, cap, threads = 0, None, BRUTE_FORCE_CAP, 1

    def __init__(self, spec: FamilySpec):
        self.spec, self.name = spec, spec.name

    moment_law = property(lambda self: self.spec)
    sieve_exponents = property(_own_exponents)

    def trace_histograms(self, p_int: np.ndarray) -> tuple:
        # one row of traces per prime, refused past the limit before it
        _check_float(int(p_int[-1]))
        traces = np.zeros((p_int.size, int(p_int[-1])), dtype=np.int64)
        bad = np.zeros(traces.shape, dtype=bool)
        for i, p in enumerate(p_int.tolist()):
            traces[i, :p], good = _curve_data(self.spec, p)
            bad[i, :p] = ~good
        return _bin_traces(p_int, traces, np.nonzero(bad))

    sub_blocks, a_tildes = _NonCM.sub_blocks, _Builtin.a_tildes

    def moments(self, blk):
        sums = _histogram_map(self, blk.p_int, lambda ps, h: _power_sums(h, 4))
        for p, (good, bad) in zip(blk.p_int.tolist(), sums):
            # sum a^4 = sum a^2 over the bad t iff each a is -1, 0 or 1
            if bad[4] != bad[2]:
                raise VerificationError(
                    f"|a_t({p})| > 1 at a bad t of {self.name!r}: the "
                    "closed-form S_A' sum needs a_t(p) in {-1, 0, 1}")
        A0, A1, A2, aprime1, aprime2 = np.asarray(
            [good[:3] + bad[1:3] for good, bad in sums],
            dtype=np.float64).reshape(-1, 5).T
        return A0, A1, A2, (aprime1, aprime2), _sieve_columns(self, blk)

    def A1(self, blk):
        return self.moments(blk)[1]


def entry_of(fam):
    """The entry that answers for a family (a FamilySpec, or a built-in's
    name): builtin_entry(fam), or a brute-force entry for every other
    family."""
    if isinstance(fam, str):
        fam = get_family(fam)
    return builtin_entry(fam) or _BruteForce(fam)


def check_cap(entry, x, what: str) -> None:
    """ResourceError when `what`, at x, passes the entry's cap."""
    if x > entry.cap:
        raise ResourceError(f"{what} {x:.0f} is past the brute-force cap "
                            f"{entry.cap} of the custom family "
                            f"{entry.name!r}; lower it")


def get_family(name: str) -> FamilySpec:
    try:
        return BUILTIN_FAMILIES[name]
    except KeyError:
        raise DomainError(f"unknown family {name!r}; built-ins: "
                          f"{sorted(BUILTIN_FAMILIES)}") from None


def _json_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"invalid family config: {value!r} is no integer")
    return value


def load_family(source) -> FamilySpec:
    """Build a FamilySpec from a JSON file path, JSON text or bytes, or a
    dict.  Coefficients, k and the forced-zero primes must be JSON integers
    (k may also be "inf" or null); an unreadable file, malformed JSON or any
    other value raises DomainError."""
    if isinstance(source, dict):
        cfg = source
    else:
        if not isinstance(source, bytes):
            source = str(source)
            if not source.lstrip().startswith("{"):
                source = read_config(source)
        try:
            cfg = json.loads(source)
        except ValueError as exc:
            raise DomainError(f"invalid family config: {exc}") from None
    try:
        k = cfg["k"]
        return FamilySpec(
            name=str(cfg["name"]),
            A_poly=_poly_trim([_json_int(c) for c in cfg["A"]]),
            B_poly=_poly_trim([_json_int(c) for c in cfg["B"]]),
            D_factors=tuple(_poly_trim([_json_int(c) for c in f])
                            for f in cfg["D_factors"]),
            k=INF if k in ("inf", None) else _json_int(k),
            forced_zero_primes=frozenset(
                _json_int(p) for p in cfg.get("forced_zero_primes", ())))
    except (KeyError, TypeError, AttributeError) as exc:
        raise DomainError(f"invalid family config: {exc}") from exc


def read_config(path) -> bytes:
    """The bytes of a family config file; DomainError if unreadable."""
    try:
        return pathlib.Path(path).read_bytes()
    except OSError as exc:
        raise DomainError(f"cannot read family config: {exc}") from None


# --------------------------------------------------------------------------
# Fourier coefficients and reduction type

def a_t_p(fam: FamilySpec, t: int, p: int) -> int:
    """a_t(p) = -sum_x legendre(x^3 + A(t)x + B(t), p), for all integers
    t; DomainError unless p is a prime."""
    t = integer(t, "t")
    if not is_prime(integer(p, "p")):
        raise DomainError(f"a_t(p) needs a prime p, got {p}")
    if p in fam.forced_zero_primes:
        return 0
    if p == 2:
        raise DomainError(
            "p = 2 requires a forced-zero designation for this family")
    return _a_for_coefficients(poly_eval_mod(fam.A_poly, t % p, p),
                               poly_eval_mod(fam.B_poly, t % p, p), p)


def _a_for_coefficients(a: int, b: int, p: int) -> int:
    """Trace of y^2 = x^3 + ax + b over F_p by an O(p) point count: the
    brute-force oracle for the closed-form traces below."""
    x = np.arange(p, dtype=np.int64)
    vals = (x * x % p * x + a * x + b) % p
    return -int(legendre_symbols_vec(vals, p).sum())


def reduction_type(fam: FamilySpec, t: int, p: int) -> str:
    """good / additive / split / nonsplit at a prime p >= 5 (minimal t)."""
    t = integer(t, "t")
    if integer(p, "p") < 5 or not is_prime(p):
        raise DomainError("reduction classification requires a prime p >= 5")
    if poly_eval_mod(fam.discriminant_poly(), t % p, p) != 0:
        return "good"
    a = a_t_p(fam, t, p)
    if a == 0:
        return "additive"
    if a == 1:
        return "split"
    if a == -1:
        return "nonsplit"
    raise VerificationError(
        f"a_t(p) = {a} at a bad prime: equation not minimal at t={t}, p={p}")


def _curve_data(fam: FamilySpec, p: int):
    """(a_values[t], good_mask[t]) for t = 0..p-1: a_t is the trace at
    s = c[t] of _correlations([p], a) at the a of its class
    (_curve_classes), one class transformed at a time.  A p past its
    limit is refused before any table of length p."""
    _check_float(p)
    good = poly_eval_mod(fam.discriminant_poly(),
                         np.arange(p, dtype=np.int64), p) != 0
    a_vals = np.zeros(p, dtype=np.int64)
    if p not in fam.forced_zero_primes:
        if p == 2:
            raise DomainError(
                "p = 2 requires a forced-zero designation for this family")
        coefficients, cls, c = _curve_classes(fam, p)
        for i in np.flatnonzero(np.bincount(cls)).tolist():
            row = _correlations([p], coefficients[i])[0]
            on = cls == i
            a_vals[on] = row[c[on]]
    return a_vals, good


def _least_generator(p: int) -> int:
    """The least generator of (Z/p)^* for an odd prime p: g = 2, 3, ...
    with g^((p-1)/q) != 1 for every prime q | p - 1, the q by trial
    division (_factorize), a few thousand steps below FLOAT_PRIME_LIMIT."""
    factors = _factorize(p - 1)
    return next(g for g in range(2, p)
                if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


def _curve_classes(fam: FamilySpec, p: int) -> tuple:
    """(coefficients, cls, c) over t = 0..p-1 for _curve_data: each A(t) =
    g^k != 0, g the least generator (_least_generator, a true generator
    for the discrete-log table), is g^i u^4 with i = k mod e, e =
    gcd(4, p - 1), u = g^j, 4j = k - i mod p - 1, and (A, B) ~ (A/u^4,
    B/u^6), so t is in class cls[t] = i, whose coefficient is a = g^i,
    at the shift c[t] = B/u^6; A(t) = 0 is class e, at a = 0.  Its other
    tables of length p are freed on return, before any transform."""
    t = np.arange(p, dtype=np.int64)
    a_coef = poly_eval_mod(fam.A_poly, t, p)
    b_coef = poly_eval_mod(fam.B_poly, t, p)
    e = math.gcd(4, p - 1)
    # g^t for t < p - 1, doubling the filled run each pass
    g = _least_generator(p)
    powers = np.ones(p - 1, dtype=np.int64)
    n = 1
    while n < p - 1:
        step = min(n, p - 1 - n)
        powers[n:n + step] = powers[:step] * pow(g, n, p) % p
        n *= 2
    log = np.zeros(p, dtype=np.int64)
    log[powers] = t[:-1]
    k = log[a_coef]
    j = k // e * pow(4 // e, -1, (p - 1) // e) % ((p - 1) // e)
    c = b_coef * powers[-6 * j % (p - 1)] % p
    cls = np.where(a_coef == 0, e, k % e)
    return powers[:e].tolist() + [0], cls, c


def _histogram_map(entry, p_int: np.ndarray, reduce) -> list:
    """reduce(ps, entry.trace_histograms(ps)), a sequence over ps, for each
    sub-block ps of entry.sub_blocks(p_int) in order on entry.threads
    workers (_sum.ordered_map), joined: every consumer's path to traces."""
    parts = ordered_map(lambda ps: reduce(ps, entry.trace_histograms(ps)),
                        entry.sub_blocks(p_int), entry.threads)
    return [x for part in parts for x in part]


def _bin_traces(p_int: np.ndarray, traces: np.ndarray, bad) -> tuple:
    """The trace histograms of a sub-block p_int from `traces`, one int64
    row per prime with its trace at each t < p and 0 past it, and `bad`,
    the (rows, columns) of its bad t: one bincount over the rows, each
    offset by its row, in one column per a in [-h, h], h = floor(2 sqrt(max
    p)).  A trace outside the Hasse range |a| <= floor(2 sqrt p) is an
    error.  The table is spent."""
    rows, top = traces.shape
    h = np.array([math.isqrt(4 * q) for q in p_int.tolist()])
    out = np.flatnonzero((traces.max(axis=1) > h) | (traces.min(axis=1) < -h))
    if out.size:
        raise VerificationError(
            f"trace outside the Hasse range at {p_int[out[0]]}")
    h = int(h[-1])
    traces += h + (2 * h + 1) * np.arange(rows)[:, None]
    good, bad = (np.bincount(x, minlength=rows * (2 * h + 1)).reshape(
        rows, 2 * h + 1) for x in (traces.ravel(), traces[bad]))
    good[:, h] -= top - p_int
    good -= bad
    return np.broadcast_to(np.arange(-h, h + 1), bad.shape), good, bad


def _power_sums(histograms, r_max: int) -> list:
    """[(good, bad)] per prime of a sub-block: the exact sums of n a^r over
    each row's good and bad counts for r <= r_max, in int64 while no row's
    sum of |n a^r| can reach 2^63, then in Python ints (object arrays)."""
    traces, *sides = histograms
    top, out = int(np.abs(traces).max(initial=0)), []
    for term in sides:
        size, sums = int(term.sum(axis=1).max(initial=0)), []
        for r in range(1, r_max + 2):
            sums.append(term.sum(axis=1).tolist())
            if size * top ** r >= 2 ** 63:
                term = term.astype(object)
            term = term * traces
        out.append(zip(*sums))
    return list(zip(*out))


def complete_moment(fam: FamilySpec, p: int, r: int, side: str = "good"):
    """Exact integer sum of a_t(p)^r over t mod p with p good (p not
    dividing Delta(t)) or bad (p | Delta(t)): _power_sums of the traces at
    every t (the brute-force entry's histograms)."""
    if not is_prime(integer(p, "p")):
        raise DomainError("p must be prime")
    if integer(r, "r") < 0:
        raise DomainError("r must be >= 0")
    if side not in ("good", "bad"):
        raise DomainError("side must be 'good' or 'bad'")
    return _histogram_map(_BruteForce(fam), np.array([p]),
                          lambda ps, h: _power_sums(h, r))[0][side == "bad"][r]


# --------------------------------------------------------------------------
# traces of the CM twists from the prime above p (Ireland & Rosen, ch. 18),
# as int64 array kernels over an ascending block of primes

#: the largest p at which the int64 kernels below are exact: a product of
#: two residues, at most (p - 1)^2, stays below 2^63
INT64_PRIME_LIMIT = math.isqrt(2 ** 63 - 1) + 1


def _check_int64(p: np.ndarray) -> None:
    if p.size and int(p.max()) > INT64_PRIME_LIMIT:
        raise ResourceError(
            f"p = {int(p.max())} is past {INT64_PRIME_LIMIT}, where the "
            "int64 residue arithmetic of the CM traces overflows")


_PYPOW = np.frompyfunc(pow, 3, 1)


def _powmod(base, exp, p):
    """base^exp mod p elementwise (broadcast), by square and multiply; on
    fewer than 64 elements, where numpy's per-call cost dominates, by
    Python's pow on each."""
    base = np.asarray(base, dtype=np.int64) % p
    exp = np.asarray(exp, dtype=np.int64)
    shape = np.broadcast_shapes(base.shape, exp.shape, np.shape(p))
    if math.prod(shape) < 64:
        return _PYPOW(base, exp, p).astype(np.int64).reshape(shape)
    out = np.ones(shape, dtype=np.int64)
    for bit in range(int(exp.max(initial=0)).bit_length()):
        if bit:
            base = base * base % p
        out = np.where(exp >> bit & 1, out * base % p, out)
    return out


def _isqrt(n: np.ndarray) -> np.ndarray:
    """floor(sqrt(n)) elementwise, for 0 <= n < 2^52."""
    r = np.sqrt(n.astype(np.float64)).astype(np.int64)
    r -= r * r > n
    return r + ((r + 1) * (r + 1) <= n)


@lru_cache(maxsize=None)
def _symbol_table(n: int) -> np.ndarray:
    """The Jacobi symbol (n/r) at r = 0..4n - 1 (0 at even r), built once
    per process: the blocks of one call share it."""
    table = np.array([jacobi_symbol(n, r) if r % 2 else 0
                      for r in range(4 * n)], dtype=np.int64)
    table.flags.writeable = False
    return table


def _residue_symbol(n: int, p: np.ndarray) -> np.ndarray:
    """The Legendre symbol (n/p) for n >= 1 at each odd prime p not
    dividing n, read off p mod 4n with no modular power: by quadratic
    reciprocity the Jacobi symbol (n/r) of odd r > 0 is periodic mod 4n
    (Ireland & Rosen, ch. 5), and it is (n/p) at a prime."""
    return _symbol_table(n)[p % (4 * n)]


def _sqrt_minus_one(p: np.ndarray) -> np.ndarray:
    """s with s^2 = -1 mod p for each p = 1 mod 4: n^((p-1)/4) with n the
    least quadratic non-residue, a prime, found by _residue_symbol on the
    primes not yet settled, with no modular power and no factoring."""
    nonres = np.zeros_like(p)
    todo = np.arange(p.size)
    n = 1
    while todo.size:
        n += 1
        if is_prime(n):
            hit = _residue_symbol(n, p[todo]) == -1
            nonres[todo[hit]] = n
            todo = todo[~hit]
    return _powmod(nonres, (p - 1) // 4, p)


def _sixth_roots(p: np.ndarray) -> np.ndarray:
    """h, a primitive sixth root of unity mod each p = 1 mod 3, as int64:
    -omega with omega = c^((p-1)/3) != 1, c the least non-cube, a prime
    (the cubes are a subgroup), tried on the primes not yet settled: two
    candidates in three pass, so about 1.5 modular powers per prime and
    no factoring."""
    omega = np.ones(p.shape, dtype=np.int64)
    todo = np.arange(p.size)
    c = 1
    while todo.size:
        c += 1
        if is_prime(c):
            omega[todo] = _powmod(c, (p[todo] - 1) // 3, p[todo])
            todo = todo[omega[todo] == 1]
    return p - omega


def _cornacchia(d: int, p: np.ndarray, s: np.ndarray) -> tuple:
    """(x, y) with x^2 + d y^2 = p and x + ys = 0 mod p, from a root s of
    s^2 = -d mod p (Cornacchia's algorithm), the Euclidean steps masked to
    the primes whose remainder is still above sqrt(p)."""
    r0, r1 = p, s % p
    bound = _isqrt(p)
    run = r1 > bound
    while run.any():
        r0, r1 = (np.where(run, r1, r0),
                  np.where(run, r0 % np.where(run, r1, 1), r1))
        run = r1 > bound
    x = r1
    y = _isqrt((p - x * x) // d)
    if np.any(x * x + d * y * y != p):
        raise VerificationError(f"Cornacchia found no x^2 + {d}y^2 = p")
    return x, np.where((x + y * s) % p == 0, y, -y)


def _gaussian_primes(p: np.ndarray, s: np.ndarray) -> tuple:
    """(a, b) for p = 1 mod 4: pi = a + bi the primary prime above p (b
    even, a + b = 1 mod 4) with pi = 0 under i -> s, s^2 = -1 mod p."""
    a, b = _cornacchia(1, p, s)
    odd = b % 2 == 1
    a, b = np.where(odd, -b, a), np.where(odd, a, b)       # times i
    sign = np.where((a + b) % 4 == 1, 1, -1)
    return sign * a, sign * b


def _a_ref_curves(p: np.ndarray) -> np.ndarray:
    """a_p of y^2 = x^3 - x for primes p = 1 mod 4: 2a for the primary
    a + bi above p (Ireland & Rosen, Thm 18.5 with D = 1).  Any root of -1
    serves: the conjugate prime has the same real part."""
    _check_int64(p)
    return 2 * _gaussian_primes(p, _sqrt_minus_one(p))[0]


def _quartic_classes(bb: int, p: np.ndarray) -> tuple:
    """(N, a), two (n, 4) arrays over primes p = 1 mod 4, r the least
    quadratic non-residue mod p: N[:, i] counts the t mod p whose
    c = bb(36t+6)(36t+5) lies in the class r^i (F_p^*)^4, and a[:, i] is
    the trace of y^2 = x^3 - r^i x.

    With s = r^((p-1)/4) (_sqrt_minus_one) as the root of -1, r^i has
    quartic index i.  For D with chi(D) = i^m the trace is 2 Re(i^-m pi).
    With u = 36t+6, c = bb u(u-1), and sum_u chi(u(u-1)) = chi(-1)
    J(chi, chi) = -pi gives N = ((p-2) + 2 Re(i^j (-pi)) - i^2j)/4 for the
    class i^m, where i^j = i^-m chi(bb).
    """
    s = _sqrt_minus_one(p)
    a, b = _gaussian_primes(p, s)
    traces = np.stack((2 * a, 2 * b, -2 * a, -2 * b), axis=1)
    re_minus_pi = np.stack((-2 * a, 2 * b, 2 * a, -2 * b), axis=1)
    roots = np.stack((np.ones_like(s), s, p - 1, p - s), axis=1)
    hit = roots == _powmod(bb, (p - 1) // 4, p)[:, None]
    if not hit.any(axis=1).all():
        raise VerificationError(f"{bb} has no quartic residue index")
    j = (hit.argmax(axis=1)[:, None] - np.arange(4)) % 4
    num = (p[:, None] - 2 + np.take_along_axis(re_minus_pi, j, axis=1)
           - (1 - 2 * (j % 2)))
    if np.any(num % 4):
        raise VerificationError("quartic class size not integral")
    return num // 4, traces


# the sixth roots of unity u + v*omega as the powers zeta^k of zeta =
# -omega^2 = 1 + omega: 1, 1 + omega, omega, -1, omega^2, -omega
_SIXTH_U = np.array((1, 1, 0, -1, -1, 0), dtype=np.int64)
_SIXTH_V = np.array((0, 1, 1, 0, -1, -1), dtype=np.int64)


def _times(u, v, a, b) -> tuple:
    """(u + v omega)(a + b omega) as (re, im), re + im omega."""
    return u * a - v * b, u * b + v * a - v * b


#: k by (a mod 3, b mod 3) for a + b omega = 2 zeta^-k mod 3, which
#: zeta^k makes primary (= 2 mod 3); 0 at the three residues of a norm
#: divisible by 3, which no prime above p = 1 mod 3 has
_PRIMARY = np.zeros((3, 3), dtype=np.int64)
_PRIMARY[2 * _SIXTH_U[-np.arange(6)] % 3,
         2 * _SIXTH_V[-np.arange(6)] % 3] = np.arange(6)


def _sextic_traces(bb: int, p: np.ndarray, h: np.ndarray,
                   powers) -> np.ndarray:
    """a_p of y^2 = x^3 + bb w^e for e in `powers`, an (n, len(powers))
    array over primes p = 1 mod 3, h a primitive sixth root of unity mod
    each p (_sixth_roots) and w any residue with w^((p-1)/6) = h:
    -2 Re(conj(chi) pi) with chi = (4c/pi)_6 and pi = a + b omega the
    primary prime above p (pi = 2 mod 3) (Ireland & Rosen, Thm 18.4).

    s = 2 h^2 + 1 is a root of -3, and pi = 0 under omega -> h^2 =
    (-1 + s)/2, under which zeta^k goes to h^k; one lookup on (a mod 3,
    b mod 3) (_PRIMARY) makes pi primary, and chi = zeta^(k + e) with h^k
    = (4 bb)^((p-1)/6)."""
    x, y = _cornacchia(3, p, (2 * (h * h % p) + 1) % p)
    a, b = x + y, 2 * y                       # sqrt(-3) = 1 + 2 omega
    k = _PRIMARY[a % 3, b % 3]
    a, b = _times(_SIXTH_U[k], _SIXTH_V[k], a, b)
    if np.any((a % 3 != 2) | (b % 3 != 0)):
        raise VerificationError("no primary associate above p")
    images = np.ones((p.size, 6), dtype=np.int64)
    for k in range(1, 6):
        images[:, k] = images[:, k - 1] * h % p
    hit = images == _powmod(4 * bb, (p - 1) // 6, p)[:, None]
    if not hit.any(axis=1).all():
        raise VerificationError("sextic residue symbol not a sixth root")
    k = (hit.argmax(axis=1)[:, None] + np.asarray(powers)) % 6
    u, v = _SIXTH_U[k], _SIXTH_V[k]
    # (conj(u + v omega))(a + b omega) = re + im omega; 2 Re = 2 re - im
    re, im = _times(u - v, -v, a[:, None], b[:, None])
    return im - 2 * re


# --------------------------------------------------------------------------
# closed-form moments for the built-ins

def closed_form_table(fam, primes, bad_max: int = 2) -> dict:
    """{(r, "good"): A_r for r <= 2, (m, "bad"): A'_m for m <= bad_max} of
    a built-in at ascending primes p >= 5, as lists of exact ints read off
    its registry arrays.  A'_0 counts the bad t; every bad a_t(p) is -1, 0
    or 1, so A'_m = A'_1 or A'_2 by the parity of m > 0.  DomainError for
    other families, and past p^2 = 2^53, where float64 is no longer exact.
    """
    entry = builtin_entry(fam)
    if entry is None:
        raise DomainError(f"no closed form registered for "
                          f"{getattr(fam, 'name', fam)!r}")
    if len(primes) and int(primes[-1]) ** 2 >= 2 ** 53:
        raise DomainError("closed forms are exact only while p^2 < 2^53")
    blk = Block(primes)
    cols = {(0, "good"): entry.A0(blk), (1, "good"): entry.A1(blk),
            (2, "good"): entry.A2(blk), (0, "bad"): entry.n_bad}
    bad = entry.bad_moments(blk)
    for m in range(1, bad_max + 1):
        cols[m, "bad"] = bad[1 - m % 2]
    return {key: np.broadcast_to(0 if col is None else col, blk.p_int.shape)
            .astype(np.int64).tolist() for key, col in cols.items()}


def closed_form_moment(fam, p: int, r: int, side: str = "good") -> int:
    """A_r (side "good", r <= 2) or A'_r (side "bad") of a built-in at one
    prime p >= 5: a one-prime closed_form_table.  DomainError otherwise;
    callers fall back to complete_moment."""
    if integer(p, "p") < 5 or not is_prime(p):
        raise DomainError("closed forms are registered for primes p >= 5")
    if side not in ("good", "bad"):
        raise DomainError("side must be 'good' or 'bad'")
    if integer(r, "r") < 0 or (side == "good" and r > 2):
        raise DomainError(f"no closed form registered for r={r}, {side}")
    return closed_form_table(fam, [p], r if side == "bad" else 0)[r, side][0]


def closed_form_failures(fam, prime_limit: int, checks: list) -> list:
    """(p, r, side, brute, closed) wherever a built-in's closed-form moment
    (r, side), for each of `checks` in turn, differs from the power sum of
    the traces at every t (the brute-force entry's, never the built-in's
    own) at a prime 5 <= p <= prime_limit; none without closed forms or
    without checks."""
    if builtin_entry(fam) is None or not checks:
        return []
    table = get_table(prime_limit)
    p_int = table.decode(table.index(5))
    r_max = max(r for r, side in checks)
    table = closed_form_table(fam, p_int, r_max)
    sums = _histogram_map(_BruteForce(entry_of(fam).spec), p_int,
                          lambda ps, h: _power_sums(h, r_max))
    return [(p, r, side, sums[i][side == "bad"][r], table[r, side][i])
            for i, p in enumerate(p_int.tolist()) for r, side in checks
            if sums[i][side == "bad"][r] != table[r, side][i]]


# --------------------------------------------------------------------------
# the cubic-moment quantity Atilde

def _a_tildes(p_int: np.ndarray, histograms) -> list:
    """Atilde(p) = S / (p * sqrt p) at each prime of a sub-block from its
    trace histograms, S the math.fsum over the good traces a, n of them
    (no row lists a nonzero a twice; see the module docstring), of the
    float64 n*a*a*a (exact while |n a^3| < 2^53, at every p below 10^6;
    past that the last product rounds, as at 1 825 217 and 2 150 023, the
    first such primes of rank1_36t and cm_b1_kappa1, where the tests bound
    the error) over p + 1 - a: the one recipe of a_tildes and moment_table.
    Only IEEE x, / and sqrt and fsum enter, so the bits depend on the
    multiset of traces alone: not on the batching, the worker count, the
    order of the terms or numpy's SIMD dispatch."""
    traces, good, _ = histograms
    # a = 0 adds nothing; the terms in row order
    row, col = np.divmod(np.flatnonzero(good * traces), good.shape[1])
    a, n = traces[row, col].astype(np.float64), good[row, col]
    pf = p_int.astype(np.float64)
    terms = (n * a * a * a / (pf[row] + 1.0 - a)).tolist()
    # one run of terms per prime with any
    starts = np.flatnonzero(np.diff(row, prepend=-1))
    ends = starts[1:].tolist() + [row.size]
    s = np.zeros(p_int.shape)
    s[row[starts]] = [math.fsum(terms[lo:hi])
                      for lo, hi in zip(starts.tolist(), ends)]
    return (s / (pf * np.sqrt(pf))).tolist()


@lru_cache(maxsize=4096)
def _smooth_length(m: int) -> int:
    """The least 5-smooth n = 2^i 3^j 5^k >= m, a length that numpy's FFT
    factors into radix-2, -3 and -5 passes.  Memoized: the cutting and the
    transform of one sub-block each ask for its length."""
    best = 1 << max(m - 1, 0).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # the least odd * 2^i >= m
            best = min(best, odd << (-(-m // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


#: the float64 elements (rows x FFT length) of one non-CM or brute-force
#: sub-block: the size of each batched non-CM transform
_CORRELATION_BUDGET = 1 << 16


#: the primes below which _exact_mod is exact on every residue grid of
#: the trace kernel, whose values stay below p^2 + 12p < 2^53
FLOAT_PRIME_LIMIT = 1 << 26


def _check_float(p: int) -> None:
    if p >= FLOAT_PRIME_LIMIT:
        raise ResourceError(
            f"p = {p} is past {FLOAT_PRIME_LIMIT}, where the float64 "
            "residues of the trace correlation lose exactness")


def _exact_mod(v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """v mod p, for integer-valued float64 0 <= v < 2^53 and a float64
    column of primes p: the quotient v / p then rounds to the right side of
    every integer, so v - p floor(v / p) is exact, at about half the cost
    of an int64 remainder."""
    return v - p * np.floor(v / p)


def _correlations(ps: list, a: int) -> np.ndarray:
    """The trace of y^2 = x^3 + ax + s at every s < p in O(p log p), for
    each p of an ascending list of primes below FLOAT_PRIME_LIMIT: an
    int64 array with one row per prime, row r holding -corr[s] at s < p_r
    and 0 after, where corr[s] = sum_v N[v] chi[(v + s) mod p], N the
    value histogram of x^3 + ax mod p and chi the Legendre symbol mod p.

    x^3 + ax is odd, so N is even and corr[p - s] = chi(-1) corr[s]: only
    the shifts s < (p + 1)/2 are transformed, and the rest of each row is
    its first half reversed, negated where p = 3 (mod 4).  N[v] counts v
    and -v over 0 < x < (p + 1)/2, and x = 0 once.  The circular
    correlation at those shifts is taken as a linear one at the 5-smooth
    length n >= (3 max(ps) - 1)/2 (an FFT at a prime length costs several
    times more, and a power of two pads up to twice as much), with N
    zero-padded and -chi tiled over [0, (3p - 1)/2): v + s < (3p - 1)/2
    never wraps around n.  Each prime is one row, and one rfft per array
    and one irfft along the rows transform the whole list, so numpy
    releases the GIL for the whole batch.  The tiled -chi is built
    directly, 1 off the squares x^2 and x^2 + p, and the residues are
    exact float64 arithmetic (_exact_mod).  The correlation is an integer
    at every shift, so any rounding slack of 1/4 or more is an error."""
    top = ps[-1]
    _check_float(top)
    half, width = (top + 1) // 2, (3 * top - 1) // 2
    n = _smooth_length(width)
    p = np.array(ps, dtype=np.int64)[:, None]
    pf = p.astype(np.float64)
    rows = len(ps)
    on = np.arange(rows)[:, None]
    # float64 operands throughout: numpy casts an int64 one through a buffer
    onf = on.astype(np.float64)
    x = np.arange(half, dtype=np.float64)
    x2 = _exact_mod(x * x, pf)
    value = _exact_mod((x2 + a % p) * x, pf)
    # row r counts v in bin r (top + 1) + v and -v in bin r (top + 1) +
    # p_r - v, so that -0 lands in bin p_r, added to bin 0 below; a column
    # x >= (p_r + 1)/2 repeats a residue up to sign, so it is counted in a
    # spare last bin, as is x = 0 among the -v
    stride = top + 1
    value = (value + stride * onf).astype(np.int64)
    bins = np.stack((value, p + 2 * stride * on - value), axis=1)
    np.copyto(bins, rows * stride, where=x >= (pf[:, None] + 1.0) / 2.0)
    bins[:, 1, 0] = rows * stride
    hist = np.zeros((rows, n))
    hist[:, :stride] = np.bincount(bins.ravel(), minlength=rows * stride + 1
                                   )[:-1].reshape(rows, stride)
    hist[on, 0] += hist[on, p]
    hist[on, p] = 0.0
    # -chi over row r's tile [0, (3 p_r - 1)/2) and 1 after, where no
    # shift s < (p_r + 1)/2 reads; a square x^2 + p_r past the tile marks
    # column (3 p_r - 1)/2 instead, in the tail or in a last spare column,
    # which the rfft drops where n = (3 top - 1)/2 (else it pads with 0).
    # The squares are one contiguous int64 array, so that numpy scatters
    # through them without a buffer of its own
    chi = np.ones((rows, width + 1))
    x2 = (x2[:, 1:] + (width + 1) * onf).astype(np.int64)
    squares = np.stack((x2, np.minimum(x2 + p, (3 * p - 1) // 2
                                       + (width + 1) * on)))
    chi.ravel()[squares] = -1.0
    chi[:, 0] = 0.0
    chi[on[:, 0], ps] = 0.0
    spectrum = np.conjugate(np.fft.rfft(hist, axis=1))
    spectrum *= np.fft.rfft(chi, n, axis=1)
    corr = np.fft.irfft(spectrum, n, axis=1)[:, :half]
    traces = np.rint(corr)
    corr -= traces
    bad = np.flatnonzero(np.abs(corr, out=corr).max(axis=1) >= 0.25)
    if bad.size:
        raise VerificationError(
            f"fft correlation not integral at {ps[bad[0]]}")
    out = np.empty((rows, top), dtype=np.int64)
    np.copyto(out[:, :half], traces, casting="unsafe")
    # trace(p - s) = chi(-1) trace(s) past each row's half, 0 past p
    for r, q in enumerate(ps):
        h = (q + 1) // 2
        np.multiply(out[r, h - 1:0:-1], -1 if q % 4 == 3 else 1,
                    out=out[r, h:q])
        out[r, q:] = 0
    return out


def _correlation_blocks(ps: list) -> list:
    """An ascending list of primes cut into consecutive sub-blocks of at
    most _CORRELATION_BUDGET float64 elements, rows x
    _smooth_length((3 max - 1)/2); a prime whose length alone exceeds the
    budget, any p > 43691, is a sub-block of its own."""
    blocks, n = [], 0
    for p in ps:
        if (3 * p - 1) // 2 > n:    # else n is still the least length for p
            n = _smooth_length((3 * p - 1) // 2)
        if blocks and (len(blocks[-1]) + 1) * n <= _CORRELATION_BUDGET:
            blocks[-1].append(p)
        else:
            blocks.append([p])
    return blocks


def a_tilde(fam: FamilySpec, p: int) -> float:
    """Atilde(p) = sum over good t of lambda_t(p)^3 / (p+1 - lambda_t(p)
    sqrt p): the family's entry's a_tildes on a block of one prime p >= 5
    (see the module docstring for each entry's method); DomainError for
    any other p, as the CM kernels hold only at primes."""
    if integer(p, "p") < 5 or not is_prime(p):
        raise DomainError("Atilde requires a prime p >= 5")
    return float(entry_of(fam).a_tildes(Block([p]).p_int)[0])


# --------------------------------------------------------------------------
# nu_D, H_{D,k}, and power-free sieving

def _integer_root(m: int, e: int) -> int:
    """floor(m^(1/e)) for integers m, e >= 1, by Newton's method from
    above, exact at any size."""
    x = 1 << -(-m.bit_length() // e)
    while (y := ((e - 1) * x + m // x ** (e - 1)) // e) < x:
        x = y
    return x


def _factorize(d: int) -> dict:
    """Prime factorization by trial division up to 10^5; past that, the
    cofactor must be a prime power, its root taken in integers; else
    ResourceError."""
    out = {}
    m = d
    for q in (2, 3, 5, 7, 11, 13):
        while m % q == 0:
            out[q] = out.get(q, 0) + 1
            m //= q
    q = 17
    while q * q <= m and q <= 10 ** 5:
        while m % q == 0:
            out[q] = out.get(q, 0) + 1
            m //= q
        q += 2
    if m > 1:
        for e in range(6, 0, -1):
            root = _integer_root(m, e)
            if root ** e == m and is_prime(root):
                out[root] = e
                break
        else:
            raise ResourceError(f"cannot factor {d} for nu_D")
    return out


def _mod_p(poly, p: int) -> list:
    """An integer polynomial mod p, without trailing zeros ([] for 0)."""
    out = [c % p for c in poly]
    while out and not out[-1]:
        out.pop()
    return out


def _poly_rem(a: list, b: list, p: int) -> list:
    """a mod b over F_p, for a nonzero b without trailing zeros."""
    a, inv = list(a), pow(b[-1], -1, p)
    for i in range(len(a) - len(b), -1, -1):
        q = a[i + len(b) - 1] * inv % p
        for j, c in enumerate(b):
            a[i + j] = (a[i + j] - q * c) % p
    return _mod_p(a[:len(b) - 1], p)


def _poly_gcd(a: list, b: list, p: int) -> list:
    """A gcd of a and b over F_p (a unit multiple of the monic one)."""
    while b:
        a, b = b, _poly_rem(a, b, p)
    return a


def _root_gcd(g: list, p: int) -> list:
    """gcd(g, x^p - x) over F_p for a nonzero g: a unit times the product
    of x - r over the distinct roots r of g mod p, so its degree counts
    them.  x^p mod g by square and multiply (von zur Gathen and Gerhard,
    *Modern Computer Algebra*, ch. 14); a g of degree <= 1 is its own."""
    if len(g) <= 2:
        return g
    h = [1]
    for bit in bin(p)[2:]:
        h = _poly_rem(poly_mul(h, h), g, p)
        if bit == "1":
            h = _poly_rem([0] + h, g, p)
    h += [0] * (2 - len(h))
    h[1] -= 1
    return _poly_gcd(g, _mod_p(h, p), p)


def _scan_root_count(factors, d: int) -> int:
    """#{t mod d : prod of factors(t) = 0 mod d} by scanning t mod d."""
    t = np.arange(d, dtype=np.int64)
    prod = np.ones(d, dtype=np.int64)
    for fac in factors:
        prod = prod * poly_eval_mod(fac, t, d) % d
    return int(np.count_nonzero(prod == 0))


def _strip_content(fac, p: int) -> tuple:
    """(c, g) with fac = p^c g, g nonzero mod p (fac is not zero)."""
    c = 0
    while all(a % p == 0 for a in fac):
        fac, c = tuple(a // p for a in fac), c + 1
    return c, fac


def _nu_prime_power(fam: FamilySpec, p: int, e: int) -> int:
    """nu_D(p^e) for a prime p.

    Each D factor is p^c times a factor that does not vanish mod p, so
    v_p(D(t)) = C + v_p(G(t)) with C the summed exponents c and G the
    product of the reduced factors.  The distinct roots of G mod p number
    deg gcd(G, x^p - x) over F_p (_root_gcd), whatever the degrees and p.
    A simple root lifts uniquely to every p^j (Hensel), so when that gcd
    is coprime to G' mod p the count is p^C times its degree; otherwise G
    is scanned mod p^(e-C), within _SCAN_LIMIT.
    """
    stripped = [_strip_content(fac, p) for fac in fam.D_factors]
    content, reduced = sum(c for c, _ in stripped), [g for _, g in stripped]
    if e <= content:
        return p ** e
    e -= content
    g_poly = [1]
    for fac in reduced:
        g_poly = poly_mul(g_poly, fac)
    roots = _root_gcd(_mod_p(g_poly, p), p)
    deriv = _mod_p([i * c for i, c in enumerate(g_poly)][1:], p)
    if len(_poly_gcd(roots, deriv, p)) == 1:
        return p ** content * (len(roots) - 1)
    if p ** e > _SCAN_LIMIT:
        raise ResourceError(
            f"non-simple root of D mod {p}: scan range exceeded")
    return p ** content * _scan_root_count(reduced, p ** e)


def nu_D(fam: FamilySpec, d: int) -> int:
    """#{t mod d : D(t) = 0 mod d} for D the product of the D factors: by
    the Chinese remainder theorem, the product of _nu_prime_power over the
    prime powers of d."""
    if integer(d, "d") < 1:
        raise DomainError("d must be >= 1")
    total = 1
    for p, e in _factorize(d).items():
        total *= _nu_prime_power(fam, p, e)
    return total


def sieve_exponent(fam: FamilySpec, exponent: int | None = None):
    """The sieve exponent k of H_{D,k}: `exponent` when given (an integer
    >= 3; it overrides the family's own, to reproduce reference
    tabulations computed under a different sieving convention), else the
    family's k; None for an unsieved family."""
    if exponent is None:
        return None if fam.k == INF else int(fam.k)
    exponent = integer(exponent, "sieve exponent override")
    if exponent < 3:
        raise DomainError("sieve exponent override must be >= 3")
    return exponent


def _sieve_block(fam: FamilySpec, blk: Block, k) -> tuple:
    """(nu, nu/(p^k - nu)) over a Block, (0, None) for k None: nu =
    nu_D(p^k), a built-in's n_bad at p >= 5 (its bad t, simple roots that
    lift by Hensel; a scalar on a block of primes >= 5), else
    _nu_prime_power.  DomainError where nu >= p^k: no t is k-power free."""
    if k is None:
        return 0, None
    p_int, entry = blk.p_int, builtin_entry(fam)
    first = p_int.size if entry is None else int(p_int.searchsorted(5))
    nu = entry.n_bad if entry else 0
    if first:
        nu = np.full(p_int.shape, nu, dtype=np.int64)
        for i, p in enumerate(p_int[:first].tolist()):
            nu_p = _nu_prime_power(fam, p, k)
            if nu_p >= p ** k:
                raise DomainError(
                    f"degenerate sieve: nu_D({p}^{k}) = {nu_p} >= p^k")
            nu[i] = nu_p
    weight = blk.power(k) - nu
    return nu, np.divide(nu, weight, out=weight)


def sieve_weights(fam: FamilySpec, p_int: np.ndarray, k: int | None
                  ) -> np.ndarray:
    """The sieve part nu/(p^k - nu) of H_{D,k}(p), nu = nu_D(p^k), as
    float64 over an ascending int64 block of primes (0.0 for k None):
    correctly rounded while p^k < 2^53, within one ulp past that."""
    h = _sieve_block(fam, Block(p_int), k)[1]
    return np.zeros(p_int.shape) if h is None else h


def h_factor(fam: FamilySpec, p: int, exponent: int | None = None):
    """H_{D,k}(p) split as (main, sieve) = (1, nu/(p^k - nu)), k =
    sieve_exponent(fam, exponent): sieve_weights on a block of one prime."""
    k = sieve_exponent(fam, exponent)
    if not is_prime(integer(p, "p")):
        raise DomainError("p must be prime")
    if k is None:
        return (1.0, 0.0)
    return 1.0, float(sieve_weights(fam, np.array([p]), k)[0])


@dataclass(frozen=True)
class SieveWindow:
    N: int
    good_t: np.ndarray        # bool mask over t = N..2N inclusive
    W: int


def _clear_roots(good, N: int, fac, p: int, k: int, dtype) -> None:
    """Clear the t of the window with p^k | fac(t) = p^c g(t): each root r
    of g mod p has its lifts t = r mod p in [r, r + p^(k-c)) tested in
    dtype, and each lift with p^(k-c) | g(t) clears its class."""
    c, g = _strip_content(fac, p)
    if c >= k:
        good[:] = False
        return
    m, t = p ** (k - c), np.arange(N, N + min(p, good.size))
    for r in t[poly_eval_mod(g, t, p) == 0].tolist():
        lifts = np.arange(r, min(r + m, 2 * N + 1), p, dtype=dtype)
        for h in lifts[poly_eval(g, lifts) % m == 0].tolist():
            good[h - N::m] = False


def sieve_window(fam: FamilySpec, N: int) -> SieveWindow:
    """Mark t in [N, 2N] at which no D factor f has p^k | f(t), a zero
    included.  |f| <= B = sum |c_i| (2N)^i there, so _clear_roots runs at
    each prime p <= B^(1/k) + 1 (2 for a zero), in int64 if B < 2^63.
    ResourceError where B^(1/k) passes _WINDOW_ROOT_LIMIT, unless an m^k
    below it divides f's content, which clears the window.  Factors are
    tested one by one, nu_D counts D's roots: sieve_density."""
    if integer(N, "N") < 1:
        raise DomainError("N must be >= 1")
    if N > 10 ** 7:
        raise ResourceError("window start capped at 1e7")
    good = np.ones(N + 1, dtype=bool)
    k = sieve_exponent(fam)
    for fac in fam.D_factors if k else ():
        bound = sum(abs(c) * (2 * N) ** i for i, c in enumerate(fac))
        dtype = np.int64 if bound < 2 ** 63 else object
        root, content = _integer_root(bound, k), math.gcd(*fac)
        if root > _WINDOW_ROOT_LIMIT and good.any() and all(content % m ** k
                for m in range(2, min(content + 1, _WINDOW_ROOT_LIMIT))):
            raise ResourceError(f"sieve_window would scan to {root} for the "
                                f"D factor {fac}, past {_WINDOW_ROOT_LIMIT}")
        for p in filter(is_prime, range(2, root + 2)):
            if not good.any():
                break
            _clear_roots(good, N, fac, p, k, dtype)
    return SieveWindow(N=N, good_t=good, W=int(np.count_nonzero(good)))


def sieve_density(fam: FamilySpec, prime_limit: int = 10 ** 3) -> float:
    """prod_p (1 - nu_D(p^k)/p^k) over p <= prime_limit: the limiting W/N
    of sieve_window if no two D factors share a root mod p (t (t + 5) with
    k = 3 has nu_D(125) = 10, where the window clears 2 classes mod 125)."""
    if fam.k == INF:
        return 1.0
    k = int(fam.k)
    out = 1.0
    for p in get_table(prime_limit).primes:
        out *= 1.0 - _nu_prime_power(fam, int(p), k) / int(p) ** k
    return out


# --------------------------------------------------------------------------
# quadratic Legendre sums and the rank average

def quadratic_legendre_sum(a: int, b: int, c: int, p: int) -> int:
    """sum_t legendre(a t^2 + b t + c, p): (p-1)(a/p) if p | b^2 - 4ac,
    else -(a/p)."""
    a, b, c, p = (integer(x, name) for x, name in zip((a, b, c, p), "abcp"))
    if p <= 2 or not is_prime(p):
        raise DomainError("p must be an odd prime")
    if a % p == 0 and b % p == 0:
        raise DomainError("a and b must not both vanish mod p")
    if a % p == 0:
        return 0  # sum of a full period of legendre(b t + c)
    if (b * b - 4 * a * c) % p == 0:
        return (p - 1) * legendre_symbol(a, p)
    return -legendre_symbol(a, p)


def quadratic_legendre_sum_brute(a: int, b: int, c: int, p: int) -> int:
    t = np.arange(p, dtype=np.int64)
    vals = (a % p * t % p * t + b % p * t + c) % p
    return int(legendre_symbols_vec(vals, p).sum())


def rank_bias(fam, X: float) -> float:
    """(1/X) sum_{p <= X} -(A_1(p) / p) log p; tends to the rank.

    A_1 is the family's entry's A1 column alone: a built-in's closed form,
    or the power sum of the traces, whose X may not pass BRUTE_FORCE_CAP.
    """
    if not (isinstance(X, numbers.Real) and 10 ** 3 <= X < math.inf):
        raise DomainError(f"X must be finite and >= 1e3, got {X!r}")
    entry = entry_of(fam)
    check_cap(entry, X, "rank-bias X")
    table = get_table(int(X))
    total = 0.0
    for p_int in table.blocks(table.index(5)):   # one sequential sum
        a1 = entry.A1(Block(p_int))
        for p, m in zip(p_int.tolist(), [] if a1 is None else a1.tolist()):
            if m:
                total -= m / p * math.log(p)
    return total / X


# --------------------------------------------------------------------------
# per-prime summary table

@dataclass(frozen=True)
class MomentTable:
    p: int
    moments: tuple            # A_r for r = 0..r_max
    bad_moments: tuple        # A'_m for m = 0..r_max
    a_tilde: float
    nu: int
    h: tuple                  # (main, sieve) parts of H_{D,k}(p)


def moment_table(fam, primes, r_max: int = 8) -> list:
    """One MomentTable per prime of an ascending block, for a FamilySpec or
    a built-in's name: nu and H_sieve from one _sieve_block, the moments
    and Atilde (0.0 below p = 5) from one trace histogram per prime
    (_histogram_map), the per-t tables' below 5 and the entry's from 5 on."""
    if integer(r_max, "r_max") < 0:
        raise DomainError("r_max must be >= 0")
    p_int = np.asarray(primes)
    if p_int.size and p_int.dtype.kind not in "iu":
        raise DomainError(f"moment_table needs integer primes, got "
                          f"{p_int.dtype} entries")
    p_int = p_int.astype(np.int64)
    if (p_int.ndim != 1 or np.any(np.diff(p_int) <= 0)
            or not all(map(is_prime, p_int.tolist()))):
        raise DomainError("moment_table needs an ascending block of primes")
    def reduce(ps, h):
        return list(zip(_power_sums(h, r_max), _a_tildes(ps, h)))

    entry = entry_of(fam)
    fam, first = entry.spec, int(p_int.searchsorted(5))
    rows = (_histogram_map(_BruteForce(fam), p_int[:first], reduce)
            + _histogram_map(entry, p_int[first:], reduce))
    nus, hs = _sieve_block(fam, Block(p_int), sieve_exponent(fam))
    nus = np.broadcast_to(nus, p_int.shape).tolist()
    hs = [0.0] * len(nus) if hs is None else hs.tolist()
    return [MomentTable(p=p, moments=good, bad_moments=bad,
                        a_tilde=a if p >= 5 else 0.0, nu=nu, h=(1.0, h))
            for p, ((good, bad), a), nu, h in zip(
                p_int.tolist(), rows, nus, hs)]
