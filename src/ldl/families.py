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

A family is treated as built-in only when it equals the registered
FamilySpec in every field; a config that merely borrows a built-in's name
takes the brute-force paths.

Atilde(p) is computed per family as follows:

* CM built-ins, O(log p) per prime: the trace of each twist y^2 = x^3 + c
  (resp. y^2 = x^3 - Dx) is read off the primary prime pi above p in Z[omega]
  (resp. Z[i]), found by Cornacchia's algorithm, and the sextic (resp.
  quartic) residue symbol of the twist (Ireland & Rosen, *A Classical
  Introduction to Modern Number Theory*, ch. 18, Thms 18.4 and 18.5).  For
  the quartic pair the number of t in each quartic class comes from the
  Jacobi sum J(chi, chi) = -chi(-1) pi.
* ``noncm_3x12t``: an FFT correlation, O(p log p) per prime.
* any other family: brute-force point counts, O(p^2) per prime.

Root counts nu_D(p^k) use Hensel lifting whenever the roots of D mod p are
simple, and a scan of t mod p^k otherwise.

Every closed-form moment registered here is cross-checked against the brute
O(p^2) sum in the test suite for all primes up to 300.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError, ResourceError, VerificationError
from .primes import (get_table, is_prime, legendre_symbol,
                     legendre_symbols_vec)

_SCAN_LIMIT = 10 ** 6


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


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_pow(a, n):
    out = [1]
    for _ in range(n):
        out = _poly_mul(out, a)
    return out


def _poly_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)]


def _poly_scale(a, c):
    return [c * x for x in a]


def _poly_trim(a):
    while len(a) > 1 and a[-1] == 0:
        a = a[:-1]
    return tuple(a)


def poly_resultant(f, g) -> int:
    """Resultant of two integer polynomials via the Sylvester matrix."""
    f, g = list(_poly_trim(f)), list(_poly_trim(g))
    m, n = len(f) - 1, len(g) - 1
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
    size = m + n
    rows = []
    for i in range(n):
        rows.append([0] * i + f[::-1] + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + g[::-1] + [0] * (size - n - 1 - i))
    mat = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if mat[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, size):
            factor = mat[r][col] * inv
            if factor:
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
    assert det.denominator == 1
    return int(det)


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
        if not (self.k == INF or (self.k == int(self.k) and self.k >= 3)):
            raise DomainError("sieve exponent k must be >= 3 or infinite")

    def discriminant_poly(self) -> tuple:
        a3 = _poly_pow(list(self.A_poly), 3)
        b2 = _poly_pow(list(self.B_poly), 2)
        return _poly_trim(_poly_scale(
            _poly_add(_poly_scale(a3, 4), _poly_scale(b2, 27)), -16))

    def discriminant_at(self, t: int) -> int:
        return poly_eval(self.discriminant_poly(), t)

    def d_product_at(self, t: int) -> int:
        v = 1
        for fac in self.D_factors:
            v *= poly_eval(fac, t)
        return v


def _check_factor_resultants(fam: FamilySpec) -> None:
    """No prime >= 5 may divide the resultant of two distinct D factors."""
    for i in range(len(fam.D_factors)):
        for j in range(i + 1, len(fam.D_factors)):
            res = abs(poly_resultant(fam.D_factors[i], fam.D_factors[j]))
            if res == 0:
                raise VerificationError(
                    f"{fam.name}: D factors {i},{j} share a root")
            while res % 2 == 0:
                res //= 2
            while res % 3 == 0:
                res //= 3
            if res != 1:
                raise VerificationError(
                    f"{fam.name}: D factors {i},{j} share a prime >= 5")


def _builtin_registry() -> tuple[dict, dict]:
    """(name -> FamilySpec, name -> closed-form dispatch key)."""
    reg, kinds = {}, {}
    for bb in (1, 2, 3, 6):
        for kappa in (1, 2):
            name = f"cm_b{bb}_kappa{kappa}"
            b_poly = _poly_trim(_poly_scale(_poly_pow([1, 6], kappa), bb))
            reg[name] = FamilySpec(
                name=name, A_poly=(0,), B_poly=b_poly,
                D_factors=((1, 6),), k=6 // kappa,
                forced_zero_primes=frozenset({2, 3}))
            kinds[name] = ("sextic", bb, kappa)
    for bb, name in ((1, "rank1_36t"), (4, "rank0_36t")):
        a_poly = _poly_trim(_poly_scale(_poly_mul([6, 36], [5, 36]), -bb))
        reg[name] = FamilySpec(
            name=name, A_poly=a_poly, B_poly=(0,),
            D_factors=((6, 36), (5, 36)), k=3,
            forced_zero_primes=frozenset({2, 3}))
        kinds[name] = ("quartic", bb)
    reg["noncm_3x12t"] = FamilySpec(
        name="noncm_3x12t", A_poly=(-3,), B_poly=(0, 12),
        D_factors=((-1, 6), (1, 6)), k=INF,
        forced_zero_primes=frozenset({2, 3}))
    kinds["noncm_3x12t"] = ("noncm",)
    for fam in reg.values():
        _check_factor_resultants(fam)
    return reg, kinds


BUILTIN_FAMILIES, _BUILTIN_KINDS = _builtin_registry()


def family_kind(fam) -> tuple:
    """The closed-form dispatch key of a family: ("sextic", bb, kappa),
    ("quartic", bb) or ("noncm",) for a built-in -- a registered name, or
    a FamilySpec equal to the registered one in every field -- and
    ("custom",) for every other family, including a config that only
    borrows a built-in's name."""
    if isinstance(fam, str):
        fam = BUILTIN_FAMILIES.get(fam)
    if fam is not None and fam == BUILTIN_FAMILIES.get(fam.name):
        return _BUILTIN_KINDS[fam.name]
    return ("custom",)


def get_family(name: str) -> FamilySpec:
    try:
        return BUILTIN_FAMILIES[name]
    except KeyError:
        raise DomainError(f"unknown family {name!r}; built-ins: "
                          f"{sorted(BUILTIN_FAMILIES)}") from None


def load_family(source) -> FamilySpec:
    """Build a FamilySpec from a JSON file path, JSON text, or dict."""
    if isinstance(source, dict):
        cfg = source
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            cfg = json.loads(text)
        else:
            with open(text, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
    try:
        k = cfg["k"]
        k = INF if k in ("inf", None) else int(k)
        return FamilySpec(
            name=str(cfg["name"]),
            A_poly=_poly_trim([int(c) for c in cfg["A"]]),
            B_poly=_poly_trim([int(c) for c in cfg["B"]]),
            D_factors=tuple(_poly_trim([int(c) for c in f])
                            for f in cfg["D_factors"]),
            k=k,
            forced_zero_primes=frozenset(
                int(p) for p in cfg.get("forced_zero_primes", ())))
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"invalid family config: {exc}") from exc


# --------------------------------------------------------------------------
# Fourier coefficients and reduction type

def a_t_p(fam: FamilySpec, t: int, p: int) -> int:
    """a_t(p) = -sum_x legendre(x^3 + A(t)x + B(t), p), for all t."""
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
    """good / additive / split / nonsplit at p (p >= 5, minimal t)."""
    if p < 5:
        raise DomainError("reduction classification requires p >= 5")
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


@lru_cache(maxsize=512)
def _curve_data(fam: FamilySpec, p: int):
    """(a_values[t], good_mask[t]) for t = 0..p-1; one O(p^2) pass."""
    t = np.arange(p, dtype=np.int64)
    disc = poly_eval_mod(fam.discriminant_poly(), t, p)
    good = disc != 0
    a_vals = np.zeros(p, dtype=np.int64)
    if p not in fam.forced_zero_primes:
        if p == 2:
            raise DomainError(
                "p = 2 requires a forced-zero designation for this family")
        a_coef = poly_eval_mod(fam.A_poly, t, p)
        b_coef = poly_eval_mod(fam.B_poly, t, p)
        x = np.arange(p, dtype=np.int64)
        cubes = x * x % p * x % p
        table = legendre_symbols_vec(np.arange(p, dtype=np.int64), p)
        for ti in range(p):
            vals = (cubes + a_coef[ti] * x + b_coef[ti]) % p
            a_vals[ti] = -int(table[vals].sum())
    a_vals.setflags(write=False)
    good.setflags(write=False)
    return a_vals, good


def complete_moment(fam: FamilySpec, p: int, r: int, side: str = "good"):
    """Exact integer sum of a_t(p)^r over t mod p with p good (p not
    dividing Delta(t)) or bad (p | Delta(t))."""
    if not is_prime(p) or p < 2:
        raise DomainError("p must be prime")
    if r < 0:
        raise DomainError("r must be >= 0")
    if side not in ("good", "bad"):
        raise DomainError("side must be 'good' or 'bad'")
    a_vals, good = _curve_data(fam, p)
    mask = good if side == "good" else ~good
    return sum(int(a) ** r for a in a_vals[mask])


# --------------------------------------------------------------------------
# traces of the CM twists from the prime above p (Ireland & Rosen, ch. 18)

def _cornacchia(d: int, p: int, s: int) -> tuple:
    """(x, y) with x^2 + d y^2 = p and x + ys = 0 mod p, from a root s of
    s^2 = -d mod p (Cornacchia's algorithm)."""
    r0, r1 = p, s
    bound = math.isqrt(p)
    while r1 > bound:
        r0, r1 = r1, r0 % r1
    x = r1
    y = math.isqrt((p - x * x) // d)
    if x * x + d * y * y != p:
        raise VerificationError(f"Cornacchia found no x^2 + {d}y^2 = {p}")
    return (x, y) if (x + y * s) % p == 0 else (x, -y)


def _gaussian_prime(p: int) -> tuple:
    """(a, b, s) for p = 1 mod 4: s^2 = -1 mod p, and pi = a + bi the
    primary prime above p (b even, a + b = 1 mod 4) with pi = 0 under
    i -> s."""
    n = 2
    while legendre_symbol(n, p) != -1:
        n += 1
    s = pow(n, (p - 1) // 4, p)
    a, b = _cornacchia(1, p, s)
    if b % 2:
        a, b = -b, a                          # times i
    if (a + b) % 4 != 1:
        a, b = -a, -b
    return a, b, s


def _quartic_index(n: int, p: int, s: int) -> int:
    """m with (n/pi)_4 = i^m, i.e. n^((p-1)/4) = s^m mod p."""
    return (1, s, p - 1, p - s).index(pow(n, (p - 1) // 4, p))


def _a_ref_curve(p: int) -> int:
    """a_p of y^2 = x^3 - x: 2a for the primary a + bi above p = 1 mod 4
    (Ireland & Rosen, Thm 18.5 with D = 1); 0 for p = 3 mod 4."""
    if p % 4 != 1:
        return 0
    return 2 * _gaussian_prime(p)[0]


# the sixth roots of unity u + v*omega: 1, omega, omega^2, -1, -omega,
# -omega^2
_SIXTH_ROOTS = ((1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1))


def _eisenstein_prime(p: int) -> tuple:
    """(a, b, images) for p = 1 mod 3: pi = a + b*omega the primary prime
    above p (pi = 2 mod 3) with pi = 0 under omega -> (-1 + s)/2, s^2 = -3
    mod p, and the residues of _SIXTH_ROOTS under that map."""
    s = _sqrt_mod_p(-3, p)
    x, y = _cornacchia(3, p, s)
    a, b = x + y, 2 * y                       # sqrt(-3) = 1 + 2 omega
    w = (s - 1) * ((p + 1) // 2) % p
    images = tuple((u + v * w) % p for u, v in _SIXTH_ROOTS)
    for _ in range(6):
        if a % 3 == 2 and b % 3 == 0:
            return a, b, images
        a, b = b, b - a                       # times -omega
    raise VerificationError(f"no primary associate of {a} + {b}omega")


def _a_sextic(c: int, p: int, pi: tuple) -> int:
    """a_p of y^2 = x^3 + c, c != 0 mod p: -2 Re(conj(chi) pi) with chi =
    (4c/pi)_6 (Ireland & Rosen, Thm 18.4)."""
    a, b, images = pi
    u, v = _SIXTH_ROOTS[images.index(pow(4 * c, (p - 1) // 6, p))]
    cu, cv = u - v, -v                        # conj(u + v omega)
    # (cu + cv omega)(a + b omega) = re + im omega; 2 Re = 2 re - im
    re = cu * a - cv * b
    im = cu * b + cv * a - cv * b
    return im - 2 * re


# --------------------------------------------------------------------------
# closed-form moments for the built-ins

def _closed_b1(bb: int, kappa: int, p: int, r: int, side: str):
    if side == "bad":
        return 1 if r == 0 else 0
    if r == 0:
        return p - 1
    if r == 1:
        return 0
    if r == 2:
        return 2 * p * p - 2 * p if p % 3 == 1 else 0
    return None


def _closed_b2(bb: int, p: int, r: int, side: str):
    if side == "bad":
        return 2 if r == 0 else 0
    if r == 0:
        return p - 2
    if p % 4 != 1:
        return 0 if r in (1, 2) else None
    if r == 1:
        # the rank-0 member is the quadratic twist by 2 of the rank-1 one,
        # so its coefficient sums carry an extra (2/p)
        return -2 * p * (legendre_symbol(2, p) if bb == 4 else 1)
    if r == 2:
        return 2 * p * (p - 1) - _a_ref_curve(p) ** 2
    return None


def _closed_b3(p: int, r: int, side: str):
    s3 = legendre_symbol(3, p)
    sm3 = legendre_symbol(-3, p)
    if side == "bad":
        # one bad t on each discriminant factor, with a_t(p) = (3/p) and
        # (-3/p) respectively
        return s3 ** r + sm3 ** r
    if r == 0:
        return p - 2
    if r == 1:
        return -(s3 + sm3)
    if r == 2:
        return p * p - 2 * p - 2 - p * sm3
    return None


def closed_form_moment(fam, p: int, r: int, side: str = "good"):
    """Closed-form moment for a built-in family, p >= 5.

    Raises DomainError when no closed form is registered for (family, r,
    side); callers fall back to complete_moment.
    """
    name = fam if isinstance(fam, str) else fam.name
    if p < 5 or not is_prime(p):
        raise DomainError("closed forms are registered for primes p >= 5")
    if side not in ("good", "bad"):
        raise DomainError("side must be 'good' or 'bad'")
    val = None
    kind = family_kind(fam)
    if kind[0] == "sextic":
        val = _closed_b1(kind[1], kind[2], p, r, side)
    elif kind[0] == "quartic":
        val = _closed_b2(kind[1], p, r, side)
    elif kind[0] == "noncm":
        val = _closed_b3(p, r, side)
    if val is None:
        raise DomainError(
            f"no closed form registered for {name}, r={r}, side={side}")
    return val


# --------------------------------------------------------------------------
# the cubic-moment quantity Atilde

def _lambda_cubed_weight(a_vals: np.ndarray, p: int) -> float:
    lam = a_vals / math.sqrt(p)
    return float(np.sum(lam ** 3 / (p + 1 - a_vals)))


def _find_generator(p: int) -> int:
    """A generator of (Z/p)^*; p - 1 is small enough to factor directly."""
    fac = []
    m = p - 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            fac.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        fac.append(m)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
    raise VerificationError(f"no generator found mod {p}")


def _a_tilde_b1(bb: int, kappa: int, p: int) -> float:
    # y^2 = x^3 + c with c = bb*(6t+1)^kappa: a depends only on the sextic
    # residue class of c, and 6t+1 covers each nonzero residue once
    if p % 3 != 1:
        return 0.0
    g = _find_generator(p)
    pi = _eisenstein_prime(p)
    a_reps = np.array([_a_sextic(bb * pow(g, i * kappa, p) % p, p, pi)
                       for i in range(6)], dtype=np.int64)
    if kappa == 1:
        mult = (p - 1) // 6
        return mult * _lambda_cubed_weight(a_reps, p)
    # kappa = 2: u^2 runs over indices 2i mod 6; each class hit (p-1)/3 times
    classes = sorted({(2 * i) % 6 for i in range(6)})
    sub = a_reps[classes]
    return (p - 1) // 3 * _lambda_cubed_weight(sub, p)


def _quartic_class_data(bb: int, p: int) -> list:
    """[(N_i, a_i)] for i = 0..3 and p = 1 mod 4, g the least generator
    mod p: N_i counts the t mod p whose c = bb(36t+6)(36t+5) lies in the
    class g^i (F_p^*)^4, and a_i is the trace of y^2 = x^3 - g^i x.

    For D in the quartic class chi(D) = i^m the trace is 2 Re(i^-m pi).
    With u = 36t+6, c = bb u(u-1), and sum_u chi(u(u-1)) = chi(-1) J(chi,
    chi) = -pi gives N = ((p-2) + 2 Re(i^j (-pi)) - i^2j)/4 for the class
    i^m, where i^j = i^-m chi(bb).
    """
    a, b, s = _gaussian_prime(p)
    traces = (2 * a, 2 * b, -2 * a, -2 * b)       # 2 Re(i^-m pi)
    re_minus_pi = (-2 * a, 2 * b, 2 * a, -2 * b)  # 2 Re(i^j (-pi))
    m_bb = _quartic_index(bb, p, s)
    g = _find_generator(p)
    out = []
    for i in range(4):
        m = _quartic_index(pow(g, i, p), p, s)
        j = (m_bb - m) % 4
        count, rem = divmod(p - 2 + re_minus_pi[j] - (-1) ** j, 4)
        if rem:
            raise VerificationError(f"quartic class size not integral at {p}")
        out.append((count, traces[m]))
    return out


def _a_tilde_b2(bb: int, p: int) -> float:
    # y^2 = x^3 - c x with c = bb*(36t+6)(36t+5): a depends only on the
    # quartic residue class of c
    if p % 4 != 1:
        return 0.0
    total = 0.0
    sqrt_p = math.sqrt(p)
    for count, a in _quartic_class_data(bb, p):
        lam = a / sqrt_p
        total += count * lam ** 3 / (p + 1 - a)
    return total


def _a_tilde_b3(p: int) -> float:
    # a_t = -(chi * N)(12t) where N is the value histogram of x^3 - 3x and
    # chi the Legendre table: a circular cross-correlation, done with FFTs
    x = np.arange(p, dtype=np.int64)
    vals = (x * x % p * x - 3 * x) % p
    hist = np.bincount(vals, minlength=p).astype(np.float64)
    chi = legendre_symbols_vec(np.arange(p, dtype=np.int64), p)
    chi_f = chi.astype(np.float64)
    # corr[s] = sum_v hist[v] * chi[(v + s) mod p]
    corr = np.fft.irfft(np.conj(np.fft.rfft(hist)) * np.fft.rfft(chi_f), p)
    a_all = -np.rint(corr).astype(np.int64)
    if np.any(np.abs(a_all) > 2 * math.isqrt(p) + 2):
        raise VerificationError(f"fft correlation out of Hasse range at {p}")
    # a_t corresponds to shift 12t; bad t are the roots of (6t-1)(6t+1)
    shifts = 12 * np.arange(p, dtype=np.int64) % p
    a_vals = a_all[shifts]
    disc = (6 * np.arange(p, dtype=np.int64) % p + 1) * \
        (6 * np.arange(p, dtype=np.int64) % p - 1) % p
    good = disc != 0
    return _lambda_cubed_weight(a_vals[good], p)


_FFT_SAFE_LIMIT = 60_000


def a_tilde(fam: FamilySpec, p: int) -> float:
    """Atilde(p) = sum over good t of lambda_t(p)^3 / (p+1 - lambda_t(p) sqrt p).

    Built-in CM families: closed forms in O(log p), the traces of the
    sextic and quartic twists read off the primary prime above p
    (Ireland & Rosen, Thms 18.4 and 18.5).  ``noncm_3x12t``: an FFT
    correlation up to _FFT_SAFE_LIMIT.  Every other family, and any config
    that only borrows a built-in's name: brute-force point counts.
    """
    if p < 5:
        raise DomainError("Atilde requires p >= 5")
    kind = family_kind(fam)
    if kind[0] == "sextic":
        return _a_tilde_b1(kind[1], kind[2], p)
    if kind[0] == "quartic":
        return _a_tilde_b2(kind[1], p)
    if kind[0] == "noncm" and p <= _FFT_SAFE_LIMIT:
        return _a_tilde_b3(p)
    a_vals, good = _curve_data(fam, p)
    return _lambda_cubed_weight(a_vals[good], p)


# --------------------------------------------------------------------------
# nu_D, H_{D,k}, and power-free sieving

def _factorize(d: int) -> dict:
    """Prime factorization for the post-scan range; handles numbers whose
    cofactor after small trial division is a prime power."""
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
            root = round(m ** (1.0 / e))
            for cand in (root - 1, root, root + 1):
                if cand > 1 and cand ** e == m and is_prime(cand):
                    out[cand] = out.get(cand, 0) + e
                    m = 1
                    break
            if m == 1:
                break
        if m > 1:
            raise ResourceError(f"cannot factor {d} for nu_D")
    return out


def _factor_roots_mod_p(coeffs, p: int) -> list:
    """Roots mod p of one D factor (degree <= 2 solved directly)."""
    c = [x % p for x in coeffs]
    deg = max((i for i, x in enumerate(c) if x), default=0)
    if deg == 0:
        return []
    if deg == 1:
        if c[1] % p == 0:
            return []
        return [(-c[0] * pow(c[1], -1, p)) % p]
    if deg == 2 and p > 2:
        a, b, cc = c[2], c[1], c[0]
        disc = (b * b - 4 * a * cc) % p
        ls = legendre_symbol(disc, p)
        if ls == -1:
            return []
        inv2a = pow(2 * a, -1, p)
        if ls == 0:
            return [(-b) * inv2a % p]
        s = _sqrt_mod_p(disc, p)
        return sorted({(-b + s) * inv2a % p, (-b - s) * inv2a % p})
    if p <= _SCAN_LIMIT:
        t = np.arange(p, dtype=np.int64)
        return list(np.nonzero(poly_eval_mod(coeffs, t, p) == 0)[0])
    raise ResourceError(f"cannot solve degree-{deg} factor mod {p}")


def _sqrt_mod_p(n: int, p: int) -> int:
    """Tonelli-Shanks square root mod an odd prime."""
    n %= p
    if n == 0:
        return 0
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre_symbol(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _scan_root_count(factors, d: int) -> int:
    """#{t mod d : prod of factors(t) = 0 mod d} by scanning t mod d."""
    t = np.arange(d, dtype=np.int64)
    prod = np.ones(d, dtype=np.int64)
    for fac in factors:
        prod = prod * poly_eval_mod(fac, t, d) % d
    return int(np.count_nonzero(prod == 0))


def _nu_prime_power(fam: FamilySpec, p: int, e: int) -> int:
    """nu_D(p^e) for a prime p.

    Each D factor is p^c times a factor that does not vanish mod p, so
    v_p(D(t)) = C + v_p(G(t)) with C the summed exponents c and G the
    product of the reduced factors.  A simple root of G mod p lifts
    uniquely to every p^j (Hensel), so when all roots are simple the count
    is p^C times the number of roots mod p; otherwise G is scanned mod
    p^(e-C), within _SCAN_LIMIT.
    """
    content, reduced = 0, []
    for fac in fam.D_factors:
        if not any(fac):
            return p ** e
        while all(c % p == 0 for c in fac):
            fac = tuple(c // p for c in fac)
            content += 1
        reduced.append(fac)
    if e <= content:
        return p ** e
    e -= content
    g_poly = [1]
    for fac in reduced:
        g_poly = _poly_mul(g_poly, fac)
    deriv = [i * c for i, c in enumerate(g_poly)][1:]
    roots = {int(r) for fac in reduced for r in _factor_roots_mod_p(fac, p)}
    if all(poly_eval_mod(deriv, r, p) for r in roots):
        return p ** content * len(roots)
    if p ** e > _SCAN_LIMIT:
        raise ResourceError(
            f"non-simple root of D mod {p}: scan range exceeded")
    return p ** content * _scan_root_count(reduced, p ** e)


def nu_D(fam: FamilySpec, d: int) -> int:
    """#{t mod d : D(t) = 0 mod d} for D the product of the D factors."""
    if d < 1:
        raise DomainError("d must be >= 1")
    if d == 1:
        return 1
    if d <= _SCAN_LIMIT:
        return _scan_root_count(fam.D_factors, d)
    total = 1
    for p, e in _factorize(d).items():
        total *= _nu_prime_power(fam, p, e)
    return total


def h_factor(fam: FamilySpec, p: int, exponent: int | None = None):
    """H_{D,k}(p) split as (main, sieve) = (1, (nu/p^k)/(1 - nu/p^k)), with
    nu = nu_D(p^k) counted by Hensel lifting (O(log p) for the built-ins).

    `exponent` overrides the family's own sieve exponent k (used to
    reproduce reference tabulations computed under a different sieving
    convention); the default is the family's k.
    """
    if exponent is None:
        if fam.k == INF:
            return (1.0, 0.0)
        k = int(fam.k)
    else:
        if exponent < 3:
            raise DomainError("sieve exponent override must be >= 3")
        k = int(exponent)
    if not is_prime(p):
        raise DomainError("p must be prime")
    nu = _nu_prime_power(fam, p, k)
    pk = p ** k
    if nu >= pk:
        raise DomainError(f"degenerate sieve: nu_D({p}^{k}) = {nu} >= p^k")
    ratio = nu / pk
    return (1.0, ratio / (1.0 - ratio))


@dataclass(frozen=True)
class SieveWindow:
    N: int
    good_t: np.ndarray        # bool mask over t = N..2N inclusive
    W: int
    logR: float


def _mark_linear_progression(mask: np.ndarray, start: int, a: int, b: int,
                             m: int) -> None:
    """Clear mask entries where a*t + b = 0 mod m, t = start..start+len-1."""
    g = math.gcd(a, m)
    if b % g != 0:
        return
    mm = m // g
    root = (-(b // g) * pow((a // g) % mm, -1, mm)) % mm if mm > 1 else 0
    first = (root - start) % mm
    mask[first::mm] = False


def sieve_window(fam: FamilySpec, N: int, logR: float = 0.0) -> SieveWindow:
    """Mark t in [N, 2N] whose every D factor is k-power free."""
    if N < 1:
        raise DomainError("N must be >= 1")
    if N > 10 ** 7:
        raise ResourceError("window start capped at 1e7")
    size = N + 1
    good = np.ones(size, dtype=bool)
    if fam.k == INF:
        return SieveWindow(N=N, good_t=good, W=size, logR=logR)
    k = int(fam.k)
    for fac in fam.D_factors:
        deg = len(fac) - 1
        max_abs = max(abs(poly_eval(fac, N)), abs(poly_eval(fac, 2 * N)), 1)
        d_max = int(round(max_abs ** (1.0 / k))) + 1
        if deg == 1:
            a, b = fac[1], fac[0]
            for d in range(2, d_max + 1):
                _mark_linear_progression(good, N, a, b, d ** k)
        else:
            for i in range(size):
                if not good[i]:
                    continue
                v = abs(poly_eval(fac, N + i))
                d = 2
                while d ** k <= v:
                    if v % d ** k == 0:
                        good[i] = False
                        break
                    d += 1
    return SieveWindow(N=N, good_t=good, W=int(np.count_nonzero(good)),
                       logR=logR)


def sieve_density(fam: FamilySpec, prime_limit: int = 10 ** 3) -> float:
    """Euler product prod_p (1 - nu_D(p^k)/p^k), the limiting W/N."""
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


def rank_bias(fam: FamilySpec, X: float) -> float:
    """(1/X) sum_{p <= X} -(first moment / p) log p; tends to the rank."""
    if X < 10 ** 3:
        raise DomainError("X must be >= 1e3")
    total = 0.0
    for p in get_table(int(X)).primes:
        p = int(p)
        if p < 5:
            continue
        try:
            m1 = closed_form_moment(fam, p, 1)
        except DomainError:
            m1 = complete_moment(fam, p, 1)
        if m1:
            total -= m1 / p * math.log(p)
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


def moment_table(fam: FamilySpec, p: int, r_max: int = 8) -> MomentTable:
    a_vals, good = _curve_data(fam, p)
    bad = ~good
    moments = tuple(sum(int(a) ** r for a in a_vals[good])
                    for r in range(r_max + 1))
    bad_moments = tuple(sum(int(a) ** m for a in a_vals[bad])
                        for m in range(r_max + 1))
    if fam.k == INF:
        nu, h = 0, (1.0, 0.0)
    else:
        nu = _nu_prime_power(fam, p, int(fam.k))
        h = h_factor(fam, p)
    at = a_tilde(fam, p) if p >= 5 else 0.0
    return MomentTable(p=p, moments=moments, bad_moments=bad_moments,
                       a_tilde=at, nu=nu, h=h)
