"""Generating functions and combinatorial identities behind the moment sums.

Two moment generating functions drive the third-moment ("A-tilde") constants:

    g_st(x) = (1 - sqrt(1-4x))/(2x) - 1 - x        (Catalan moments)
    g_cm(x) = (1 - sqrt(1-4x))/sqrt(1-4x) - 2x     (central binomial moments)

At x = p/(p+1)^2 the surd collapses to (p-1)/(p+1), so both have exact
rational values per prime; the constants assembly uses those, never floating
square roots.  The polylogarithm identities and the Hecke power expansion
lambda^r = sum_k b_{r,r-2k} lambda(p^{r-2k}) are verified in exact rational
arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ._sum import term_sum
from .errors import DomainError, integer

# --------------------------------------------------------------------------
# dense integer/rational polynomials as coefficient lists (ascending powers)


def poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def central_binomial(n: int) -> int:
    return math.comb(2 * n, n)


def moment_sequence(kind: str, ell: int) -> int:
    """The 2*ell-th moment: Catalan for semicircle, binom(2l,l) for CM."""
    if integer(ell, "ell") < 0:
        raise DomainError("ell must be >= 0")
    if kind == "sato_tate":
        return catalan(ell)
    if kind == "cm":
        return central_binomial(ell)
    raise DomainError(f"unknown moment kind {kind!r}")


def eulerian_row(r: int) -> list[int]:
    """Eulerian numbers <r,0>..<r,r>, each by its closed form
    <r,m> = sum_{j<=m} (-1)^j C(r+1, j) (m+1-j)^r (Graham, Knuth and
    Patashnik, *Concrete Mathematics*, eq. 6.38), as Python ints."""
    r = integer(r, "r")
    if r < 0:
        raise DomainError("r must be >= 0")
    return [sum((-1) ** j * math.comb(r + 1, j) * (m + 1 - j) ** r
                for j in range(m + 1)) for m in range(r + 1)]


# --------------------------------------------------------------------------
# negative-order polylogarithms

def polylog_neg(r: int, x):
    """Li_{-r}(x) = sum_{k>=1} k^r x^k for |x| < 1, exact on Fractions.

    For r >= 1 this is the Eulerian closed form
    sum_j <r,j> x^(r-j) / (1-x)^(r+1); r = 0 is the geometric series.
    """
    if integer(r, "r") < 0:
        raise DomainError("r must be >= 0 (use polylog of negative order)")
    xv = Fraction(x) if isinstance(x, (Fraction, int)) else x
    if abs(xv) >= 1:
        raise DomainError("series diverges for |x| >= 1")
    if r == 0:
        return xv / (1 - xv)
    row = eulerian_row(r)
    num = sum(row[j] * xv ** (r - j) for j in range(r + 1))
    return num / (1 - xv) ** (r + 1)


def _a_coefficients(ell: int) -> list:
    """Coefficients of k^i in prod_{j=0}^{ell-1} (k^2 - j^2)."""
    poly = [1]
    for j in range(ell):
        poly = poly_mul(poly, [-j * j, 0, 1])
    return poly


def _b_coefficients(ell: int) -> list:
    """Coefficients of k^i in (2k+1) prod_{j=0}^{ell-1} (k-j)(k+1+j)."""
    poly = [1, 2]
    for j in range(ell):
        poly = poly_mul(poly, poly_mul([-j, 1], [1 + j, 1]))
    return poly


def polylog_identity_check(ell: int, x: Fraction,
                           perturb: Fraction = Fraction(0)) -> bool:
    """Exact check of both finite polylog combinations against their
    closed forms; `perturb` scales the right sides by (1+perturb) for
    negative-control tests."""
    if not 1 <= integer(ell, "ell") <= 6:
        raise DomainError("ell must be in 1..6")
    x = Fraction(x)
    if abs(x) >= 1:
        raise DomainError("|x| must be < 1")
    scale = 1 + Fraction(perturb)
    acoef = _a_coefficients(ell)
    lhs_a = sum(c * polylog_neg(i, x) for i, c in enumerate(acoef) if c)
    rhs_a = (Fraction(math.factorial(2 * ell), 2) * x ** ell * (1 + x)
             / (1 - x) ** (2 * ell + 1)) * scale
    bcoef = _b_coefficients(ell)
    lhs_b = sum(c * polylog_neg(i, x) for i, c in enumerate(bcoef) if c)
    rhs_b = (Fraction(math.factorial(2 * ell + 1)) * x ** ell * (1 + x)
             / (1 - x) ** (2 * ell + 2)) * scale
    return lhs_a == rhs_a and lhs_b == rhs_b


# --------------------------------------------------------------------------
# moment generating functions

def g_moment(kind: str, x):
    """g_st / g_cm; exact rational at the collapsing points x = p/(p+1)^2."""
    if isinstance(x, Fraction):
        p = x.numerator
        if x.denominator != (p + 1) ** 2:
            raise DomainError(
                "rational mode is only supported at x = p/(p+1)^2")
        if kind == "sato_tate":
            return Fraction(2 * p + 1, p * (p + 1) ** 2)
        if kind == "cm":
            if p == 1:
                raise DomainError("g_cm pole at p = 1")
            return Fraction(2 * (3 * p + 1), (p - 1) * (p + 1) ** 2)
        raise DomainError(f"unknown kind {kind!r}")
    if not 0 <= x < 0.25:
        raise DomainError("need 0 <= x < 1/4")
    root = math.sqrt(1 - 4 * x)
    if kind == "sato_tate":
        if x == 0:
            return 0.0
        return (1 - root) / (2 * x) - 1 - x
    if kind == "cm":
        return (1 - root) / root - 2 * x
    raise DomainError(f"unknown kind {kind!r}")


def p_ell_sum(ell: int, table, cls="all") -> float:
    """P(ell) = sum_p ((p-1) log p/(p+1)) (p/(p+1)^2)^ell, optionally
    restricted to a residue class; p runs over the supplied table."""
    if ell < 2:
        raise DomainError("ell must be >= 2")
    # x < 1/p, so x**ell is exactly 0 (below half the least subnormal) for
    # p > e^(746/ell): only the primes up to there are evaluated, which
    # skips the long tail of subnormal powers, and the terms keep their bits
    cut = math.exp(746.0 / ell)

    def term(blk):
        pf = blk.pf[:blk.pf.searchsorted(cut, "right")]
        x = pf / (pf + 1.0) ** 2
        terms = np.zeros(blk.pf.size)
        terms[:pf.size] = (pf - 1.0) * np.log(pf) / (pf + 1.0) * x ** ell
        return terms

    blocks = table.blocks() if cls == "all" else table.residue_blocks(*cls)
    return term_sum(term, blocks)


# --------------------------------------------------------------------------
# Hecke eigenvalue power expansion

def hecke_power_expansion(r: int) -> list[int]:
    """Integer coefficients [b_{r,r}, b_{r,r-2}, ...] with
    lambda^r = sum_k b_{r,r-2k} lambda(p^{r-2k}): the ballot numbers
    b_{r,r-2k} = C(r, k) - C(r, k-1), the multiplicity of Sym^{r-2k} in the
    r-th tensor power of the standard representation of SU(2).
    """
    if not 0 <= integer(r, "r") <= 30:
        raise DomainError("r must be in 0..30")
    return [math.comb(r, k) - math.comb(r, k - 1) if k else 1
            for k in range(r // 2 + 1)]
