"""High-precision numeric literals with an independent startup self-test.

The closed-form evaluations of the arithmetic-progression prime constants
need gamma (Euler-Mascheroni), log(2*pi), log(3), Gamma(1/3) and Gamma(1/4)
to full double precision.  Rather than pulling in an arbitrary-precision
dependency, the values are embedded to 30 significant digits and re-derived
at import time, to 20+ digits, from independent series using only
decimal.Decimal:

* pi from Machin's formula,
* logarithms from the atanh series with power-of-two range reduction,
* gamma from Euler-Maclaurin applied to H_n - ln n,
* log Gamma from Stirling's series with an argument shift.

A mismatch raises RuntimeError, so a corrupted literal can never silently
poison downstream constants.
"""

from __future__ import annotations

from decimal import Decimal, getcontext
from fractions import Fraction

# 30 significant digits, kept as strings so the full precision survives;
# the module-level floats below are their double roundings.
LITERALS_30 = {
    "euler_gamma": "0.577215664901532860606512090082",
    "log_2pi": "1.83787706640934548356065947281",
    "log_3": "1.09861228866810969139524523692",
    "gamma_one_third": "2.67893853470774763365569294097",
    "gamma_one_fourth": "3.62560990822190831193068515587",
    "pi": "3.14159265358979323846264338328",
}

EULER_GAMMA = float(LITERALS_30["euler_gamma"])
LOG_2PI = float(LITERALS_30["log_2pi"])
LOG_3 = float(LITERALS_30["log_3"])
GAMMA_ONE_THIRD = float(LITERALS_30["gamma_one_third"])
GAMMA_ONE_FOURTH = float(LITERALS_30["gamma_one_fourth"])

_PRECISION = 36
_SELFTEST_DIGITS = Decimal("1e-20")

# B_2 .. B_14
_BERNOULLI = [
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6),
]


def _atan_inv(n: int) -> Decimal:
    """arctan(1/n) by its Taylor series (n >= 2)."""
    total = Decimal(0)
    term = Decimal(1) / n
    n2 = n * n
    k = 0
    while abs(term) > Decimal(10) ** (-_PRECISION):
        total += term / (2 * k + 1) if k % 2 == 0 else -term / (2 * k + 1)
        term /= n2
        k += 1
    return total


def _dec_pi() -> Decimal:
    return 16 * _atan_inv(5) - 4 * _atan_inv(239)


def _atanh(x: Decimal) -> Decimal:
    total = Decimal(0)
    term = x
    x2 = x * x
    k = 0
    while abs(term) > Decimal(10) ** (-_PRECISION):
        total += term / (2 * k + 1)
        term *= x2
        k += 1
    return total


_LN2_CACHE: Decimal | None = None


def _dec_ln2() -> Decimal:
    global _LN2_CACHE
    if _LN2_CACHE is None:
        _LN2_CACHE = 2 * _atanh(Decimal(1) / 3)
    return _LN2_CACHE


def _dec_ln(x: Decimal) -> Decimal:
    """Natural log via atanh((x-1)/(x+1)) after power-of-two reduction."""
    if x <= 0:
        raise ValueError("log of nonpositive value")
    k = 0
    while x > Decimal("1.5"):
        x /= 2
        k += 1
    while x < Decimal("0.75"):
        x *= 2
        k -= 1
    return 2 * _atanh((x - 1) / (x + 1)) + k * _dec_ln2()


def _dec_euler_gamma(n: int = 400) -> Decimal:
    """Euler-Maclaurin for H_n - ln n - gamma."""
    h = Decimal(0)
    for j in range(1, n + 1):
        h += Decimal(1) / j
    g = h - _dec_ln(Decimal(n)) - Decimal(1) / (2 * n)
    npow = Decimal(n)
    for i, b in enumerate(_BERNOULLI):
        k = i + 1
        npow = Decimal(n) ** (2 * k)
        g += Decimal(b.numerator) / (Decimal(b.denominator) * 2 * k * npow)
    return g


def _dec_lngamma(x: Fraction, shift: int = 30) -> Decimal:
    """log Gamma(x) for small rational x via Stirling at z = x + shift."""
    z = Decimal(x.numerator) / Decimal(x.denominator) + shift
    ln2pi = _dec_ln2() + _dec_ln(_dec_pi())
    res = (z - Decimal("0.5")) * _dec_ln(z) - z + ln2pi / 2
    for i, b in enumerate(_BERNOULLI):
        k = i + 1
        res += (Decimal(b.numerator) / Decimal(b.denominator)
                / ((2 * k) * (2 * k - 1) * z ** (2 * k - 1)))
    # Gamma(x) = Gamma(x + shift) / (x (x+1) ... (x+shift-1))
    for j in range(shift):
        xj = Decimal(x.numerator) / Decimal(x.denominator) + j
        res -= _dec_ln(xj)
    return res


def _check(name: str, recomputed: Decimal) -> None:
    embedded = Decimal(LITERALS_30[name])
    if abs(embedded - recomputed) > _SELFTEST_DIGITS:
        raise RuntimeError(
            f"literal self-test failed for {name}: embedded {embedded}, "
            f"recomputed {recomputed}")


_SELFTEST_DONE = False


def selftest() -> None:
    """Re-derive every embedded literal from independent series."""
    global _SELFTEST_DONE
    if _SELFTEST_DONE:
        return
    ctx = getcontext()
    old_prec = ctx.prec
    ctx.prec = _PRECISION + 10
    try:
        pi = _dec_pi()
        _check("pi", pi)
        _check("log_2pi", _dec_ln2() + _dec_ln(pi))
        _check("log_3", _dec_ln(Decimal(3)))
        _check("euler_gamma", _dec_euler_gamma())
        _check("gamma_one_third", _dec_lngamma(Fraction(1, 3)).exp())
        _check("gamma_one_fourth", _dec_lngamma(Fraction(1, 4)).exp())
    finally:
        ctx.prec = old_prec
    _SELFTEST_DONE = True


selftest()
