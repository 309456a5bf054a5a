"""Exception taxonomy shared across modules.

The CLI maps these onto exit codes: usage/config problems -> 2,
verification failures -> 3, insufficient truncation/support -> 4.
"""

import operator


class DomainError(ValueError):
    """Invalid argument for a mathematical operation."""


class ResourceError(RuntimeError):
    """Request exceeds configured resource caps (sieve size, memory)."""


class IncompleteSumError(ValueError):
    """A truncation is too small to exhaust the analytically nonzero terms."""


class VerificationError(RuntimeError):
    """An internal consistency or oracle check failed."""


def integer(value, what: str) -> int:
    """value as an int, or DomainError where operator.index refuses it (a
    float such as 3.5 or 3.0, a string)."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}"
                          ) from None
