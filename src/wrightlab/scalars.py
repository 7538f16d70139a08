"""Real scalar kernels: log-gamma, gamma, Pochhammer and beta.

Every series coefficient in the package is assembled from signed log-gamma
values, so these functions are the accuracy floor for everything else.
Log-gamma is the C library's ``lgamma`` (through ``math.lgamma``), which
returns ln|Gamma(x)| on both sides of zero; the sign for negative x comes
from sin(pi x) by the reflection formula.
"""

from __future__ import annotations

import math

from .errors import DomainError, PoleError

__all__ = [
    "log_gamma",
    "log_gamma_signed",
    "gamma_fn",
    "pochhammer",
    "log_pochhammer_signed",
    "beta_fn",
]

# exp() overflows above this, so gamma_fn cannot represent the result.
_MAX_LOG = 709.782712893384


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def _sin_pi(x: float) -> float:
    # sin(pi*x) with argument reduction so the sign is reliable for x < 0.
    n = math.floor(x)
    r = x - n
    s = math.sin(math.pi * r)
    return -s if (int(n) & 1) else s


def log_gamma_signed(x: float) -> tuple[float, int]:
    """Return (ln|Gamma(x)|, sign of Gamma(x)).

    Raises PoleError at nonpositive integers.  The sign companion makes it
    possible to build coefficient products entirely in log space.
    """
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x={x!r}")
    value = math.lgamma(x)
    if x > 0.0:
        return value, 1
    return value, (1 if _sin_pi(x) > 0.0 else -1)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0; ln|Gamma(x)| for negative non-integer x."""
    return log_gamma_signed(x)[0]


def gamma_fn(x: float) -> float:
    """Gamma(x) via exp(log_gamma) with sign restored by reflection."""
    value, sign = log_gamma_signed(x)
    if value > _MAX_LOG:
        raise OverflowError(f"gamma({x!r}) exceeds double range")
    return sign * math.exp(value)


def pochhammer(a: float, n: int) -> float:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1); (a)_0 = 1 for any finite a.

    Defined for every real a, including nonpositive integers (the product
    simply contains a zero factor).  Use log_pochhammer_signed when the
    product would overflow.
    """
    if n < 0:
        raise ValueError("pochhammer order must be a nonnegative integer")
    if not math.isfinite(a):
        raise DomainError(f"pochhammer needs a finite a, got {a!r}")
    result = 1.0
    for k in range(n):
        result *= a + k
    if math.isinf(result):
        raise OverflowError(f"pochhammer({a!r}, {n}) exceeds double range")
    return result


def log_pochhammer_signed(a: float, n: int) -> tuple[float, int]:
    """(ln|(a)_n|, sign), with sign 0 encoding an exactly-zero product.

    The zero case happens for nonpositive-integer a once n > -a; everywhere
    else the value comes from a log-gamma ratio.
    """
    if n < 0:
        raise ValueError("pochhammer order must be a nonnegative integer")
    if n == 0:
        return 0.0, 1
    if _is_nonpositive_integer(a):
        if n > -a:
            return -math.inf, 0
        total = 0.0
        sign = 1
        for k in range(n):
            v = a + k
            total += math.log(abs(v))
            if v < 0.0:
                sign = -sign
        return total, sign
    num, s_num = log_gamma_signed(a + n)
    den, s_den = log_gamma_signed(a)
    return num - den, s_num * s_den


def beta_fn(x: float, y: float) -> float:
    """Beta function Gamma(x)Gamma(y)/Gamma(x+y), computed in log space.

    x + y landing on a nonpositive integer (with x, y themselves off the
    poles) puts the pole in the denominator, so the ratio is zero.
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"beta needs finite arguments, got ({x!r}, {y!r})")
    if _is_nonpositive_integer(x) or _is_nonpositive_integer(y):
        raise PoleError(f"beta pole at ({x!r}, {y!r})")
    if _is_nonpositive_integer(x + y):
        return 0.0
    lx, sx = log_gamma_signed(x)
    ly, sy = log_gamma_signed(y)
    lz, sz = log_gamma_signed(x + y)
    value = lx + ly - lz
    if value > _MAX_LOG:
        raise OverflowError(f"beta({x!r}, {y!r}) exceeds double range")
    return sx * sy * sz * math.exp(value)
