"""Double and multiple hypergeometric series, summed by total degree.

The two-variable series (F1, F3, Phi2) and the n-variable FD series are
summed degree by degree, with the stopping rule of the series engine
applied to whole-degree contributions.  Their degree coefficients come
from series._coefficients: the outer Pochhammer ratio as a running
product or quotient of its one-step factors, times the degree-d
coefficient of the product of the per-variable streams (c)_m x^m / m!,
built a block of degrees at a time.  max_terms caps the total degree, not
the per-index range.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DomainError, PoleError
from .scalars import _is_nonpositive_integer
from .series import SeriesPolicy, SeriesResult, _coefficients, sum_with_policy

__all__ = [
    "appell_f1",
    "appell_f3",
    "humbert_phi2",
    "lauricella_fd",
    "gegenbauer",
]


def _require_unit_disc(xs: Sequence[complex]):
    for i, x in enumerate(xs):
        if abs(x) >= 1.0:
            raise DomainError(f"|x_{i + 1}| must be < 1, got {abs(x)!r}")


def appell_f1(alpha: float, beta1: float, beta2: float, gamma: float,
              x: complex, y: complex, policy: SeriesPolicy | None = None) -> SeriesResult:
    """Appell F1: sum (alpha)_{m+n} (beta1)_m (beta2)_n x^m y^n / ((gamma)_{m+n} m! n!).

    This is the two-variable FD series.
    """
    return lauricella_fd(alpha, (beta1, beta2), gamma, (x, y), policy)


def appell_f3(alpha1: float, alpha2: float, beta1: float, beta2: float, gamma: float,
              x: complex, y: complex, policy: SeriesPolicy | None = None) -> SeriesResult:
    """Appell F3: sum (alpha1)_m (alpha2)_n (beta1)_m (beta2)_n x^m y^n / ((gamma)_{m+n} m! n!)."""
    if _is_nonpositive_integer(gamma):
        raise PoleError(f"F3 lower parameter {gamma!r} is a nonpositive integer")
    _require_unit_disc((x, y))
    # 1 / (gamma)_d times the degree-d coefficient
    terms = _coefficients(np.divide, lambda d: gamma + d,
                          [(x, (alpha1, beta1)), (y, (alpha2, beta2))])
    return sum_with_policy(terms, policy)


def humbert_phi2(b1: float, b2: float, c: float, x: complex, y: complex,
                 policy: SeriesPolicy | None = None) -> SeriesResult:
    """Humbert Phi2: sum (b1)_m (b2)_n x^m y^n / ((c)_{m+n} m! n!), entire in x and y."""
    if _is_nonpositive_integer(c):
        raise PoleError(f"Phi2 lower parameter {c!r} is a nonpositive integer")
    terms = _coefficients(np.divide, lambda d: c + d, [(x, (b1,)), (y, (b2,))])
    return sum_with_policy(terms, policy)


def lauricella_fd(alpha: float, alphas: Sequence[float], gamma: float,
                  xs: Sequence[complex], policy: SeriesPolicy | None = None) -> SeriesResult:
    """n-variable FD series, summed by total degree M = m_1 + ... + m_n.

    The inner sum over compositions of M is the degree-M coefficient of the
    product of the n per-variable streams, times (alpha)_M / (gamma)_M.
    """
    if len(alphas) != len(xs):
        raise DomainError("alphas and xs must have the same length")
    if len(alphas) == 0:
        raise DomainError("lauricella_fd needs at least one variable")
    if _is_nonpositive_integer(gamma):
        raise PoleError(f"FD lower parameter {gamma!r} is a nonpositive integer")
    _require_unit_disc(xs)
    terms = _coefficients(np.multiply, lambda d: (alpha + d) / (gamma + d),
                          [(xi, (a,)) for a, xi in zip(alphas, xs)])
    return sum_with_policy(terms, policy)


def gegenbauer(n: int, a: float, x: float) -> float:
    """Ultraspherical polynomial C_n^(a)(x) by the three-term recurrence."""
    if n < 0:
        raise ValueError("gegenbauer degree must be a nonnegative integer")
    if n == 0:
        return 1.0
    c_prev = 1.0
    c_cur = 2.0 * a * x
    for k in range(2, n + 1):
        c_prev, c_cur = c_cur, (2.0 * x * (k + a - 1.0) * c_cur - (k + 2.0 * a - 2.0) * c_prev) / k
    return c_cur
