"""Double and multiple hypergeometric series, summed by total degree.

The two-variable series (F1, F3, Phi2) and the n-variable FD series are
summed diagonal by diagonal, with the stopping rule of the series engine
applied to whole-diagonal contributions.  The per-index coefficient
streams (c)_m x^m / m! are built by stable one-step updates; the outer
Pochhammer ratio (a)_d / (g)_d likewise.  max_terms caps the total degree,
not the per-index range.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from .errors import DivergenceError, DomainError, PoleError
from .scalars import _is_nonpositive_integer
from .series import SeriesPolicy, SeriesResult, sum_with_policy

__all__ = [
    "appell_f1",
    "appell_f3",
    "humbert_phi2",
    "lauricella_fd",
    "gegenbauer",
]


def _require_unit_disc(**points):
    for name, value in points.items():
        if abs(value) >= 1.0:
            raise DomainError(f"|{name}| must be < 1, got {abs(value)!r}")


def _check_finite(value: complex, what: str) -> complex:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise DivergenceError(f"{what} overflowed before the stopping rule was met")
    return value


class _PochPowerStream:
    """Coefficients c[m] = (a_1)_m ... (a_k)_m x^m / m! of the params a_i, extended on demand."""

    __slots__ = ("x", "params", "values")

    def __init__(self, x: complex, *params: float):
        self.x = complex(x)
        self.params = params
        self.values = [1.0 + 0.0j]

    def extend_to(self, m: int):
        v = self.values
        while len(v) <= m:
            k = len(v)
            c = v[-1]
            for a in self.params:
                c = c * (a + k - 1.0)
            v.append(c * self.x / k)


def _convolve_at(f: list, g: list, d: int) -> complex:
    return sum(f[m] * g[d - m] for m in range(d + 1))


class _StreamProduct:
    """Coefficients of the product of coefficient streams, by total degree.

    partial[i] holds the coefficients of streams[0] * ... * streams[i+1],
    extended by one pairwise convolution per degree; coeff(d) may be asked
    for any degree, in any order.
    """

    __slots__ = ("streams", "partial")

    def __init__(self, streams: list):
        self.streams = streams
        self.partial: list[list[complex]] = [[] for _ in streams[1:]]

    def coeff(self, d: int) -> complex:
        for s in self.streams:
            s.extend_to(d)
        prev = self.streams[0].values
        for stream, part in zip(self.streams[1:], self.partial):
            while len(part) <= d:
                part.append(_convolve_at(prev, stream.values, len(part)))
            prev = part
        return prev[d]


def appell_f1(alpha: float, beta1: float, beta2: float, gamma: float,
              x: complex, y: complex, policy: SeriesPolicy | None = None) -> SeriesResult:
    """Appell F1: sum (alpha)_{m+n} (beta1)_m (beta2)_n x^m y^n / ((gamma)_{m+n} m! n!).

    This is the two-variable FD series.
    """
    return lauricella_fd(alpha, (beta1, beta2), gamma, (x, y), policy)


def appell_f3(alpha1: float, alpha2: float, beta1: float, beta2: float, gamma: float,
              x: complex, y: complex, policy: SeriesPolicy | None = None) -> SeriesResult:
    """Appell F3: sum (alpha1)_m (alpha2)_n (beta1)_m (beta2)_n x^m y^n / ((gamma)_{m+n} m! n!)."""
    policy = policy or SeriesPolicy()
    if _is_nonpositive_integer(gamma):
        raise PoleError(f"F3 lower parameter {gamma!r} is a nonpositive integer")
    _require_unit_disc(x=x, y=y)
    fx = _PochPowerStream(x, alpha1, beta1)
    gy = _PochPowerStream(y, alpha2, beta2)

    def diagonals() -> Iterator[complex]:
        inv_gamma = 1.0  # 1 / (gamma)_d
        d = 0
        while True:
            fx.extend_to(d)
            gy.extend_to(d)
            yield _check_finite(inv_gamma * _convolve_at(fx.values, gy.values, d), "F3 diagonal")
            inv_gamma /= gamma + d
            d += 1

    return sum_with_policy(diagonals(), policy)


def humbert_phi2(b1: float, b2: float, c: float, x: complex, y: complex,
                 policy: SeriesPolicy | None = None) -> SeriesResult:
    """Humbert Phi2: sum (b1)_m (b2)_n x^m y^n / ((c)_{m+n} m! n!), entire in x and y."""
    policy = policy or SeriesPolicy()
    if _is_nonpositive_integer(c):
        raise PoleError(f"Phi2 lower parameter {c!r} is a nonpositive integer")
    fx = _PochPowerStream(x, b1)
    gy = _PochPowerStream(y, b2)

    def diagonals() -> Iterator[complex]:
        inv_c = 1.0
        d = 0
        while True:
            fx.extend_to(d)
            gy.extend_to(d)
            yield inv_c * _convolve_at(fx.values, gy.values, d)
            inv_c /= c + d
            d += 1

    return sum_with_policy(diagonals(), policy)


def lauricella_fd(alpha: float, alphas: Sequence[float], gamma: float,
                  xs: Sequence[complex], policy: SeriesPolicy | None = None) -> SeriesResult:
    """n-variable FD series, summed by total degree M = m_1 + ... + m_n.

    The inner sum over compositions of M is the degree-M coefficient of the
    product of the n per-variable streams (_StreamProduct).
    """
    policy = policy or SeriesPolicy()
    if len(alphas) != len(xs):
        raise DomainError("alphas and xs must have the same length")
    if len(alphas) == 0:
        raise DomainError("lauricella_fd needs at least one variable")
    if _is_nonpositive_integer(gamma):
        raise PoleError(f"FD lower parameter {gamma!r} is a nonpositive integer")
    for i, xi in enumerate(xs):
        if abs(xi) >= 1.0:
            raise DomainError(f"|x_{i + 1}| must be < 1, got {abs(xi)!r}")
    product = _StreamProduct([_PochPowerStream(xi, a) for a, xi in zip(alphas, xs)])

    def degrees() -> Iterator[complex]:
        ratio = 1.0  # (alpha)_M / (gamma)_M
        d = 0
        while True:
            yield _check_finite(ratio * product.coeff(d), "FD degree")
            ratio *= (alpha + d) / (gamma + d)
            d += 1

    return sum_with_policy(degrees(), policy)


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
