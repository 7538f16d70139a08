"""Double and multiple hypergeometric series, summed by total degree.

The two-variable series (F1, F3, Phi2) and the n-variable FD series are
summed degree by degree, with the stopping rule of the series engine
applied to whole-degree contributions.  Their coefficients are built as
arrays, a block of degrees at a time (_in_blocks): each per-variable
stream (c)_m x^m / m! by its one-step update (_poch_power), the degree-d
coefficients of a product of streams by pairwise convolution (_product),
and the outer Pochhammer ratio as a running product or quotient of its
one-step factors (_running).  The closed forms of identities.py build
their outer sums from the same helpers.  max_terms caps the total degree,
not the per-index range.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DomainError, PoleError
from .scalars import _is_nonpositive_integer
from .series import SeriesPolicy, SeriesResult, sum_with_policy

__all__ = [
    "appell_f1",
    "appell_f3",
    "humbert_phi2",
    "lauricella_fd",
    "gegenbauer",
]

# Outer terms built per block at first, doubled per block after; also the
# number of inner rows identities._InnerTable tabulates along a ladder.
BLOCK = 48


def _require_unit_disc(xs: Sequence[complex]):
    for i, x in enumerate(xs):
        if abs(x) >= 1.0:
            raise DomainError(f"|x_{i + 1}| must be < 1, got {abs(x)!r}")


def _poch_power(x: complex, params: Sequence[float], count: int) -> np.ndarray:
    """The first count coefficients (a_1)_m ... (a_k)_m x^m / m!, by one-step updates."""
    c = 1.0
    out = [c]
    for k in range(1, count):
        for a in params:
            c = c * (a + k - 1.0)
        c = c * x / k
        out.append(c)
    return np.array(out)


def _product(streams: Sequence[np.ndarray], count: int) -> np.ndarray:
    """The first count degree coefficients of the product of the coefficient arrays."""
    out = streams[0]
    for stream in streams[1:]:
        out = np.convolve(out, stream)[:count]
    return out


def _running(op: np.ufunc, steps: np.ndarray) -> np.ndarray:
    """1, 1 op s_0, (1 op s_0) op s_1, ...: a one-step *= or /= update, in order."""
    return op.accumulate(np.concatenate(([1.0], steps)))


def _in_blocks(block: Callable[[int, int], list]) -> Iterator:
    """The items of block(start, count) for count = BLOCK, 2 BLOCK, 4 BLOCK, ...

    block(start, count) returns the list of items start .. count - 1 with
    its numpy work done.  Items past the stopping degree are built but never
    used, so overflow and invalid values in that work stay silent; a used
    non-finite term is caught by sum_with_policy.
    """
    start, count = 0, BLOCK
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            items = block(start, count)
        yield from items
        start, count = count, 2 * count


def _coefficients(op: np.ufunc, step: Callable[[np.ndarray], np.ndarray],
                  streams: Sequence[tuple[complex, tuple]] = ()) -> Iterator:
    """R_d C_d for d = 0, 1, ...: R is the running op of step(d) (the outer
    Pochhammer ratio), C_d the degree-d coefficient of the product of the
    (x, params) streams, or 1 without streams."""
    def block(start, count):
        ratio = _running(op, step(np.arange(count - 1.0)))
        if streams:
            ratio = ratio * _product([_poch_power(x, params, count) for x, params in streams],
                                     count)
        return ratio[start:].tolist()

    return _in_blocks(block)


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
    _require_unit_disc((x, y))
    # 1 / (gamma)_d times the degree-d coefficient
    terms = _coefficients(np.divide, lambda d: gamma + d,
                          [(x, (alpha1, beta1)), (y, (alpha2, beta2))])
    return sum_with_policy(terms, policy)


def humbert_phi2(b1: float, b2: float, c: float, x: complex, y: complex,
                 policy: SeriesPolicy | None = None) -> SeriesResult:
    """Humbert Phi2: sum (b1)_m (b2)_n x^m y^n / ((c)_{m+n} m! n!), entire in x and y."""
    policy = policy or SeriesPolicy()
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
    policy = policy or SeriesPolicy()
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
