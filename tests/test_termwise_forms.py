"""T2 as F3 values over the E_lam expansion, and T3 as the one-variable
Lauricella sum, against the sums they replaced.

The references below are the former private sums: T2 summed diagonal by
diagonal, with one inner Wright row per (m, n), and T3 summed with its own
coefficient builder along a ladder of inner rows.
"""

import itertools

import numpy as np
import pytest

from wrightlab import SeriesPolicy, closed_form_theorem2, closed_form_theorem3
from wrightlab.identities import _diagonal_sum, _InnerTable
from wrightlab.multivar import _coefficients, _in_blocks, _poch_power, _running
from wrightlab.series import sum_with_policy


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def theorem2_by_diagonals(alpha, beta, alpha1, alpha2, x1, x2, lam, p):
    """Diagonal d = m + n: sum_m f_m g_{d-m} times the inner row
    (alpha+m, beta+d-m; alpha+beta+d), over (alpha+beta)_d."""
    policy = SeriesPolicy()
    inner = _InnerTable(lam, complex(p), policy)

    def block(start, count):
        fx = _poch_power(x1, (alpha, alpha1), count)
        gy = _poch_power(x2, (beta, alpha2), count)
        inv = _running(np.divide, alpha + beta + np.arange(count - 1.0)).tolist()
        return [(d, inv[d], fx[:d + 1], gy[:d + 1]) for d in range(start, count)]

    def diagonal(d, inv, fx, gy):
        m = np.arange(d + 1.0)
        return inv * _diagonal_sum(fx, gy, inner.rows(alpha + m, beta + (d - m), alpha + beta + d))

    return sum_with_policy(itertools.starmap(diagonal, _in_blocks(block)), policy)


def theorem3_by_ladder(alpha, beta, gamma, a, b, u, v, lam, p):
    """sum_m prefactor (-gamma)_m (alpha)_m w^m / ((alpha+beta)_m m!) times inner row m."""
    policy = SeriesPolicy()
    auv = a * u + v
    width = b - a
    prefactor = auv ** gamma * width ** (alpha + beta - 1.0)
    w = -u * width / auv
    inner = _InnerTable(lam, complex(p) * width * width, policy).ladder(
        (alpha, beta, alpha + beta), (1.0, 0.0, 1.0))
    coefficients = _coefficients(
        np.multiply, lambda m: (-gamma + m) * (alpha + m) * w / ((alpha + beta + m) * (m + 1.0)))
    terms = (prefactor * c * next(inner).value if c != 0.0 else 0.0j for c in coefficients)
    return sum_with_policy(terms, policy)


def t2_points(kind, count, seed):
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        alpha, beta = rng.uniform(0.3, 3.0, 2)
        alpha1, alpha2 = rng.uniform(-1.0, 1.5, 2)
        x1, x2 = rng.uniform(-0.7, 0.7, 2) if kind == "mixed" else rng.uniform(0.0, 0.7, 2)
        lam = float(rng.choice([0.5, 1.0, 1.7, 2.0]))
        if kind == "p0":
            p = 0.0
        elif kind == "complex":
            p = complex(*rng.uniform(-2.0, 2.0, 2))
        elif kind == "gate":  # lam = 0 needs |p|/4 < 1
            lam, p = 0.0, float(rng.choice([-1.0, 1.0]) * rng.uniform(3.0, 3.9))
        else:
            p = float(rng.uniform(-3.0, 3.0))
        points.append((alpha, beta, alpha1, alpha2, x1, x2, lam, p))
    return points


# Both sums round every term.  Where the terms alternate (negative or
# complex p) the two orders differ by a few eps times the cancellation
# factor; at lam = 0 near the gate the k-sum runs to about 1,000 terms with
# ratio up to 0.975.  On 20 such points both forms are within 8.3e-14 of
# 30-digit mpmath.quad values (median 1.3e-14 for F3 values over k, 1.7e-14
# for the diagonals).
T2_AGREEMENT = {"p0": 1e-15, "complex": 5e-15, "mixed": 5e-15, "gate": 1e-13}


@pytest.mark.parametrize("kind, count", [("p0", 8), ("complex", 8), ("mixed", 8), ("gate", 2)])
def test_theorem2_matches_the_diagonal_sum(kind, count):
    for args in t2_points(kind, count, 12):
        assert rel(closed_form_theorem2(*args).value, theorem2_by_diagonals(*args).value) \
            <= T2_AGREEMENT[kind], args


def test_theorem2_far_on_the_negative_axis():
    # one diagonal's inner row cancelled (1.12e3 -> 2.45e-3) and raised
    # CancellationError; the k-sum cancels by a factor of 1.3e4 only.  The
    # reference is a 40-digit mpmath.quad value of the integral.
    result = closed_form_theorem2(1.5, 1.1, 0.4, 0.6, 0.2, 0.3, 1.0, -30.0)
    assert rel(result.value, 0.058528101234233436) <= 1e-11


def test_theorem3_matches_the_ladder_sum():
    rng = np.random.default_rng(14)
    for _ in range(40):
        alpha, beta = rng.uniform(0.3, 3.0, 2)
        gamma = float(rng.choice([rng.uniform(-2.0, 2.0), 2.0]))
        a = rng.uniform(-1.0, 0.5)
        b = a + rng.uniform(0.3, 2.0)
        u = rng.uniform(-0.5, 0.5) / (b - a)
        v = rng.uniform(0.5, 2.0) + abs(u) * max(abs(a), abs(b))
        lam = float(rng.choice([0.5, 1.0, 1.7, 2.0]))
        p = complex(*rng.uniform(-2.0, 2.0, 2))
        args = (alpha, beta, gamma, a, b, u, v, lam, p)
        result, reference = closed_form_theorem3(*args), theorem3_by_ladder(*args)
        assert result.terms_used == reference.terms_used, args
        assert rel(result.value, reference.value) <= 1e-15, args
