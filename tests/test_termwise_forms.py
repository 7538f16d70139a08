"""T2 (a T1 by Pfaff's map, or F3 values over the E_lam expansion), T3 as
the one-variable Lauricella sum, and theorem 6 as Lauricella sums over the
generator's terms, against the sums they replaced.

The references below are the former private sums: T2 and theorem 6 summed
diagonal by diagonal, with one inner Wright row per (m, n), and T3 summed
with its own coefficient builder along a ladder of inner rows, drawn a block
at a time.
"""

import itertools

import numpy as np
import pytest

from wrightlab import (
    BinomialGen,
    SeriesPolicy,
    beta_fn,
    closed_form_theorem2,
    closed_form_theorem3,
    generating_integral_closed_form,
)
from wrightlab.identities import _binomial_product, _InnerTable, _lauricella_sum, _pfaff
from wrightlab.series import BLOCK, _coefficients, _in_blocks, _poch_power, _product, _running
from wrightlab.series import sum_with_policy


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _diagonal_sum(u, v, values):
    """sum_m u[m] v[d-m] values[m] over one diagonal d = len(u) - 1, added in order of m."""
    values = np.array(values)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.add.accumulate(u * v[::-1] * values)[-1].item()


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
        return inv * _diagonal_sum(fx, gy, list(inner.values(alpha + m, beta + (d - m),
                                                             alpha + beta + d)))

    return sum_with_policy(itertools.starmap(diagonal, _in_blocks(block)), policy)


def theorem6_by_diagonals(a, factors, r, s, delta, omega, lam, p, t):
    """Diagonal d = n + m over generator term n and factor degree m: the raw
    inner row (r + delta n + m, s - r + omega n; s + (delta+omega) n + m),
    as B times the normalized row, with the weights g_n t^n and the degree-m
    coefficient of the factor product."""
    policy = SeriesPolicy()
    gen = BinomialGen(a)
    inner = _InnerTable(lam, complex(p), policy)

    def block(start, count):
        product = _product([_poch_power(xi, (ai,), count) for ai, xi in factors], count)
        return [product[:d + 1] for d in range(start, count)]

    def degree_terms():
        weights = []
        tn = 1.0 + 0.0j
        for d, product in enumerate(_in_blocks(block)):
            weights.append(gen.coefficient(d) * tn)
            tn *= t
            n = np.arange(d + 1.0)
            a_n, b_n = r + delta * n + (d - n), s - r + omega * n
            values = inner.values(a_n, b_n, a_n + b_n)
            yield _diagonal_sum(weights, product,
                                [beta_fn(x, y) * value for x, y, value in zip(a_n, b_n, values)])

    return sum_with_policy(degree_terms(), policy)


def theorem3_by_ladder(alpha, beta, gamma, a, b, u, v, lam, p):
    """sum_m prefactor (-gamma)_m (alpha)_m w^m / ((alpha+beta)_m m!) times inner row m."""
    policy = SeriesPolicy()
    auv = a * u + v
    width = b - a
    # the orientation of the route, and its scale in the prefactor
    _, scale, alpha, beta, (w,) = _pfaff(alpha, beta, (-gamma,), (-u * width / auv,), (False,))
    prefactor = scale * (auv ** gamma * width ** (alpha + beta - 1.0))
    table = _InnerTable(lam, complex(p) * width * width, policy)
    inner = _in_blocks(lambda start, count: table.values(
        alpha + np.arange(start, count, dtype=float), beta,
        alpha + beta + np.arange(start, count, dtype=float)))
    coefficients = _coefficients(
        np.multiply, lambda m: (-gamma + m) * (alpha + m) * w / ((alpha + beta + m) * (m + 1.0)))
    terms = (prefactor * c * next(inner) if c != 0.0 else 0.0j for c in coefficients)
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


def t6_points(kind, count, seed):
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        a = float(rng.uniform(0.2, 1.5))
        factors = tuple((float(rng.uniform(-1.0, 1.5)), float(rng.uniform(-0.8, 0.8)))
                        for _ in range(rng.integers(1, 4)))
        r = float(rng.uniform(0.3, 2.0))
        s = r + float(rng.uniform(0.3, 2.0))
        delta, omega = (float(v) for v in rng.choice([0.5, 1.0, 2.0], 2))
        lam = float(rng.choice([0.5, 1.0, 1.7, 2.0]))
        p = complex(*rng.uniform(-2.0, 2.0, 2))
        t = float(rng.uniform(-0.7, 0.7))
        if kind == "complex":
            t = complex(*rng.uniform(-0.5, 0.5, 2))
        elif kind == "gate":  # lam = 0 needs |p|/4 < 1
            # Each inner row then needs about 200 terms and goes to the scalar
            # engine; halving |x_i| and |t| keeps the reference's row count small.
            lam, p = 0.0, float(rng.choice([-1.0, 1.0]) * rng.uniform(3.0, 3.9))
            factors = tuple((ai, 0.5 * xi) for ai, xi in factors)
            t *= 0.5
        elif kind == "delta0":
            delta = 0.0
        else:
            omega = 0.0
        points.append((a, factors, r, s, delta, omega, lam, p, t))
    return points


@pytest.mark.parametrize("kind, count", [("complex", 6), ("gate", 2), ("delta0", 6),
                                         ("omega0", 6)])
def test_theorem6_matches_the_diagonal_sum(kind, count):
    for args in t6_points(kind, count, 13):
        a, factors, r, s, delta, omega, lam, p, t = args
        result = generating_integral_closed_form(BinomialGen(a), r, s, delta, omega, lam, p, t,
                                                 factors)
        assert rel(result.value, theorem6_by_diagonals(*args).value) <= 1e-13, args


def test_theorem6_shares_one_product_across_generator_terms():
    # With omega = 0 each generator term raises only the first parameter, so
    # later inner sums run to more degrees: here the first stops after 86 and
    # the last (n = 39) after 98, so later terms extend the shared product
    # past the 96 degrees its first two blocks built.  Fresh products per
    # term give the same sum, bit for bit.
    a, factors, r, s, delta, omega, lam, p, t = t6_points("omega0", 6, 13)[5]
    result = generating_integral_closed_form(BinomialGen(a), r, s, delta, omega, lam, p, t,
                                             factors)
    table = _InnerTable(lam, complex(p), SeriesPolicy())
    inner = [_lauricella_sum(r + delta * n, s - r + omega * n,
                             _binomial_product(*zip(*factors)), table)
             for n in range(result.terms_used)]
    assert inner[0].terms_used <= 2 * BLOCK < inner[-1].terms_used
    gen, tn, terms = BinomialGen(a), 1.0 + 0.0j, []
    for n, row in enumerate(inner):
        terms.append(gen.coefficient(n) * tn * beta_fn(r + delta * n, s - r + omega * n)
                     * row.value)
        tn *= t
    assert sum_with_policy(iter(terms), SeriesPolicy()) == result
