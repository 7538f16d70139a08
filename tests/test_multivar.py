import cmath
import math
import random

import pytest

from wrightlab import (
    BinomialGen,
    DivergenceError,
    DomainError,
    PoleError,
    SeriesPolicy,
    appell_f1,
    appell_f3,
    closed_form_theorem1,
    closed_form_theorem2,
    closed_form_theorem3,
    gegenbauer,
    generating_integral_closed_form,
    humbert_phi2,
    hyper_pfq,
    lauricella_fd,
    t2_spec,
)
from wrightlab.cli import main
from wrightlab.identities import _binomial_product, _InnerTable, _lauricella_sum
from wrightlab.scalars import log_pochhammer_signed, pochhammer
from wrightlab.series import _poch_power, _product


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def log_term(num_pochs, den_pochs, m_fact, n_fact):
    """Signed log-space assembly of one rectangular term."""
    total = -math.lgamma(m_fact + 1.0) - math.lgamma(n_fact + 1.0)
    sign = 1
    for a, n in num_pochs:
        log_value, s = log_pochhammer_signed(a, n)
        if s == 0:
            return 0.0
        total += log_value
        sign *= s
    for a, n in den_pochs:
        log_value, s = log_pochhammer_signed(a, n)
        total -= log_value
        sign *= s
    return sign * math.exp(total)


def brute_double(coeff, x, y, size=60):
    """Rectangular reference summation; each term assembled in log space."""
    total = 0.0 + 0.0j
    for m in range(size):
        for n in range(size):
            total += coeff(m, n) * x ** m * y ** n
    return total


class TestAppellF1:
    def test_at_origin(self):
        assert appell_f1(0.7, 0.4, 1.1, 2.0, 0.0, 0.0).value == 1.0

    def test_reduces_to_2f1(self):
        lhs = appell_f1(0.7, 0.4, 0.0, 2.0, 0.3, -0.6).value
        rhs = hyper_pfq([0.7, 0.4], [2.0], 0.3).value
        assert rel(lhs, rhs) <= 1e-13

    def test_frozen_value(self):
        # 40-digit quadrature of the weighted-beta integral form
        value = appell_f1(0.7, 0.4, 1.1, 2.0, 0.3, -0.2).value
        assert rel(value, 0.97367666188621342397) <= 1e-13

    def test_argument_symmetry(self):
        rng = random.Random(3)
        for _ in range(200):
            a = rng.uniform(0.2, 2.5)
            b1 = rng.uniform(0.2, 2.0)
            b2 = rng.uniform(0.2, 2.0)
            g = rng.uniform(0.6, 4.0)
            x = rng.uniform(-0.6, 0.6)
            y = rng.uniform(-0.6, 0.6)
            lhs = appell_f1(a, b1, b2, g, x, y).value
            rhs = appell_f1(a, b2, b1, g, y, x).value
            assert rel(lhs, rhs) <= 1e-12

    def test_brute_force_rectangular(self):
        a, b1, b2, g = 0.8, 1.3, 0.5, 2.4
        x, y = 0.5, -0.45

        def coeff(m, n):
            return log_term([(a, m + n), (b1, m), (b2, n)], [(g, m + n)], m, n)

        assert rel(appell_f1(a, b1, b2, g, x, y).value, brute_double(coeff, x, y)) <= 1e-11

    def test_domain_gate(self):
        with pytest.raises(DomainError):
            appell_f1(0.7, 0.4, 1.1, 2.0, 1.2, 0.0)
        with pytest.raises(PoleError):
            appell_f1(0.7, 0.4, 1.1, -1.0, 0.2, 0.1)


class TestAppellF3:
    def test_at_origin(self):
        assert appell_f3(0.9, 0.6, 0.5, 1.2, 2.5, 0.0, 0.0).value == 1.0

    def test_reduces_to_2f1(self):
        lhs = appell_f3(0.9, 0.6, 0.5, 0.0, 2.5, 0.25, 0.7).value
        rhs = hyper_pfq([0.9, 0.5], [2.5], 0.25).value
        assert rel(lhs, rhs) <= 1e-13

    def test_frozen_value(self):
        value = appell_f3(0.9, 0.6, 0.5, 1.2, 2.5, 0.25, 0.35).value
        assert rel(value, 1.1780337705216887196) <= 1e-13

    def test_brute_force_rectangular(self):
        a1, a2, b1, b2, g = 1.1, 0.7, 0.4, 1.6, 3.0
        x, y = -0.5, 0.4

        def coeff(m, n):
            return log_term([(a1, m), (a2, n), (b1, m), (b2, n)], [(g, m + n)], m, n)

        assert rel(appell_f3(a1, a2, b1, b2, g, x, y).value, brute_double(coeff, x, y)) <= 1e-11


class TestHumbertPhi2:
    def test_at_origin(self):
        assert humbert_phi2(0.8, 0.8, 1.5, 0.0, 0.0).value == 1.0

    def test_reduces_to_1f1(self):
        lhs = humbert_phi2(0.9, 0.0, 1.4, 0.35, 0.8).value
        rhs = hyper_pfq([0.9], [1.4], 0.35).value
        assert rel(lhs, rhs) <= 1e-13

    def test_frozen_value(self):
        assert rel(humbert_phi2(0.8, 0.8, 1.5, 0.4, 0.7).value, 1.7995430509555858006) <= 1e-13

    def test_generating_expansion(self):
        # independent route: sum_n (a)_n/(b)_n 1F1(a; b+n; x) t^n / n!
        a, b, x, t = 0.8, 1.5, 0.4, 0.7
        total = 0.0
        for n in range(60):
            total += (pochhammer(a, n) / pochhammer(b, n)
                      * hyper_pfq([a], [b + n], x).value.real
                      * t ** n / math.factorial(n))
        assert rel(humbert_phi2(a, a, b, x, t).value, total) <= 1e-12

    def test_brute_force_rectangular(self):
        b1, b2, c = 0.8, 1.7, 2.2
        x, y = 1.6, -1.1  # entire: arguments beyond the unit disc are fine

        def coeff(m, n):
            return log_term([(b1, m), (b2, n)], [(c, m + n)], m, n)

        assert rel(humbert_phi2(b1, b2, c, x, y).value, brute_double(coeff, x, y)) <= 1e-11


class TestLauricellaFd:
    def test_single_variable_is_2f1(self):
        lhs = lauricella_fd(0.7, [0.4], 2.0, [0.3]).value
        rhs = hyper_pfq([0.7, 0.4], [2.0], 0.3).value
        assert rel(lhs, rhs) <= 1e-13

    def test_two_variables_is_f1(self):
        lhs = lauricella_fd(0.7, [0.4, 1.1], 2.0, [0.3, -0.2]).value
        rhs = appell_f1(0.7, 0.4, 1.1, 2.0, 0.3, -0.2).value
        assert rel(lhs, rhs) <= 1e-13

    def test_frozen_three_variable_value(self):
        value = lauricella_fd(0.6, [0.3, 0.5, 0.7], 2.2, [0.2, -0.15, 0.3]).value
        assert rel(value, 1.0633681931679657722) <= 1e-13

    def test_all_arguments_zero(self):
        assert lauricella_fd(0.6, [0.3, 0.5, 0.7], 2.2, [0.0, 0.0, 0.0]).value == 1.0

    def test_zero_exponent_drops_variable(self):
        base = lauricella_fd(0.6, [0.3, 0.0, 0.7], 2.2, [0.2, -0.15, 0.3]).value
        for replacement in (0.0, 0.4, -0.6):
            moved = lauricella_fd(0.6, [0.3, 0.0, 0.7], 2.2, [0.2, replacement, 0.3]).value
            assert rel(moved, base) <= 1e-13

    def test_domain_gates(self):
        with pytest.raises(DomainError):
            lauricella_fd(0.6, [0.3, 0.5], 2.2, [0.2])
        with pytest.raises(DomainError):
            lauricella_fd(0.6, [0.3], 2.2, [1.3])


class TestGegenbauer:
    def test_degree_zero(self):
        assert gegenbauer(0, 1.7, 0.3) == 1.0

    def test_degree_one(self):
        assert rel(gegenbauer(1, 1.5, 0.3), 0.9) <= 1e-15

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 11, 24])
    def test_value_at_one(self, n):
        for a in (0.35, 0.8, 1.6):
            assert rel(gegenbauer(n, a, 1.0), pochhammer(2.0 * a, n) / math.factorial(n)) <= 1e-12

    def test_generating_function(self):
        rng = random.Random(9)
        for _ in range(25):
            a = rng.uniform(0.3, 2.0)
            x = rng.uniform(-1.0, 1.0)
            t = rng.uniform(-0.4, 0.4)
            total = 0.0
            term_small = 0
            for n in range(400):
                term = gegenbauer(n, a, x) * t ** n
                total += term
                term_small = term_small + 1 if abs(term) <= 1e-15 * abs(total) else 0
                if term_small >= 3:
                    break
            closed = (1.0 - 2.0 * x * t + t * t) ** (-a)
            assert rel(total, closed) <= 1e-10


# -- outer coefficient arrays --------------------------------------------------


class _PochPowerStream:
    """Reference: the coefficients (a_1)_m ... (a_k)_m x^m / m!, one complex
    one-step update at a time."""

    def __init__(self, x, *params):
        self.x = complex(x)
        self.params = params
        self.values = [1.0 + 0.0j]

    def extend_to(self, m):
        v = self.values
        while len(v) <= m:
            k = len(v)
            c = v[-1]
            for a in self.params:
                c = c * (a + k - 1.0)
            v.append(c * self.x / k)


def _convolve_at(f, g, d):
    """Reference: the degree-d coefficient of the product f g, summed in order."""
    return sum(f[m] * g[d - m] for m in range(d + 1))


class TestCoefficientArrays:
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_poch_power_is_the_one_step_update(self, kind):
        rng = random.Random(11)
        for _ in range(60):
            x = rng.uniform(-0.99, 0.99)
            if kind == "complex":
                x = complex(x, rng.uniform(-0.99, 0.99))
            params = tuple(rng.uniform(-2.5, 3.0) for _ in range(rng.randint(0, 3)))
            count = rng.randint(1, 300)
            reference = _PochPowerStream(x, *params)
            reference.extend_to(count - 1)
            got = _poch_power(x, params, count).tolist()
            assert len(got) == count
            for c, r in zip(got, reference.values):
                # past an overflow both are non-finite, the reference as inf + nan j
                assert complex(c) == r if cmath.isfinite(r) else not cmath.isfinite(c)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_product_is_the_cauchy_product(self, n):
        rng = random.Random(n)
        for count in (1, 2, 47, 48, 49, 150):
            xs = [complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.3, 0.3)) for _ in range(n)]
            params = [(rng.uniform(0.1, 2.0),) for _ in range(n)]
            got = _product([_poch_power(x, a, count) for x, a in zip(xs, params)], count)
            assert len(got) == count
            ref = [_PochPowerStream(x, *a) for x, a in zip(xs, params)]
            for r in ref:
                r.extend_to(count - 1)
            partial = ref[0].values
            for r in ref[1:]:
                partial = [_convolve_at(partial, r.values, d) for d in range(count)]
            scale = [sum(abs(c) for c in r.values[:count]) for r in ref]
            bound = 1e-15 * math.prod(scale)
            assert all(abs(g - w) <= bound for g, w in zip(got.tolist(), partial))


def _theorem6(a, alphas, xs, r, s, delta, omega, lam, p, t):
    return generating_integral_closed_form(BinomialGen(a), r, s, delta, omega, lam, p, t,
                                           tuple(zip(alphas, xs)))


# Sums that stop next to the edges of the first two coefficient blocks (48
# and 96 terms), with the term count and value of the term-by-term sum.
BLOCK_EDGE_POINTS = [
    (appell_f1, (0.48, 0.74, 0.77, 2.57, 0.6, 0.0), 48, 1.1093515579621425),
    (appell_f1, (1.89, 1.98, 1.92, 1.48, 0.68, -0.52), 95, 7.013866693191745),
    (appell_f3, (1.3, 1.47, 0.22, 1.26, 1.08, 0.53, 0.18), 48, 1.6698336221723888),
    (appell_f3, (0.32, 1.29, 1.3, 0.57, 0.95, 0.73, 0.47), 95, 2.647795890071555),
    (lauricella_fd, (1.12, [0.63, 1.33, 1.38], 1.89, [0.52, 0.43, 0.04]), 48, 2.13180462995185),
    (lauricella_fd, (1.86, [1.24, 0.89, 1.15], 2.61, [0.32, -0.74, 0.28]), 95,
     1.2478443278576286),
    (closed_form_theorem1, (0.41, 1.06, 0.43, 1.22, 0.59, -0.09, 0.5, -0.69), 49,
     0.9714407663819711),
    (closed_form_theorem1, (1.58, 2.0, 1.4, 0.34, 0.76, 0.06, 2.0, 0.98), 97, 2.273084314791064),
    (closed_form_theorem3, (2.12, 1.93, -1.12, 0.0, 1.0, -0.55, 1.0, 1.0, -0.17), 48,
     1.4671183066096967),
    (closed_form_theorem3, (0.94, 1.06, -0.21, 0.0, 1.0, -0.79, 1.0, 1.0, 0.5), 97,
     1.2226602615620328),
]

# Theorem 6 sums generator terms; the edge is where its first inner sum
# (n = 0) stops, followed by the number of generator terms and the value.
THEOREM6_EDGE_POINTS = [
    ((0.66, [0.67, 1.29], [0.56, 0.25], 0.8, 2.1, 1.0, 1.0, 1.0, 0.37, 0.74), 48, 21,
     1.6286110283521802),
    ((0.7, [0.6, 1.37], [0.77, 0.43], 0.8, 2.1, 1.0, 1.0, 1.0, 0.65, 0.61), 97, 19,
     2.1798596090114724),
]


@pytest.mark.parametrize("fn, args, terms, value", [
    *(pytest.param(fn, args, terms, value, id=f"{fn.__name__}-{terms}")
      for fn, args, terms, value in BLOCK_EDGE_POINTS),
    *(pytest.param(_theorem6, args, terms, value, id=f"_theorem6-{edge}")
      for args, edge, terms, value in THEOREM6_EDGE_POINTS)])
def test_sums_across_block_edges(fn, args, terms, value):
    result = fn(*args)
    assert result.terms_used == terms
    assert rel(result.value, value) <= 1e-15


@pytest.mark.parametrize("args, edge", [e[:2] for e in THEOREM6_EDGE_POINTS],
                         ids=[str(e[1]) for e in THEOREM6_EDGE_POINTS])
def test_theorem6_first_inner_sum_sits_on_the_edge(args, edge):
    a, alphas, xs, r, s, delta, omega, lam, p, t = args
    table = _InnerTable(lam, complex(p), SeriesPolicy())
    assert _lauricella_sum(r, s - r, _binomial_product(alphas, xs), table).terms_used == edge


class TestOverflowPastTheStop:
    """Coefficients built past the stopping degree may overflow; with every
    warning an error here, that must stay silent."""

    def test_theorem2_stops_before_its_stream_overflows(self):
        # On the F3 route: 12 terms in k; the k = 0 F3 stops after 145
        # diagonals and its x1 stream overflows from m = 176, in the block
        # after the stop
        spec = t2_spec(1.5, 1.1, 0.4, 0.6, 0.85, 0.3, 1.0, 0.5)
        result = spec.family.by_f3(spec, SeriesPolicy())
        assert result.terms_used == 12
        assert rel(result.value, 1.63576937131008) <= 1e-15
        # a 40-digit mpmath.quad value of the integral; the public route sums
        # the T1 form of Pfaff's map (3.3e-14 off here, the F3 route 3.7e-14)
        assert rel(result.value, 1.6357693713101403) <= 5e-14
        public = closed_form_theorem2(1.5, 1.1, 0.4, 0.6, 0.85, 0.3, 1.0, 0.5)
        assert rel(public.value, 1.6357693713101403) <= 5e-14

    def test_f3_overflow_is_a_divergence(self):
        with pytest.raises(DivergenceError):
            appell_f3(0.5, 0.7, 0.3, 0.4, 1.3, 0.9, 0.9)

    def test_theorem2_overflow_is_a_divergence(self):
        with pytest.raises(DivergenceError):
            closed_form_theorem2(1.5, 1.1, 0.4, 0.6, 0.99, 0.99, 1.0, 0.5)

    @pytest.mark.parametrize("args", [
        ["appell_f3", "alpha1=0.5", "alpha2=0.7", "beta1=0.3", "beta2=0.4", "gamma=1.3",
         "x=0.9", "y=0.9"],
        ["theorem2", "alpha=1.5", "beta=1.1", "alpha1=0.4", "alpha2=0.6", "x1=0.99",
         "x2=0.99", "lam=1", "p=0.5"],
    ])
    def test_cli_exit_3(self, args, capsys):
        assert main(["eval"] + args) == 3
        assert capsys.readouterr().err.startswith("convergence error: ")
