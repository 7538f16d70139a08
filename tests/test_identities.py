import cmath
import math
import random

import numpy as np
import pytest

from wrightlab import (
    BinomialGen,
    DomainError,
    EulerIntegralSpec,
    QuadraturePolicy,
    SeriesPolicy,
    SeriesResult,
    WrightSpec,
    appell_f1,
    appell_f3,
    application_case,
    closed_form_lauricella,
    closed_form_theorem1,
    closed_form_theorem2,
    closed_form_theorem3,
    closed_form_theorem4,
    euler_case,
    evaluate_integral_direct,
    hyper_pfq,
    lauricella_fd,
    reduce_lambda1,
    t1_spec,
    t2_spec,
    t3_spec,
    t4_spec,
    tn_spec,
    wright_psi_normalized,
)
from wrightlab.catalog import FAMILIES, family_names, iter_default_points
from wrightlab.identities import generating_spec
from wrightlab.verify import evaluate_point

TIGHT = QuadraturePolicy(target_abs_tol=1e-13)


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def inner_hat(alpha, beta, lam, p):
    spec = WrightSpec([(alpha, 1.0), (beta, 1.0), (1.0, 1.0)],
                      [(alpha + beta, 2.0), (1.0, lam)])
    return wright_psi_normalized(spec, p).value


class TestTheorem1:
    def test_p_zero_is_f1(self):
        lhs = closed_form_theorem1(1.2, 0.8, 0.5, 0.9, 0.3, -0.25, 1.0, 0.0).value
        rhs = appell_f1(1.2, 0.5, 0.9, 2.0, 0.3, -0.25).value
        assert rel(lhs, rhs) <= 1e-13

    def test_zero_arguments_collapse_to_inner_series(self):
        lhs = closed_form_theorem1(1.2, 0.8, 0.5, 0.9, 0.0, 0.0, 0.7, 0.9).value
        assert rel(lhs, inner_hat(1.2, 0.8, 0.7, 0.9)) <= 1e-14

    def test_frozen_dual_value(self):
        # 40-digit quadrature of the weighted integral with the exp kernel
        value = closed_form_theorem1(1.2, 0.8, 0.5, 0.9, 0.3, -0.25, 1.0, 0.7).value
        assert rel(value, 1.0954909115819567342) <= 1e-12

    def test_against_oracle(self):
        spec = t1_spec(1.2, 0.8, 0.5, 0.9, 0.3, -0.25, 1.0, 0.7)
        direct = evaluate_integral_direct(spec, TIGHT).value
        series = closed_form_theorem1(1.2, 0.8, 0.5, 0.9, 0.3, -0.25, 1.0, 0.7).value
        assert rel(series, direct) <= 1e-8

    def test_factor_swap_symmetry(self):
        rng = random.Random(21)
        for _ in range(40):
            alpha = rng.uniform(0.4, 2.5)
            beta = rng.uniform(0.4, 2.5)
            a1, a2 = rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5)
            x1, x2 = rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)
            lam = rng.choice([0.5, 1.0, 2.0])
            p = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            lhs = closed_form_theorem1(alpha, beta, a1, a2, x1, x2, lam, p).value
            rhs = closed_form_theorem1(alpha, beta, a2, a1, x2, x1, lam, p).value
            assert rel(lhs, rhs) <= 1e-12

    def test_domain_gates(self):
        with pytest.raises(DomainError):
            closed_form_theorem1(-1.0, 0.8, 0.5, 0.9, 0.3, 0.2, 1.0, 0.0)
        with pytest.raises(DomainError):
            closed_form_theorem1(1.0, 0.8, 0.5, 0.9, 1.3, 0.2, 1.0, 0.0)


class TestTheorem2:
    def test_p_zero_is_f3(self):
        # on the F3 route only the k = 0 weight is nonzero: one F3 value, then
        # three zero terms
        spec = t2_spec(1.5, 1.1, 0.4, 0.6, 0.2, 0.3, 1.0, 0.0)
        lhs = spec.family.by_f3(spec, SeriesPolicy())
        f3 = appell_f3(1.5, 1.1, 0.4, 0.6, 2.6, 0.2, 0.3).value
        assert lhs.value == f3
        assert lhs.terms_used == 4
        # the public route sums the T1 form of Pfaff's map instead (1.9e-16 here)
        assert rel(closed_form_theorem2(1.5, 1.1, 0.4, 0.6, 0.2, 0.3, 1.0, 0.0).value, f3) <= 1e-15

    def test_second_exponent_zero_matches_theorem1(self):
        lhs = closed_form_theorem2(1.5, 1.1, 0.4, 0.0, 0.2, 0.3, 0.5, 0.8).value
        rhs = closed_form_theorem1(1.5, 1.1, 0.4, 0.0, 0.2, 0.3, 0.5, 0.8).value
        assert rel(lhs, rhs) <= 1e-13

    def test_against_oracle(self):
        spec = t2_spec(1.5, 1.1, 0.4, 0.6, 0.2, 0.3, 0.5, -0.9)
        direct = evaluate_integral_direct(spec, TIGHT).value
        series = closed_form_theorem2(1.5, 1.1, 0.4, 0.6, 0.2, 0.3, 0.5, -0.9).value
        assert rel(series, direct) <= 1e-8


class TestTheorem3:
    def test_flat_weight_collapses(self):
        value = closed_form_theorem3(1.3, 0.7, -2.2, 0.0, 1.0, 0.0, 1.0, 1.5, 0.6).value
        assert rel(value, inner_hat(1.3, 0.7, 1.5, 0.6)) <= 1e-13

    def test_nonnegative_integer_exponent_truncates(self):
        result = closed_form_theorem3(1.1, 0.7, 2.0, 0.0, 1.0, 0.35, 1.0, 0.5, 0.8)
        spec = t3_spec(1.1, 0.7, 2.0, 0.0, 1.0, 0.35, 1.0, 0.5, 0.8)
        direct = evaluate_integral_direct(spec, TIGHT).value
        assert rel(result.value, direct) <= 1e-9

    def test_reference_configuration(self):
        series = closed_form_theorem3(0.9, 1.3, -0.7, 0.0, 1.0, -0.4, 1.0, 1.0, 0.5).value
        direct = evaluate_integral_direct(
            t3_spec(0.9, 1.3, -0.7, 0.0, 1.0, -0.4, 1.0, 1.0, 0.5), TIGHT).value
        assert rel(series, direct) <= 1e-9

    def test_general_interval(self):
        series = closed_form_theorem3(0.9, 1.3, -0.7, -1.0, 2.5, 0.3, 1.4, 1.0, 0.3).value
        direct = evaluate_integral_direct(
            t3_spec(0.9, 1.3, -0.7, -1.0, 2.5, 0.3, 1.4, 1.0, 0.3), TIGHT).value
        assert rel(series, direct) <= 1e-9

    def test_sign_condition(self):
        with pytest.raises(DomainError):
            closed_form_theorem3(0.9, 1.3, -0.7, 0.0, 1.0, -1.5, 1.0, 1.0, 0.5)

    @pytest.mark.parametrize("u", [1.0, 2.0])
    def test_series_argument_outside_the_disc(self, u):
        # w = -u (b-a) / (a u + v) = -u, but chi = u t + 1 > 0: the closed form
        # sums the mirrored weight, t -> 1 - t, at w/(w-1) = u/(1+u), which is
        # the spec with alpha and beta swapped, -u and u (a+b) + v.  Against
        # 45-digit mpmath.quad values the closed form is off by 1.7e-15 and
        # 7.4e-15 (its series stops at rel_tol 1e-14 with ratio up to 2/3),
        # the oracle by 9.3e-16.
        result = closed_form_theorem3(0.9, 1.3, -0.7, 0.0, 1.0, u, 1.0, 1.0, 0.5)
        assert result == closed_form_theorem3(1.3, 0.9, -0.7, 0.0, 1.0, -u, u + 1.0, 1.0, 0.5)
        direct = evaluate_integral_direct(t3_spec(0.9, 1.3, -0.7, 0.0, 1.0, u, 1.0, 1.0, 0.5),
                                          TIGHT).value
        assert rel(result.value, direct) <= 1e-14

    @pytest.mark.parametrize("gamma", [0.0, 2.0, 3.0])
    def test_terminating_sum_outside_the_disc(self, gamma):
        result = closed_form_theorem3(0.9, 1.3, gamma, 0.0, 1.0, 2.0, 1.0, 1.0, 0.5)
        direct = evaluate_integral_direct(
            t3_spec(0.9, 1.3, gamma, 0.0, 1.0, 2.0, 1.0, 1.0, 0.5), TIGHT).value
        assert result.terms_used == gamma + 4
        assert rel(result.value, direct) <= 1e-12


class TestTheorem4:
    def test_p_zero_prefactor(self):
        for nu, mu, a, b in ((0.0, 0.0, 0.0, 1.0), (0.5, 1.5, -1.0, 3.0), (2.0, 0.3, 2.0, 2.5)):
            value = closed_form_theorem4(1.2, 0.8, a, b, nu, mu, 1.0, 0.0).value
            expected = (nu + 1.0) ** -1.2 * (mu + 1.0) ** -0.8 / (b - a)
            assert rel(value, expected) <= 1e-13

    def test_zero_slopes_keep_inner_series(self):
        value = closed_form_theorem4(1.1, 0.9, 0.0, 1.0, 0.0, 0.0, 2.0, 1.3).value
        assert rel(value, inner_hat(1.1, 0.9, 2.0, 1.3)) <= 1e-14

    def test_scale_invariance(self):
        reference = None
        for a, b in ((0.0, 1.0), (-1.0, 3.0), (2.0, 2.5)):
            value = closed_form_theorem4(1.2, 0.8, a, b, 0.5, 1.5, 1.0, 0.9).value * (b - a)
            if reference is None:
                reference = value
            else:
                assert rel(value, reference) <= 1e-12

    def test_xi_max_is_the_attained_maximum(self):
        # the lam = 0 gate's bound: no node of a fine grid exceeds it, and xi
        # reaches it at (t-a)/(b-t) = (1+mu)/(1+nu)
        rng = random.Random(9)
        s = np.linspace(0.0, 1.0, 200001)
        for _ in range(50):
            nu, mu = rng.uniform(-0.999, 5.0), rng.uniform(-0.999, 5.0)
            family = t4_spec(1.0, 1.0, 0.0, 1.0, nu, mu, 0.0, 0.0).family
            bound = family.xi_max(1.0)
            grid = family.xi(s, 1.0 - s, family.chi(s, s, 1.0 - s, 1.0))
            assert grid.max() <= bound * (1.0 + 1e-12)
            peak = (1.0 + mu) / (2.0 + nu + mu)
            at_peak = family.xi(peak, 1.0 - peak, family.chi(peak, peak, 1.0 - peak, 1.0))
            assert rel(at_peak, bound) <= 1e-12

    def test_symmetric_reduction_is_1f1(self):
        # alpha = beta on (0, 1) at lam = 1 reduces to a confluent value
        alpha, nu, mu, p = 0.8, 0.4, 1.1, 1.3
        scale = ((nu + 1.0) * (mu + 1.0)) ** -alpha
        inner = p / (4.0 * (nu + 1.0) * (mu + 1.0))
        expected = scale * hyper_pfq([alpha], [alpha + 0.5], inner).value
        value = closed_form_theorem4(alpha, alpha, 0.0, 1.0, nu, mu, 1.0, p).value
        assert rel(value, expected) <= 1e-10

    @pytest.mark.parametrize("alpha, reference", [
        (200.0, "1.132795391497358903255574"),
        (400.0, "1.13297166094259635684754"),
        (600.0, "1.133030533429994247557379"),
        (2000.0, "1.133113052686318278711231"),
    ])
    def test_large_equal_exponents(self, alpha, reference):
        # 50-digit sums at nu = mu = 0, lam = 1, p = 0.5 on (0, 1), where terms formed
        # from differences of log-gammas near ln Gamma(2 alpha) lose 1e-14 to 1e-12
        value = closed_form_theorem4(alpha, alpha, 0.0, 1.0, 0.0, 0.0, 1.0, 0.5).value
        assert rel(value, float(reference)) <= 5e-16

    def test_against_oracle_complex_p(self):
        p = 0.7 - 0.9j
        series = closed_form_theorem4(0.7, 1.9, -1.0, 3.0, -0.5, 2.0, 2.0, p).value
        direct = evaluate_integral_direct(t4_spec(0.7, 1.9, -1.0, 3.0, -0.5, 2.0, 2.0, p),
                                          TIGHT).value
        assert rel(series, direct) <= 1e-9


class TestLauricellaClosedForm:
    def test_two_variable_case_matches_theorem1(self):
        rng = random.Random(31)
        for _ in range(40):
            alpha = rng.uniform(0.3, 2.5)
            beta = rng.uniform(0.3, 2.5)
            a1, a2 = rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5)
            x1, x2 = rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)
            lam = rng.choice([0.5, 1.0, 2.0])
            p = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            lhs = closed_form_lauricella(alpha, beta, (a1, a2), (x1, x2), lam, p).value
            rhs = closed_form_theorem1(alpha, beta, a1, a2, x1, x2, lam, p).value
            assert rel(lhs, rhs) <= 1e-12

    def test_p_zero_is_fd(self):
        lhs = closed_form_lauricella(0.6, 1.6, (0.3, 0.5, 0.7), (0.2, -0.15, 0.3), 1.0, 0.0).value
        rhs = lauricella_fd(0.6, [0.3, 0.5, 0.7], 2.2, [0.2, -0.15, 0.3]).value
        assert rel(lhs, rhs) <= 1e-13

    def test_three_variables_against_oracle(self):
        series = closed_form_lauricella(1.1, 0.9, (0.3, 0.5, 0.7), (0.2, -0.15, 0.3),
                                        1.0, 0.8).value
        spec = tn_spec(1.1, 0.9, (0.3, 0.5, 0.7), (0.2, -0.15, 0.3), 1.0, 0.8)
        direct = evaluate_integral_direct(spec, TIGHT).value
        assert rel(series, direct) <= 1e-8

    def test_variable_cap(self):
        with pytest.raises(DomainError):
            closed_form_lauricella(1.0, 1.0, (0.1,) * 5, (0.1,) * 5, 1.0, 0.0)


class TestReduceLambda1:
    def make_spec(self, alpha, beta):
        return WrightSpec([(alpha, 1.0), (beta, 1.0), (1.0, 1.0)],
                          [(alpha + beta, 2.0), (1.0, 1.0)])

    def test_p_zero(self):
        assert rel(reduce_lambda1(self.make_spec(1.3, 0.9), 0.0).value, 1.0) <= 1e-15

    def test_unit_parameters_give_confluent_value(self):
        value = reduce_lambda1(self.make_spec(1.0, 1.0), 1.0).value
        expected = hyper_pfq([1.0], [1.5], 0.25).value
        assert rel(value, expected) <= 1e-13

    def test_unit_weight_route_and_direct_summation(self):
        # three independent routes to the same value: the lam = 1 inner
        # series, its quarter-argument reduction written as a unit-weight
        # normalized Wright instance, and a plain term-by-term sum
        from wrightlab.scalars import log_pochhammer_signed

        for alpha, beta, p in ((1.3, 0.9, 0.5), (0.7, 2.1, -1.4), (1.0, 1.0, 1.0)):
            h1 = 0.5 * (alpha + beta)
            h2 = h1 + 0.5
            inner = self.make_spec(alpha, beta)
            reduced = reduce_lambda1(inner, p).value
            unit = WrightSpec([(alpha, 1.0), (beta, 1.0), (1.0, 1.0)],
                              [(h1, 1.0), (h2, 1.0), (1.0, 1.0)])
            via_wright = wright_psi_normalized(unit, p / 4.0).value
            direct = 0.0
            for k in range(200):
                logs = 0.0
                sign = 1
                for a, flip in ((alpha, 1), (beta, 1), (h1, -1), (h2, -1)):
                    log_value, s = log_pochhammer_signed(a, k)
                    logs += flip * log_value
                    sign *= s
                term = sign * math.exp(logs) * (p / 4.0) ** k / math.factorial(k)
                direct += term
                if abs(term) <= 1e-18 * abs(direct):
                    break
            assert rel(reduced, via_wright) <= 1e-12
            assert rel(reduced, direct) <= 1e-12

    def test_agrees_with_wright_route(self):
        rng = random.Random(17)
        for _ in range(30):
            alpha = rng.uniform(0.3, 3.0)
            beta = rng.uniform(0.3, 3.0)
            p = cmath.rect(rng.uniform(0, 2.0), rng.uniform(0, 2 * math.pi))
            spec = self.make_spec(alpha, beta)
            direct = wright_psi_normalized(spec, p).value
            reduced = reduce_lambda1(spec, p).value
            assert rel(reduced, direct) <= 1e-12

    def test_rejects_other_shapes(self):
        with pytest.raises(DomainError):
            reduce_lambda1(WrightSpec([(1.0, 1.0)], [(1.0, 1.0)]), 0.5)
        with pytest.raises(DomainError):
            reduce_lambda1(WrightSpec([(1.0, 1.0), (2.0, 1.0), (1.0, 1.0)],
                                      [(3.0, 2.0), (1.0, 0.5)]), 0.5)


class TestApplicationCases:
    def test_case_41_zero_argument(self):
        case = application_case("4.1", 0.9, alpha=0.8, alpha1=0.5, x1=0.0, lam=1.0)
        value = case.closed_form(SeriesPolicy()).value
        assert rel(value, inner_hat(0.8, 0.8, 1.0, 0.9)) <= 1e-13

    def test_case_41_mirror_argument_bound(self):
        with pytest.raises(DomainError):
            application_case("4.1", 0.0, alpha=0.8, alpha1=0.5, x1=0.6, lam=1.0)

    def test_case_42_triple_cross_check(self):
        kwargs = dict(alpha=1.0, beta=1.4, alpha1=0.3, alpha2=0.4, x1=0.25)
        policy = SeriesPolicy()
        series = application_case("4.2", 0.9, lam=1.0, **kwargs)
        reduced = application_case("4.2-2f2", 0.9, **kwargs)
        v1 = series.closed_form(policy).value
        v2 = reduced.closed_form(policy).value
        v3 = series.oracle(TIGHT).value
        assert rel(v1, v2) <= 1e-9
        assert rel(v1, v3) <= 1e-9
        assert rel(v2, v3) <= 1e-9

    def test_case_43_sign_of_the_argument(self):
        # the single-sum route must agree with the two-factor route at the
        # same integrand, fixing the sign of the series argument
        p = 0.8
        lhs = application_case("4.3", p, alpha=0.9, beta=1.3, alpha1=0.8, x1=0.45,
                               lam=1.0).closed_form(SeriesPolicy()).value
        rhs = closed_form_theorem1(0.9, 1.3, 0.8, 0.0, 0.45, 0.0, 1.0, p).value
        assert rel(lhs, rhs) <= 1e-12

    def test_case_43_argument_bound(self):
        # x1 is the T3 series argument; chi = 1 - x1 t must stay positive, so
        # x1 < 1, and x1 <= -1 is summed mirrored (terminating or not)
        with pytest.raises(DomainError):
            application_case("4.3", 0.5, alpha=0.9, beta=1.3, alpha1=0.8, x1=1.5, lam=1.0)
        for alpha1 in (0.8, -2.0):
            case = application_case("4.3", 0.5, alpha=0.9, beta=1.3, alpha1=alpha1, x1=-1.5,
                                    lam=1.0)
            assert rel(case.closed_form(SeriesPolicy()).value,
                       case.oracle(TIGHT).value) <= 1e-12

    def test_case_44_trivial_point(self):
        case = application_case("4.4", 0.0, alpha=1.0, beta=1.0, a=0.0, b=1.0, lam=1.0)
        assert rel(case.closed_form(SeriesPolicy()).value, 1.0) <= 1e-14

    def test_case_45_against_oracle(self):
        case = application_case("4.5", 1.1, alpha=1.6, nu=0.4, mu=1.1, lam=2.0)
        closed = case.closed_form(SeriesPolicy()).value
        direct = case.oracle(TIGHT).value
        assert rel(closed, direct) <= 1e-9

    def test_unknown_case(self):
        with pytest.raises(DomainError):
            application_case("9.9", 0.0)


def test_spec_validation_family_consistency():
    with pytest.raises(DomainError):
        t1_spec(1.0, 1.0, 0.5, 0.5, 0.3, 1.5, 1.0, 0.0).validate()
    with pytest.raises(DomainError):
        t4_spec(1.0, 1.0, 0.0, 1.0, -2.0, 0.0, 1.0, 0.0).validate()
    spec = t3_spec(1.0, 1.0, 0.5, 0.0, 1.0, 0.2, 1.0, 1.0, 0.0)
    spec.validate()


_T3_POINT = dict(alpha=1.2, beta=0.8, gamma=0.5, a=-0.5, b=1.0, u=0.2, v=1.0, lam=0.5, p=0.4)


@pytest.mark.parametrize("name, value", [
    *((name, math.inf) for name in ("alpha", "beta", "gamma", "a", "b", "lam", "p")),
    ("a", -math.inf), ("p", math.nan), ("p", complex(0.3, math.inf)), ("p", complex(math.nan, 0.0)),
])
@pytest.mark.parametrize("route", [EulerIntegralSpec.closed_form, evaluate_integral_direct],
                         ids=["closed_form", "oracle"])
def test_non_finite_parameters_are_refused_by_name(route, name, value):
    # inf * 0 in the outer sum's k = 0 column once reached math.floor(nan) in
    # the reflection sine, and a NaN p overflowed the oracle's node sum at n = 1
    spec = t3_spec(**{**_T3_POINT, name: value})
    with pytest.raises(DomainError, match=f"^{name} must be finite, got "):
        route(spec)


NON_FINITE_FAMILY_FIELDS = [  # (spec, the field refused)
    (t1_spec(1.2, 0.8, 0.5, 0.9, math.nan, -0.25, 1.0, 0.5), "x1"),
    (t2_spec(1.2, 0.8, 0.5, -math.inf, 0.3, -0.25, 1.0, 0.5), "alpha2"),
    (t3_spec(**{**_T3_POINT, "u": math.inf}), "u"),
    (t4_spec(1.0, 1.0, 0.0, 1.0, 0.0, math.nan, 1.0, 0.5), "mu"),
    (tn_spec(0.6, 1.4, (0.3, 0.5), (0.2, math.inf), 1.0, 0.5), "xs"),
    (generating_spec(BinomialGen(0.5), 0.8, 2.1, 1.0, math.inf, 1.0, 0.6, 0.25), "omega"),
    (generating_spec(BinomialGen(0.5), 0.8, 2.1, 1.0, 1.0, 1.0, 0.6, complex(0.25, math.nan)),
     "t"),
    (generating_spec(BinomialGen(0.5), 0.8, 2.1, 1.0, 1.0, 1.0, 0.6, 0.25,
                     ((0.4, 0.3), (math.inf, -0.2))), "factors"),
]


@pytest.mark.parametrize("spec, name", NON_FINITE_FAMILY_FIELDS,
                         ids=[name for _, name in NON_FINITE_FAMILY_FIELDS])
def test_non_finite_family_fields_are_refused_by_name(spec, name):
    # every numeric field of the family, tuples included, by one check of the spec
    with pytest.raises(DomainError, match=f"^{name} must be finite, got "):
        spec.validate()
    with pytest.raises(DomainError, match=f"^{name} must be finite, got "):
        evaluate_integral_direct(spec)


def test_theorem1_refuses_an_infinite_lam():
    with pytest.raises(DomainError, match="^lam must be finite, got inf$"):
        closed_form_theorem1(1.2, 0.8, 0.5, 0.9, 0.3, -0.25, math.inf, 0.5)


# ---------------------------------------------------------------------------
# The series route of each family, bound from its spec alone
# ---------------------------------------------------------------------------


def seeded_forms(seed):
    """(spec builder, public closed form, arguments) for one seeded point per family."""
    rng = random.Random(seed)
    u = rng.uniform
    alpha, beta, lam = u(0.4, 2.2), u(0.4, 2.2), rng.choice([0.5, 1.0, 2.0, u(0.3, 2.5)])
    p = complex(u(-1.0, 1.0), u(-1.0, 1.0))
    pair = (u(0.2, 1.4), u(0.2, 1.4), u(-0.5, 0.5), u(-0.5, 0.5))
    n = rng.randint(1, 4)
    return [
        (t1_spec, closed_form_theorem1, (alpha, beta, *pair, lam, p)),
        (t2_spec, closed_form_theorem2, (alpha, beta, *pair, lam, p)),
        (t3_spec, closed_form_theorem3,
         (alpha, beta, u(-1.5, 2.0), -0.5, 1.0, u(-0.3, 0.3), 1.0, lam, p)),
        (t4_spec, closed_form_theorem4,
         (alpha, beta, u(-1.0, 0.0), u(0.5, 2.0), u(-0.5, 1.5), u(-0.5, 1.5), lam, p)),
        (tn_spec, closed_form_lauricella,
         (alpha, beta, [u(0.2, 1.4) for _ in range(n)], [u(-0.5, 0.5) for _ in range(n)],
          lam, p)),
    ]


@pytest.mark.parametrize("seed", range(6))
def test_euler_case_binds_the_public_closed_form(seed):
    policy = SeriesPolicy(rel_tol=1e-13)
    for spec_fn, closed_fn, args in seeded_forms(seed):
        case = euler_case("route", spec_fn(*args))
        assert case.closed_form(policy) == closed_fn(*args, policy)
        assert case.closed_form() == closed_fn(*args) == spec_fn(*args).closed_form()


# Each application case as the public closed form of its family.
APPLICATION_FORMS = {
    "ex4.1": lambda alpha, alpha1, x1, lam, p: closed_form_theorem1(
        alpha, alpha, alpha1, alpha1, x1, x1 / (x1 - 1.0), lam, p),
    "ex4.2": lambda alpha, beta, alpha1, alpha2, x1, lam, p: closed_form_theorem1(
        alpha, beta, alpha1 + alpha2, 0.0, x1, 0.0, lam, p),
    "ex4.3": lambda alpha, beta, alpha1, x1, lam, p: closed_form_theorem3(
        alpha, beta, -alpha1, 0.0, 1.0, -x1, 1.0, lam, p),
    "ex4.4": lambda alpha, beta, a, b, lam, p: closed_form_theorem4(
        alpha, beta, a, b, 0.0, 0.0, lam, p),
    "ex4.5": lambda alpha, nu, mu, lam, p: closed_form_theorem4(
        alpha, alpha, 0.0, 1.0, nu, mu, lam, p),
}


@pytest.mark.parametrize("family", sorted(APPLICATION_FORMS))
def test_application_cases_bind_their_family_route(family):
    for params in iter_default_points(family):
        closed = FAMILIES[family].build(params).closed_form()
        expected = APPLICATION_FORMS[family](**params)
        if family == "ex4.2":  # the constant weight 1/(1 - x1) scales the T1 value
            scale = 1.0 / (1.0 - params["x1"])
            expected = SeriesResult(scale * expected.value, expected.terms_used,
                                    scale * expected.tail_estimate)
        assert closed == expected


@pytest.fixture
def validations(monkeypatch):
    """The specs EulerIntegralSpec.validate is called on, from now on."""
    calls = []
    validate = EulerIntegralSpec.validate

    def counted(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(EulerIntegralSpec, "validate", counted)
    return calls


def first_points():
    return [(family, next(iter_default_points(family))) for family in family_names()]


def test_a_built_closed_route_validates_no_more(validations):
    for family, params in first_points():
        case = FAMILIES[family].build(params)
        validations.clear()
        case.closed_form(SeriesPolicy())
        assert (family, len(validations)) == (family, 0)


def test_a_verify_point_validates_at_build_and_oracle(validations):
    # the generating families validate once more, before their B(r, s - r)
    for family, params in first_points():
        if family.startswith("gen") or family.startswith("theorem6"):
            continue
        validations.clear()
        assert evaluate_point(family, params, 1e-8)["status"] == "pass"
        assert (family, len(validations)) == (family, 2)


def test_application_case_refuses_a_missing_or_foreign_parameter():
    with pytest.raises(TypeError):
        application_case("4.1", 0.5, alpha=0.9, alpha1=0.6, x1=0.3)
    with pytest.raises(TypeError):  # the 2F2 route holds only at lam = 1
        application_case("4.2", 0.5, alpha=1.0, beta=1.4, alpha1=0.3, alpha2=0.4, x1=0.25,
                         lam=2.0, reduced=True)
    with pytest.raises(TypeError):
        application_case("4.2-2f2", 0.5, alpha=1.0, beta=1.4, alpha1=0.3, alpha2=0.4, x1=0.25,
                         lam=2.0)


def test_a_generating_spec_has_no_route_of_its_own():
    spec = generating_spec(BinomialGen(0.7), 0.8, 2.1, 1.0, 1.0, 1.0, 0.6, 0.3)
    with pytest.raises(DomainError, match="generating_integral_closed_form"):
        spec.closed_form()
