import itertools
import math
import random

import numpy as np
import pytest

from wrightlab import (
    BinomialGen,
    CustomGen,
    DomainError,
    GegenbauerGen,
    HumbertGen,
    QuadraturePolicy,
    SeriesPolicy,
    WrightSpec,
    beta_fn,
    evaluate_generating_integral_direct,
    gegenbauer,
    generating_integral_closed_form,
    humbert_phi2,
    hyper_pfq,
    wright_psi,
)
from wrightlab import identities
from wrightlab.cli import main
from wrightlab.errors import CancellationError
from wrightlab.series import _pfq_rows

TIGHT = QuadraturePolicy(target_abs_tol=1e-13)


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def test_t_zero_p_zero_is_beta():
    result = generating_integral_closed_form(BinomialGen(0.7), 0.8, 2.1, 1.0, 1.0,
                                             1.0, 0.0, 0.0)
    assert rel(result.value, beta_fn(0.8, 1.3)) <= 1e-13
    direct = evaluate_generating_integral_direct(BinomialGen(0.7), 0.8, 2.1, 1.0, 1.0,
                                                 1.0, 0.0, 0.0)
    assert rel(direct.value, beta_fn(0.8, 1.3)) <= 1e-12


def test_t_zero_keeps_raw_inner_series():
    spec = WrightSpec([(0.8, 1.0), (1.3, 1.0), (1.0, 1.0)], [(2.1, 2.0), (1.0, 1.0)])
    expected = wright_psi(spec, 0.6).value
    value = generating_integral_closed_form(BinomialGen(0.7), 0.8, 2.1, 1.0, 1.0,
                                            1.0, 0.6, 0.0).value
    assert rel(value, expected) <= 1e-14


@pytest.mark.parametrize("lam,p,t", [(1.0, 0.6, 0.3), (2.0, 0.6, -0.4), (1.0, 0.0, 0.3)])
def test_binomial_dual_evaluation(lam, p, t):
    closed = generating_integral_closed_form(BinomialGen(0.7), 0.8, 2.1, 1.0, 1.0,
                                             lam, p, t).value
    direct = evaluate_generating_integral_direct(BinomialGen(0.7), 0.8, 2.1, 1.0, 1.0,
                                                 lam, p, t, (), TIGHT).value
    assert rel(closed, direct) <= 1e-8


def test_binomial_complex_t():
    t = 0.2 + 0.2j
    closed = generating_integral_closed_form(BinomialGen(0.7), 1.5, 3.0, 1.0, 1.0,
                                             1.0, 0.6, t).value
    direct = evaluate_generating_integral_direct(BinomialGen(0.7), 1.5, 3.0, 1.0, 1.0,
                                                 1.0, 0.6, t, (), TIGHT).value
    assert rel(closed, direct) <= 1e-8


def test_humbert_dual_evaluation():
    gen = HumbertGen(0.8, 1.7, 0.6)
    closed = generating_integral_closed_form(gen, 0.8, 2.1, 1.0, 1.0, 1.0, 0.6, 0.3).value
    direct = evaluate_generating_integral_direct(gen, 0.8, 2.1, 1.0, 1.0, 1.0, 0.6, 0.3,
                                                 (), TIGHT).value
    assert rel(closed, direct) <= 1e-8


@pytest.mark.parametrize("tau", [0.075, 1.5, 6.0, -6.0, 3j])
def test_humbert_node_form_is_phi2(tau):
    # the node form sums coefficient(n) tau^n; Phi2 sums the same double
    # series by total degree in (x, tau)
    gen = HumbertGen(0.8, 1.7, 0.6)
    got = gen.node_values(np.array([tau, 0.5 * tau], dtype=complex))
    for value, arg in zip(got, (tau, 0.5 * tau)):
        assert rel(value, humbert_phi2(0.8, 0.8, 1.7, 0.6, arg).value) <= 2e-14


def test_humbert_node_form_of_no_nodes():
    assert HumbertGen(0.8, 1.7, 0.6).node_values(np.array([], dtype=complex)).size == 0


@pytest.mark.parametrize("tau", [100.0, 400.0])
def test_humbert_node_form_at_large_tau(tau):
    # Phi2(a, a; 2a; x, tau) = e^x 1F1(a; 2a; tau - x), an exact reduction;
    # humbert_phi2 itself stops there with a DivergenceError.  A bare power
    # tau^n of the node form overflowed at n = 119 for tau = 400.
    gen = HumbertGen(0.8, 1.6, 0.6)
    got = gen.node_values(np.array([tau, 0.5 * tau, 0.0], dtype=complex))
    for value, arg in zip(got, (tau, 0.5 * tau, 0.0)):
        exact = math.exp(0.6) * hyper_pfq([0.8], [1.6], arg - 0.6).value
        assert rel(value, exact) <= 1e-11, arg


def test_humbert_generating_integral_at_large_t(capsys):
    # t^n overflowed on its own at n = 119 (exit 3); the running product of
    # the coefficient folds t in, so the term overflows only where its value does
    args = ["gen=humbert", "a=0.8", "b=1.7", "x=0.6", "r=1.1", "s=2.3", "delta=1", "omega=1",
            "lam=1", "p=0.5", "t=400"]
    assert main(["eval", "generating", *args]) == 0
    value = float(capsys.readouterr().out.split()[1].removeprefix("value="))
    direct = evaluate_generating_integral_direct(HumbertGen(0.8, 1.7, 0.6), 1.1, 2.3, 1.0, 1.0,
                                                 1.0, 0.5, 400.0)
    assert rel(value, direct.value) <= 1e-8


def test_gegenbauer_coefficients_are_the_polynomials():
    gen = GegenbauerGen(0.35, 0.8)
    assert [gen.coefficient(n) for n in range(40)] == [gegenbauer(n, 0.35, 0.8)
                                                      for n in range(40)]


def test_gegenbauer_dual_evaluation():
    gen = GegenbauerGen(0.35, 0.8)
    closed = generating_integral_closed_form(gen, 1.5, 3.0, 1.0, 1.0, 2.0, 0.6, 0.3).value
    direct = evaluate_generating_integral_direct(gen, 1.5, 3.0, 1.0, 1.0, 2.0, 0.6, 0.3,
                                                 (), TIGHT).value
    assert rel(closed, direct) <= 1e-8


def test_gegenbauer_at_one_equals_binomial_doubled():
    rng = random.Random(13)
    for _ in range(10):
        a = rng.uniform(0.3, 1.2)
        t = rng.uniform(-0.4, 0.4)
        p = rng.uniform(0.0, 0.6)
        left = generating_integral_closed_form(GegenbauerGen(a, 1.0), 0.8, 2.1, 1.0, 1.0,
                                               1.0, p, t).value
        right = generating_integral_closed_form(BinomialGen(2.0 * a, 1.0), 0.8, 2.1,
                                                1.0, 1.0, 1.0, p, t).value
        assert rel(left, right) <= 1e-12
        dleft = evaluate_generating_integral_direct(GegenbauerGen(a, 1.0), 0.8, 2.1,
                                                    1.0, 1.0, 1.0, p, t).value
        dright = evaluate_generating_integral_direct(BinomialGen(2.0 * a, 1.0), 0.8, 2.1,
                                                     1.0, 1.0, 1.0, p, t).value
        assert rel(dleft, dright) <= 1e-12


def test_symmetric_specialization():
    # s = 2r with equal exponent weights on u and 1-u
    r, omega, a = 0.9, 1.0, 0.7
    closed = generating_integral_closed_form(BinomialGen(a), r, 2.0 * r, omega, omega,
                                             1.0, 0.6, 0.25).value
    direct = evaluate_generating_integral_direct(BinomialGen(a), r, 2.0 * r, omega, omega,
                                                 1.0, 0.6, 0.25, (), TIGHT).value
    assert rel(closed, direct) <= 1e-8


def test_product_factors_dual_evaluation():
    factors = ((0.4, 0.3), (0.7, -0.2))
    closed = generating_integral_closed_form(BinomialGen(0.5), 0.8, 2.1, 1.0, 1.0,
                                             1.0, 0.6, 0.25, factors).value
    direct = evaluate_generating_integral_direct(BinomialGen(0.5), 0.8, 2.1, 1.0, 1.0,
                                                 1.0, 0.6, 0.25, factors, TIGHT).value
    assert rel(closed, direct) <= 1e-8


def test_product_factors_empty_exponent_matches_plain():
    plain = generating_integral_closed_form(BinomialGen(0.5), 0.8, 2.1, 1.0, 1.0,
                                            1.0, 0.6, 0.25).value
    padded = generating_integral_closed_form(BinomialGen(0.5), 0.8, 2.1, 1.0, 1.0,
                                             1.0, 0.6, 0.25, ((0.0, 0.4),)).value
    assert rel(padded, plain) <= 1e-12


def test_lambda_one_collapse_to_two_by_one():
    # at lam = 1 the inner series carries a removable (1,1) pair
    rng = random.Random(23)
    for _ in range(30):
        ra = rng.uniform(0.3, 3.0)
        rb = rng.uniform(0.3, 3.0)
        rc = rng.uniform(0.6, 6.0)
        p = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        full = wright_psi(WrightSpec([(ra, 1.0), (rb, 1.0), (1.0, 1.0)],
                                     [(rc, 2.0), (1.0, 1.0)]), p).value
        collapsed = wright_psi(WrightSpec([(ra, 1.0), (rb, 1.0)], [(rc, 2.0)]), p).value
        assert rel(full, collapsed) <= 1e-13


def test_custom_generator():
    # custom coefficient stream: the exponential generator exp(t)
    gen = CustomGen(lambda n: 1.0 / math.factorial(n))
    closed = generating_integral_closed_form(gen, 0.8, 2.1, 1.0, 1.0, 1.0, 0.0, 0.3)
    expected = sum(
        (0.3 ** n / math.factorial(n))
        * wright_psi(WrightSpec([(0.8 + n, 1.0), (1.3 + n, 1.0), (1.0, 1.0)],
                                [(2.1 + 2.0 * n, 2.0), (1.0, 1.0)]), 0.0).value
        for n in range(25))
    assert rel(closed.value, expected) <= 1e-12
    with pytest.raises(DomainError):
        evaluate_generating_integral_direct(gen, 0.8, 2.1, 1.0, 1.0, 1.0, 0.0, 0.3)



# Both routes build the one spec, so they refuse the same points; the
# oracle used to skip the generator's own argument check (the last two).
_OUT_OF_DOMAIN = {
    "r<=0": (BinomialGen(0.7), 0.0, 2.1, 1.0, 1.0, 1.0, 0.6, 0.3),
    "s<=r": (BinomialGen(0.7), 0.8, 0.8, 1.0, 1.0, 1.0, 0.6, 0.3),
    "delta=omega=0": (BinomialGen(0.7), 0.8, 2.1, 0.0, 0.0, 1.0, 0.6, 0.3),
    "delta=nan": (BinomialGen(0.7), 0.8, 2.1, math.nan, 1.0, 1.0, 0.6, 0.3),
    "|x_i|>=1": (BinomialGen(0.7), 0.8, 2.1, 1.0, 1.0, 1.0, 0.6, 0.3, [(0.4, 1.0)]),
    "lam=0,|p|>=4": (BinomialGen(0.7), 0.8, 2.1, 1.0, 1.0, 0.0, 4.0, 0.3),
    "binomial|xt|>=1": (BinomialGen(0.7), 0.8, 2.1, 1.0, 1.0, 1.0, 0.6, 1.2),
    "gegenbauer|t|>=1": (GegenbauerGen(0.35), 1.5, 3.0, 1.0, 1.0, 1.0, 0.6, 1.0),
}


@pytest.mark.parametrize("route", [generating_integral_closed_form,
                                   evaluate_generating_integral_direct],
                         ids=lambda route: route.__name__)
@pytest.mark.parametrize("args", list(_OUT_OF_DOMAIN.values()), ids=list(_OUT_OF_DOMAIN))
def test_both_routes_refuse_the_same_points(route, args):
    with pytest.raises(DomainError):
        route(*args)

def test_generating_build_validates_once_and_leaves_the_scale_to_the_oracle(monkeypatch):
    calls = {"validate": 0, "beta_fn": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(identities.EulerIntegralSpec, "validate",
                        counted("validate", identities.EulerIntegralSpec.validate))
    monkeypatch.setattr(identities, "beta_fn", counted("beta_fn", identities.beta_fn))
    for factors in ((), [(0.4, 0.3)]):
        calls.update(validate=0, beta_fn=0)
        case = identities.generating_case("gen", BinomialGen(0.7), 0.8, 2.1, 1.0, 1.0, 1.0, 0.6,
                                          0.3, factors)
        assert calls == {"validate": 1, "beta_fn": 0}
        case.oracle()
        assert calls == {"validate": 2, "beta_fn": 1}  # the oracle's own check, and the scale


def test_parameter_gates():
    with pytest.raises(DomainError):
        generating_integral_closed_form(BinomialGen(0.7), 2.1, 0.8, 1.0, 1.0, 1.0, 0.0, 0.1)
    with pytest.raises(DomainError):
        generating_integral_closed_form(BinomialGen(0.7), 0.8, 2.1, 0.0, 0.0, 1.0, 0.0, 0.1)
    with pytest.raises(DomainError):
        generating_integral_closed_form(BinomialGen(0.7), 0.8, 2.1, 1.0, 1.0, 1.0, 0.0, 1.2)


# ---------------------------------------------------------------------------
# Nested inner sums, a block of rows at a time
# ---------------------------------------------------------------------------


def scalar_only(monkeypatch, rows):
    """Leave every row of the identities helper `rows` to the scalar route."""
    monkeypatch.setattr(identities, rows, lambda *args: itertools.repeat(None))


def case_4_2_2f2(p):
    return identities.application_case("4.2-2f2", p, alpha=1.0, beta=1.4, alpha1=0.3,
                                       alpha2=0.4, x1=0.25)


HUMBERT_AT_30 = (1.1, 2.3, 1.0, 1.0, 1.0, 0.5, 0.3)


def test_humbert_rows_past_the_block_take_the_scalar_route(monkeypatch):
    # at x = 30 every 1F1(a; b+n; x) row takes 63-83 terms, past the block
    assert all(row is None for row in _pfq_rows([0.8], [1.7 + np.arange(16.0)], 30.0,
                                                SeriesPolicy()))
    gen = HumbertGen(0.8, 1.7, 30.0)
    value = generating_integral_closed_form(gen, *HUMBERT_AT_30).value
    assert value == 321687255346.16327  # the value of the term-by-term route
    assert {row.terms_used for row in gen._f11} <= set(range(63, 84))
    assert gen._f11 == [hyper_pfq([0.8], [1.7 + n], 30.0) for n in range(len(gen._f11))]
    scalar_only(monkeypatch, "_pfq_rows")
    again = generating_integral_closed_form(HumbertGen(0.8, 1.7, 30.0), *HUMBERT_AT_30)
    assert again.value == value


def test_humbert_rows_are_the_scalar_1f1_values(monkeypatch):
    gen = HumbertGen(0.8, 1.7, 0.6)
    coefficients = list(itertools.islice(gen.scaled_coefficients(0.3), 40))
    assert all(row.terms_used <= 24 for row in gen._f11)  # settled within the block
    scalar_only(monkeypatch, "_pfq_rows")
    scalar = HumbertGen(0.8, 1.7, 0.6).scaled_coefficients(0.3)
    assert coefficients == list(itertools.islice(scalar, 40))


@pytest.mark.parametrize("p", [0.0, 0.8, -0.8, 1.5, 0.5 + 0.5j, -1.2j, 48.0, 60.0])
def test_2f2_rows_match_the_scalar_route(p, monkeypatch):
    # at p = 48 the first 17 rows need more than the block, at p = 60 every row
    closed = case_4_2_2f2(p).closed_form()
    scalar_only(monkeypatch, "_pfq_rows")
    assert repr(case_4_2_2f2(p).closed_form()) == repr(closed)


@pytest.mark.parametrize("p", [-60.0, 100j])
def test_2f2_rows_raise_the_errors_of_the_scalar_route(p, monkeypatch):
    with pytest.raises(CancellationError) as rows:
        case_4_2_2f2(p).closed_form()
    scalar_only(monkeypatch, "_pfq_rows")
    with pytest.raises(CancellationError) as scalar:
        case_4_2_2f2(p).closed_form()
    assert str(rows.value) == str(scalar.value)


THEOREM6 = [  # (lam, p, t): the default points, complex p and t, and lam = 0 near its gate,
    # where inner rows go to the scalar Wright engine
    (1.0, 0.0, 0.25), (1.0, 0.6, 0.25), (2.0, 0.3 + 0.3j, 0.2 - 0.1j), (0.0, 3.9, 0.25),
    (0.0, -3.9, 0.5),
]


@pytest.mark.parametrize("lam, p, t", THEOREM6)
def test_theorem6_rows_match_the_scalar_route(lam, p, t, monkeypatch):
    args = (BinomialGen(0.5), 0.8, 2.1, 1.0, 1.0, lam, p, t, ((0.4, 0.3), (0.7, -0.2)))
    closed = generating_integral_closed_form(*args)
    scalar_only(monkeypatch, "_lauricella_rows")
    assert repr(generating_integral_closed_form(*args)) == repr(closed)
