import math
import os
import pathlib
import re
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from wrightlab import (
    CancellationError,
    DomainError,
    EvaluationError,
    NonConvergenceError,
    QuadraturePolicy,
    beta_fn,
    closed_form_theorem1,
    closed_form_theorem4,
    evaluate_integral_direct,
    hyper_pfq,
    t1_spec,
    t3_spec,
    t4_spec,
    tanh_sinh_integrate,
)
from wrightlab import quadrature
from wrightlab.quadrature import _integrate_vec, _level_nodes, _ml_values
from wrightlab.scalars import log_gamma
from wrightlab.series import CANCELLATION_LIMIT


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def test_constant_integrand():
    result = tanh_sinh_integrate(lambda t: 1.0, 0.0, 1.0)
    assert rel(result.value, 1.0) <= 1e-14
    assert result.err_estimate >= 0.0
    assert result.evaluations > 0


def test_beta_half_half_single_argument():
    # One-argument integrands lose the exact endpoint distances, which caps
    # the accuracy near 1e-9 for square-root singularities.
    policy = QuadraturePolicy(target_abs_tol=1e-8)
    result = tanh_sinh_integrate(lambda t: t ** -0.5 * (1.0 - t) ** -0.5, 0.0, 1.0, policy)
    assert rel(result.value, math.pi) <= 1e-8


def test_beta_half_half_distance_aware():
    result = tanh_sinh_integrate(lambda t, da, db: da ** -0.5 * db ** -0.5, 0.0, 1.0)
    assert rel(result.value, math.pi) <= 1e-13


def test_weighted_gauss_kernel_frozen():
    # t^0.2 (1-t)^1.3 (1-0.3 t)^-0.5 over (0,1); 40-digit value
    result = tanh_sinh_integrate(
        lambda t, da, db: da ** 0.2 * db ** 1.3 * (1.0 - 0.3 * t) ** -0.5, 0.0, 1.0)
    assert rel(result.value, 0.34105844848190639115) <= 1e-12


@pytest.mark.parametrize("scale", [1e-121, 1.0, 1e121])
def test_stopping_rule_is_relative_to_the_integrand_scale(scale):
    # the same integrand at any scale takes the same levels to the same digits
    def f(x, da, db):
        return scale * da ** 0.2 * db ** 1.3 * (1.0 - 0.3 * x) ** -0.5

    result = _integrate_vec(f, 0.0, 1.0, QuadraturePolicy())
    assert rel(result.value / scale, 0.34105844848190639115) <= 1e-12
    assert result.evaluations == _integrate_vec(
        lambda x, da, db: f(x, da, db) / scale, 0.0, 1.0, QuadraturePolicy()).evaluations


def test_large_exponents_reach_the_closed_form():
    # the raw integral is about 1e-121 before the 1/B(200, 200) normalization
    spec = t4_spec(200.0, 200.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.5)
    closed = closed_form_theorem4(200.0, 200.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.5).value
    # against the 50-digit sum of the inner series
    assert rel(closed, 1.132795391497358903255574) <= 1e-15
    assert rel(evaluate_integral_direct(spec).value, closed) <= 1e-12


def test_beta_grid_self_check():
    for x in np.linspace(0.2, 5.0, 10):
        for y in np.linspace(0.2, 5.0, 10):
            result = tanh_sinh_integrate(
                lambda t, da, db, x=x, y=y: da ** (x - 1.0) * db ** (y - 1.0), 0.0, 1.0)
            assert rel(result.value, beta_fn(float(x), float(y))) <= 1e-12


def test_gauss_integral_representation():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.uniform(0.2, 3.0)
        b = rng.uniform(0.2, 3.0)
        c = b + rng.uniform(0.2, 3.0)
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.35, 0.35))
        if abs(z) > 0.5:
            z = z / abs(z) * 0.5
        result = tanh_sinh_integrate(
            lambda t, da, db: da ** (b - 1.0) * db ** (c - b - 1.0) * (1.0 - z * t) ** -a,
            0.0, 1.0)
        series = hyper_pfq([a, b], [c], z).value
        assert rel(result.value / beta_fn(b, c - b), series) <= 1e-10


def test_interval_orientation_gate():
    with pytest.raises(DomainError):
        tanh_sinh_integrate(lambda t: 1.0, 1.0, 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_integrand():
    with pytest.raises(EvaluationError):
        tanh_sinh_integrate(lambda t: 1.0 / (t - 0.5), 0.0, 1.0)


def test_non_convergence_carries_best_value():
    policy = QuadraturePolicy(target_abs_tol=1e-12, max_levels=3, min_levels=3)
    with pytest.raises(NonConvergenceError) as excinfo:
        tanh_sinh_integrate(lambda t, da, db: da ** -0.97, 0.0, 1.0, policy)
    assert excinfo.value.value is not None


def test_monotone_level_refinement():
    # The level-difference estimate shrinks with every refinement until the
    # stopping level; probed by forcing stalls at increasing level caps.
    def probe(fvec, a, b):
        errs = []
        for levels in range(3, 9):
            pol = QuadraturePolicy(target_abs_tol=1e-30, max_levels=levels)
            try:
                _integrate_vec(fvec, a, b, pol)
            except NonConvergenceError as stall:
                errs.append(stall.err_estimate)
        return errs

    errs = probe(lambda x, da, db: da ** -0.4 * db ** 0.3 * np.exp(0.7 * da * db), 0.0, 1.0)
    assert all(later < earlier for earlier, later in zip(errs, errs[1:]))


def test_affine_invariance_linear_weight():
    # direct integral over (a, b) equals the (0,1)-substituted integral with
    # the matching power of the width and rescaled weight and argument
    a, b = -1.0, 2.5
    alpha, beta, gamma, u, v, lam = 0.9, 1.3, -0.7, 0.3, 1.4, 1.0
    p = 0.35
    width = b - a
    qpol = QuadraturePolicy(target_abs_tol=1e-13)
    lhs = evaluate_integral_direct(t3_spec(alpha, beta, gamma, a, b, u, v, lam, p), qpol)
    rhs = evaluate_integral_direct(
        t3_spec(alpha, beta, gamma, 0.0, 1.0, u * width, a * u + v, lam, p * width ** 2), qpol)
    scaled = rhs.value * width ** (alpha + beta - 1.0)
    assert rel(lhs.value, scaled) <= 1e-12


def test_affine_invariance_t4():
    alpha, beta, nu, mu, lam, p = 1.2, 0.8, 0.5, 1.5, 1.0, 0.9
    qpol = QuadraturePolicy(target_abs_tol=1e-13)
    values = []
    for a, b in ((0.0, 1.0), (-1.0, 3.0), (2.0, 2.5)):
        res = evaluate_integral_direct(t4_spec(alpha, beta, a, b, nu, mu, lam, p), qpol)
        values.append(res.value * (b - a))
    assert rel(values[1], values[0]) <= 1e-12
    assert rel(values[2], values[0]) <= 1e-12


def test_first_order_p_sensitivity():
    # central difference of the direct integral at p = 0 against the
    # analytic first series coefficient
    alpha, beta, nu, mu, lam = 1.1, 0.9, 0.4, 1.1, 1.0
    step = 1e-5
    qpol = QuadraturePolicy(target_abs_tol=1e-13)
    up = evaluate_integral_direct(t4_spec(alpha, beta, 0.0, 1.0, nu, mu, lam, step), qpol)
    down = evaluate_integral_direct(t4_spec(alpha, beta, 0.0, 1.0, nu, mu, lam, -step), qpol)
    derivative = (up.value - down.value).real / (2.0 * step)
    scale = (nu + 1.0) ** (-alpha) * (mu + 1.0) ** (-beta)
    inner = 1.0 / ((nu + 1.0) * (mu + 1.0))
    coeff = (alpha * beta / ((alpha + beta) * (alpha + beta + 1.0))
             / math.gamma(1.0 + lam))
    assert rel(derivative, scale * coeff * inner) <= 1e-6


def test_lam_zero_domain_gate():
    spec = t4_spec(1.0, 1.0, 0.0, 1.0, -0.5, -0.5, 0.0, 3.9)
    with pytest.raises(DomainError):
        evaluate_integral_direct(spec)


def test_quadrature_policy_validation():
    with pytest.raises(ValueError):
        QuadraturePolicy(target_abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadraturePolicy(max_levels=1, min_levels=3)


def test_node_series_overflow_is_a_typed_error_without_warnings():
    # E_{1/2} at p*xi down to -10: the node powers overflow before the
    # series settles, which must surface as an EvaluationError, not as
    # numpy overflow warnings followed by a non-finite integrand.
    spec = t1_spec(1.2, 0.8, 0.5, 0.9, 0.3, -0.25, 0.5, -40.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match="overflowed at n="):
            evaluate_integral_direct(spec)


def test_cancelled_node_values_fail_the_direct_integral():
    # E_{1/2} at p xi down to -5 cancels by a factor of 1.3e12; the levels
    # used to plateau on the noise it left, which nothing guaranteed
    spec = t1_spec(1.2, 0.8, 0.5, 0.9, 0.3, -0.25, 0.5, -20.0)
    with pytest.raises(CancellationError, match="node Mittag-Leffler"):
        evaluate_integral_direct(spec)


def test_node_cancellation_is_judged_node_by_node():
    # E_{1/2}(4) is about 2e7, far above the limit times the value 1 at the
    # first node, but no term is negative at any node
    xi = np.array([1e-12, 4.0])
    assert np.allclose(_ml_values(0.5, 1.0, xi), _ml_reference(0.5, 1.0, xi), rtol=1e-15)
    with pytest.raises(CancellationError, match="node Mittag-Leffler"):
        _ml_values(0.5, -1.0, xi)
    # T1 with positive p sums positive terms at every node
    spec = t1_spec(1.2, 0.8, 0.5, 0.9, 0.3, -0.25, 0.5, 20.0)
    closed = closed_form_theorem1(1.2, 0.8, 0.5, 0.9, 0.3, -0.25, 0.5, 20.0).value
    assert rel(evaluate_integral_direct(spec).value, closed) < 1e-12


def test_non_finite_node_names_the_bad_end():
    # the only non-finite nodes lie within 1e-3 of b
    with pytest.raises(EvaluationError, match=r"near x=0\.999\d*$"):
        tanh_sinh_integrate(lambda x, da, db: np.inf if db < 1e-3 else 1.0, 0.0, 1.0)


def _ml_reference(lam, p, xi):
    """E_lam(p xi) term by term: the loop _ml_values sums as one block.  With m
    the xi of largest |xi|, node i's term n is e_n (xi_i / m)^n, where e_n =
    (p m)^n / Gamma(lam n + 1); the sum stops at the first n with |e_n| at most
    1e-17 of the largest partial sum at m so far, or of 1."""
    i = np.argmax(np.abs(xi))
    top = float(xi[i])
    u = xi / top if top else xi
    z = complex(p) * top
    power, node_power, peak = 1.0, np.ones(len(xi)), 1.0
    re, im, abs_total = np.ones(len(xi)), np.zeros(len(xi)), np.ones(len(xi))
    for n in range(1, 2000):
        power = power * z
        term = power * math.exp(-log_gamma(lam * n + 1.0))
        size = math.hypot(term.real, term.imag)
        if not math.isfinite(size):
            raise EvaluationError(f"node Mittag-Leffler series overflowed at n={n}")
        node_power = node_power * u
        re = re + term.real * node_power
        im = im + term.imag * node_power
        abs_total = abs_total + size * np.abs(node_power)
        peak = max(peak, math.hypot(re[i], im[i]))
        if size <= 1e-17 * peak:
            total = re + 1j * im
            cancelled = np.flatnonzero(abs_total > CANCELLATION_LIMIT * np.abs(total))
            if cancelled.size:
                j = cancelled[0]
                raise CancellationError(f"node Mittag-Leffler sum of |terms| "
                                        f"{abs_total[j]:.3e} cancels to {abs(total[j]):.3e}")
            return total
    raise EvaluationError("Mittag-Leffler node series did not converge")


def test_ml_values_match_the_term_by_term_reference():
    rng = np.random.default_rng(11)
    outcomes = set()
    for lam in (0.3, 0.5, 0.8, 1.5, 2.5):
        for size in (1, 2, 16, 17, *rng.integers(3, 193, 4), 193):
            p = rng.uniform(0.0, 32.0) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0))
            xi = rng.uniform(-0.1, 0.25, size)
            try:
                expected = _ml_reference(lam, p, xi)
            except (EvaluationError, CancellationError) as failure:
                with pytest.raises(type(failure), match=f"^{re.escape(str(failure))}$"):
                    _ml_values(lam, p, xi)
                outcomes.add("overflow" if isinstance(failure, EvaluationError) else "cancellation")
            else:
                assert (_ml_values(lam, p, xi) == expected).all()
                outcomes.add("value")
    assert outcomes == {"overflow", "cancellation", "value"}



def _kept():
    return quadrature._kept_ml_values.cache_info()


def _key(lam, p, xi):
    return struct.pack("3d", lam, p.real, p.imag) + np.asarray(xi, dtype=float).tobytes()


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.0, 1.3])
def test_node_values_are_kept_across_oracle_calls(lam, monkeypatch):
    # every lam, the elementary ones too: a repeated integral sums no node
    # series again, and each kept array equals the uncached sum
    spec = t1_spec(1.2, 0.8, 0.5, 0.9, 0.3, -0.25, lam, 0.6)
    sums = []
    monkeypatch.setattr(quadrature, "_ml_values",
                        lambda *args: sums.append(args) or _ml_values(*args))
    quadrature._kept_ml_values.cache_clear()
    first = evaluate_integral_direct(spec)
    assert _kept().misses == _kept().currsize == len(sums) >= 1
    assert evaluate_integral_direct(spec) == first
    assert (_kept().hits, _kept().misses) == (len(sums), len(sums))
    for _, p, xi in sums:
        kept = quadrature._kept_ml_values(_key(lam, p, xi))
        assert (kept == _ml_values(lam, p, xi.copy())).all()
        assert not kept.flags.writeable
        with pytest.raises(ValueError):
            kept[0] = 0.0
    assert _kept().hits == 2 * len(sums)


def test_node_values_are_kept_by_the_bits_of_p():
    # -0.0 == 0.0, but the sign of a zero imaginary part can reach the values
    xi = np.array([0.1, 0.25])
    quadrature._kept_ml_values.cache_clear()
    plus, minus = (quadrature._kept_ml_values(_key(1.0, complex(-0.8, im), xi))
                   for im in (0.0, -0.0))
    assert (_kept().misses, _kept().currsize) == (2, 2)
    assert not np.signbit(plus.imag).any() and np.signbit(minus.imag).all()
    for p in (0.8 + 0j, complex(0.8, -0.0)):
        evaluate_integral_direct(t1_spec(1.2, 0.8, 0.5, 0.9, 0.3, -0.25, 0.5, p))
    assert _kept().hits == 0 and _kept().misses == _kept().currsize >= 4


@pytest.mark.parametrize("p, xi, error", [
    (-1.0, [1e-12, 4.0], CancellationError),
    (-40.0, np.linspace(0.0, 0.25, 9), EvaluationError),
])
def test_a_failing_node_sum_is_not_kept(p, xi, error):
    quadrature._kept_ml_values.cache_clear()
    messages = set()
    for _ in range(2):
        with pytest.raises(error) as failure:
            quadrature._kept_ml_values(_key(0.5, complex(p), xi))
        messages.add(str(failure.value))
    assert len(messages) == 1 and "node Mittag-Leffler" in messages.pop()
    assert (_kept().misses, _kept().currsize) == (2, 0)


@pytest.mark.parametrize("min_levels, kept", [(4, 1), (5, 0)])
def test_only_short_node_arrays_are_kept(min_levels, kept):
    # the first call spans levels 0 .. min_levels + 1: 385 nodes at
    # min_levels = 4 and 769 at 5, past the bound of 400
    spec = t1_spec(1.2, 0.8, 0.5, 0.9, 0.3, -0.25, 0.5, 0.6)
    quadrature._kept_ml_values.cache_clear()
    evaluate_integral_direct(spec, QuadraturePolicy(min_levels=min_levels))
    assert _kept().currsize == kept


def _term_sizes(lam, z):
    """|z|^n / Gamma(lam n + 1) up to the first at most 1e-17; the node sum at |z|
    stops there, or earlier where its partial sums pass 1."""
    sizes = [1.0]
    while sizes[-1] > 1e-17:
        n = len(sizes)
        sizes.append(math.exp(n * math.log(abs(z)) - math.lgamma(lam * n + 1.0)))
    return sizes


def _ml_mp(mp, lam, rgammas, terms, w):
    """sum_n w^n / Gamma(lam n + 1) at 30 digits, over twice the node sum's terms;
    rgammas holds the 1 / Gamma(lam n + 1) computed so far."""
    with mp.workdps(30):
        rgammas.extend(mp.rgamma(lam * n + 1) for n in range(len(rgammas), 2 * terms))
        total, power = mp.mpc(0), mp.mpc(1)
        for rgamma in rgammas[:2 * terms]:
            total += power * rgamma
            power *= w
        return complex(total)


def test_ml_values_match_independent_references():
    # each node value against a 30-digit sum of z^n / Gamma(lam n + 1), within
    # the rounding of its N terms; a raise must be one the exact series calls for
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(23)
    eps = np.finfo(float).eps
    checked = 0
    for lam in (0.3, 0.5, 0.8, 1.5, 2.5):
        rgammas = []
        for modulus in (0.5, 4.0):
            for angle in (0.0, 0.5 * math.pi, math.pi):
                p = modulus * complex(math.cos(angle), math.sin(angle))
                xi = rng.uniform(0.0, 1.0, 4)
                sizes = _term_sizes(lam, modulus * xi.max())
                terms = len(sizes)
                try:
                    values = _ml_values(lam, p, xi)
                except CancellationError:
                    exact = [abs(_ml_mp(mp, lam, rgammas, terms, p * x)) for x in xi]
                    assert any(math.fsum(sizes) > CANCELLATION_LIMIT * e for e in exact)
                    continue
                except EvaluationError:  # z^n leaves the doubles before its term is small
                    assert (terms - 1) * math.log(modulus * xi.max()) > math.log(sys.float_info.max)
                    continue
                for x, value in zip(xi, values):
                    abs_sum = math.fsum(size * (x / xi.max()) ** n for n, size in enumerate(sizes))
                    exact = _ml_mp(mp, lam, rgammas, terms, p * x)
                    assert abs(value - exact) <= 8 * terms * eps * abs_sum + 1e-17
                    checked += 1
    assert checked >= 104
    # E_{1/2}(-x) = exp(x^2) erfc(x), whose sum of |terms| is E_{1/2}(x) = exp(x^2) (1 + erf(x))
    xs = np.linspace(0.0, 3.0, 31)
    terms = len(_term_sizes(0.5, 3.0))
    for x, value in zip(xs, _ml_values(0.5, -1.0, xs)):
        abs_sum = math.exp(x * x) * (1.0 + math.erf(x))
        assert abs(value - math.exp(x * x) * math.erfc(x)) <= 8 * terms * eps * abs_sum + 1e-17


def _unless_speculative(value, integrand):
    """integrand on (0, 1), except on level-4 nodes, where it raises or is `value`."""
    speculative = _level_nodes(4)[0]

    def f(x, da, db):
        hit = np.isin(np.minimum(da, db), speculative)
        if hit.any() and value is None:
            raise EvaluationError("failed on a speculative node")
        return np.where(hit, value, integrand(x))
    return f


@pytest.mark.parametrize("value", [None, np.nan])
def test_speculative_level_cannot_fail_a_converged_integral(value):
    # min_levels = 3 stops at level 3: the level-4 nodes are evaluated with
    # the batch but neither counted nor allowed to fail the integral
    result = _integrate_vec(_unless_speculative(value, lambda x: 1.0 + x), 0.0, 1.0,
                            QuadraturePolicy())
    assert rel(result.value, 1.5) <= 1e-14
    assert result.evaluations == 97


@pytest.mark.parametrize("value", [None, np.nan])
def test_speculative_level_fails_an_integral_that_needs_it(value):
    # the kink at 0.3 keeps the level differences above tolerance at level 3
    f = _unless_speculative(value, lambda x: np.abs(x - 0.3))
    with pytest.raises(EvaluationError, match="speculative|non-finite"):
        _integrate_vec(f, 0.0, 1.0, QuadraturePolicy())


def test_max_levels_is_bounded_at_construction():
    # level L holds 3 * 2**L nodes per side and the node cache keeps every
    # level, so a stalled integrand under max_levels = 30 would allocate GBs
    assert QuadraturePolicy(max_levels=16).max_levels == 16
    for levels in (17, 30):
        with pytest.raises(ValueError, match="need 16 >= max_levels"):
            QuadraturePolicy(max_levels=levels)


def test_subnormal_beta_normaliser_is_a_typed_error():
    # log B(530, 530) = -736.6 < ln(DBL_MIN): the normaliser is subnormal and
    # the value came back off by 1.4e-4 with err_estimate 0; from about
    # alpha = beta = 537 on it is 0 and the division raised ZeroDivisionError
    for alpha in (530.0, 600.0):
        with pytest.raises(EvaluationError, match=rf"alpha={alpha!r}, beta={alpha!r}"):
            evaluate_integral_direct(t4_spec(alpha, alpha, 0.0, 1.0, 0.0, 0.0, 1.0, 0.5))
    # sum over k of (1/2)^k (400)_k^2 / (k! (800)_2k), to 30 digits
    result = evaluate_integral_direct(t4_spec(400.0, 400.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.5))
    assert rel(result.value, 1.13297166094259635684754018924) <= 1e-12


def test_subnormal_beta_normaliser_exits_3_without_traceback():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run(
        [sys.executable, "-m", "wrightlab", "eval", "integral_direct", "family=t4",
         "alpha=600", "beta=600", "a=0", "b=1", "nu=0", "mu=0", "lam=1", "p=0.5"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
    assert run.returncode == 3
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("convergence error: log B(alpha, beta) = -833.709")


@pytest.mark.parametrize("alpha", [200.0, 400.0, 509.0])
def test_err_estimate_covers_the_normaliser(alpha):
    # 1/B(alpha, alpha) carries the error of three log-gammas of size 850-4,550,
    # up to about 6e-13 relative, far above the rule's own level difference
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        exact = complex(mp.nsum(lambda k: mp.mpf(0.5) ** k * mp.rf(alpha, k) ** 2
                                / (mp.factorial(k) * mp.rf(2 * alpha, 2 * k)), [0, mp.inf]))
    result = evaluate_integral_direct(t4_spec(alpha, alpha, 0.0, 1.0, 0.0, 0.0, 1.0, 0.5))
    assert abs(result.value - exact) <= result.err_estimate
