"""The tanh-sinh rule on its cached node layout against the rule it replaced.

The references below are the former rule, which assembled the abscissae and
endpoint distances of every level on each call and sliced, checked and
weighted each level's values as the loop reached it.  The cached layout
hands the integrand the same three arrays, and every level adds the same
sums over the same values in the same order, so every integral must return
the same QuadratureResult, bit for bit, or raise the same error.
"""

import math

import numpy as np
import pytest

from wrightlab import (
    BinomialGen,
    DomainError,
    EvaluationError,
    NonConvergenceError,
    QuadraturePolicy,
    QuadratureResult,
    evaluate_integral_direct,
    t1_spec,
    t2_spec,
    t3_spec,
    t4_spec,
    tanh_sinh_integrate,
    tn_spec,
)
from wrightlab import quadrature
from wrightlab.identities import generating_spec
from wrightlab.quadrature import _integrate_vec, _level_nodes


def _node_values(f, a, b, levels, center=False):
    """Reference: f at the nodes of these levels, both ends, in one call."""
    width = b - a
    half = 0.5 * width
    parts = [(np.array([a + half]), np.array([half]), np.array([half]))] if center else []
    for level in levels:
        near = width * _level_nodes(level)[0]
        far = width - near
        parts.append((np.concatenate([a + near, b - near]), np.concatenate([near, far]),
                      np.concatenate([far, near])))
    x, da, db = (np.concatenate(column) for column in zip(*parts))
    values = np.asarray(f(x, da, db), dtype=complex)
    ends = np.cumsum([len(part[0]) for part in parts])
    return [(part[0], values[end - len(part[0]):end]) for part, end in zip(parts, ends)]


def _integrate_vec_reference(f, a, b, policy):
    """Reference: the former rule, weighting each level as the loop reaches it."""
    if not a < b:
        raise DomainError(f"need a < b, got ({a!r}, {b!r})")
    half = 0.5 * (b - a)
    try:
        (_, center), *batch = _node_values(
            f, a, b, range(min(policy.min_levels + 1, policy.max_levels) + 1), center=True)
    except Exception:
        (_, center), *batch = _node_values(f, a, b, range(policy.min_levels + 1), center=True)
    if not np.all(np.isfinite(center)):
        raise EvaluationError(f"integrand non-finite at x={a + half!r}")
    evaluations = 1
    trapezoid = 0.5 * math.pi * center[0]
    l1 = 0.5 * math.pi * abs(center[0])
    value_prev = None
    err = math.inf
    for level in range(0, policy.max_levels + 1):
        x, values = batch[level] if level < len(batch) else _node_values(f, a, b, [level])[0]
        evaluations += len(values)
        bad = ~np.isfinite(values)
        if bad.any():
            raise EvaluationError(f"integrand non-finite near x={float(x[bad][0])!r}")
        fa, fb = values[:len(values) // 2], values[len(values) // 2:]
        wbase = _level_nodes(level)[1]
        trapezoid = trapezoid + (wbase * (fa + fb)).sum()
        l1 = l1 + wbase @ (np.abs(fa) + np.abs(fb))
        value = 2.0 ** (-level) * half * trapezoid
        if value_prev is not None:
            err = abs(value - value_prev)
            if (level >= policy.min_levels
                    and err <= policy.target_abs_tol * 2.0 ** (-level) * half * l1):
                return QuadratureResult(complex(value), err, evaluations)
        value_prev = value
    raise NonConvergenceError(
        f"level differences plateaued at {err:.3e} above tolerance",
        value=complex(value_prev), err_estimate=err,
    )


def _outcome(run):
    """The result of run(), or the type, message and carried values of its error."""
    try:
        return run()
    except Exception as exc:
        return (type(exc), str(exc), getattr(exc, "value", None),
                getattr(exc, "err_estimate", None))


def _both(monkeypatch, run):
    """run() on the rule, then on the reference rule patched in its place."""
    new = _outcome(run)
    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "_integrate_vec", _integrate_vec_reference)
        old = _outcome(run)
    return new, old


def _seeded_specs():
    rng = np.random.default_rng(17)

    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    def lam():
        return float(rng.choice([u(0.3, 2.5), 1.0]))

    return {
        "t1": t1_spec(u(0.3, 2), u(0.3, 2), u(-1, 1), u(-1, 1), u(-0.9, 0.9), u(-0.9, 0.9),
                      lam(), u(-2, 2)),
        "t2": t2_spec(u(0.3, 2), u(0.3, 2), u(-1, 1), u(-1, 1), u(-0.9, 0.9), u(-0.9, 0.9),
                      lam(), u(-2, 2)),
        "t3": t3_spec(u(0.3, 2), u(0.3, 2), u(-1, 1), 0.0, 1.0, u(-0.5, 0.5), 1.0, lam(),
                      u(-2, 2)),
        "t3-interval": t3_spec(u(0.3, 2), u(0.3, 2), u(-1, 1), -1.5, 2.0, 0.1, 1.0, lam(),
                               u(-0.5, 0.5)),
        "t4": t4_spec(u(0.3, 2), u(0.3, 2), 0.0, 1.0, u(-0.5, 2), u(-0.5, 2), lam(),
                      complex(u(-2, 2), u(-1, 1))),
        "tn": tn_spec(u(0.3, 2), u(0.3, 2), [u(-1, 1) for _ in range(3)],
                      [u(-0.9, 0.9) for _ in range(3)], lam(), u(-2, 2)),
        "generating": generating_spec(BinomialGen(u(0.2, 1.5), u(-0.6, 0.6)), u(0.5, 1.5),
                                      u(2.5, 4), 1.0, 1.0, lam(), u(-2, 2), u(0.1, 0.9)),
    }


@pytest.mark.parametrize("family", sorted(_seeded_specs()))
def test_seeded_euler_point_matches_reference(monkeypatch, family):
    spec = _seeded_specs()[family]
    new, old = _both(monkeypatch, lambda: evaluate_integral_direct(spec))
    assert isinstance(new, QuadratureResult)
    assert new == old
    assert type(new.evaluations) is int  # the report writes it as JSON
    assert type(new.err_estimate) is float  # annotated float, and so not np.float64


def _speculative(value, integrand):
    """integrand, except on level-4 nodes, where it raises or is `value`."""
    speculative = _level_nodes(4)[0]

    def f(x, da, db):
        hit = np.isin(np.minimum(da, db), speculative)
        if hit.any() and value is None:
            raise EvaluationError("failed on a speculative node")
        return np.where(hit, value, integrand(x))
    return f


def _quiet(integrand):
    def f(x, da, db):
        with np.errstate(divide="ignore", invalid="ignore"):
            return integrand(x, da, db)
    return f


def _past_batch(x, da, db):
    return da ** -0.9 * np.cos(40.0 * x)


_CASES = {
    # level 6 stops it, past the batch of levels 0 to 4
    "past-batch": (_past_batch, 0.0, 1.0, QuadraturePolicy()),
    "general-interval": (lambda x, da, db: da ** -0.4 * db ** 0.3 * np.exp(x), -1.5, 2.0,
                         QuadraturePolicy(target_abs_tol=1e-14)),
    "non-convergence": (lambda x, da, db: da ** -0.97, 0.0, 1.0,
                        QuadraturePolicy(target_abs_tol=1e-12, max_levels=3, min_levels=3)),
    "min-levels-1": (lambda x, da, db: np.exp(x) * np.cos(3 * x), 0.0, 1.0,
                     QuadraturePolicy(min_levels=1)),
    "speculative-raise-converged": (_speculative(None, lambda x: 1.0 + x), 0.0, 1.0,
                                    QuadraturePolicy()),
    "speculative-nan-converged": (_speculative(np.nan, lambda x: 1.0 + x), 0.0, 1.0,
                                  QuadraturePolicy()),
    "speculative-raise-needed": (_speculative(None, lambda x: np.abs(x - 0.3)), 0.0, 1.0,
                                 QuadraturePolicy()),
    "speculative-nan-needed": (_speculative(np.nan, lambda x: np.abs(x - 0.3)), 0.0, 1.0,
                               QuadraturePolicy()),
    "non-finite-level": (lambda x, da, db: np.where(db < 1e-3, np.inf, 1.0), 0.0, 1.0,
                         QuadraturePolicy()),
    "non-finite-later-level": (lambda x, da, db: np.where(
        np.isin(np.minimum(da, db), _level_nodes(5)[0]), np.nan, _past_batch(x, da, db)),
        0.0, 1.0, QuadraturePolicy()),
    "non-finite-centre": (_quiet(lambda x, da, db: 1.0 / (x - 0.5)), 0.0, 1.0,
                          QuadraturePolicy()),
    "empty-interval": (lambda x, da, db: x, 1.0, 1.0, QuadraturePolicy()),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_vector_integrand_matches_reference(case):
    f, a, b, policy = _CASES[case]
    new = _outcome(lambda: _integrate_vec(f, a, b, policy))
    assert new == _outcome(lambda: _integrate_vec_reference(f, a, b, policy))
    if case == "past-batch":
        assert new.evaluations > 97  # the batch holds 97 counted nodes
    if case.startswith(("non-", "speculative-raise-needed", "speculative-nan-needed")):
        assert isinstance(new, tuple)  # an error, not a value


@pytest.mark.parametrize("f", [lambda t: t ** -0.5 * math.cos(t),
                               lambda t, da, db: da ** -0.6 * db ** 0.2 * math.exp(t)],
                         ids=["one-argument", "three-argument"])
def test_scalar_integrand_matches_reference(monkeypatch, f):
    new, old = _both(monkeypatch, lambda: tanh_sinh_integrate(f, 0.0, 1.0))
    assert isinstance(new, QuadratureResult)
    assert new == old


def test_integrand_sees_the_former_calls():
    # the same abscissae and endpoint distances in the same order, call by
    # call, so an integrand whose result or error depends on the order of
    # its nodes cannot tell the two rules apart
    def recorder(calls):
        def f(x, da, db):
            calls.append((x.copy(), da.copy(), db.copy()))
            return _past_batch(x, da, db)
        return f

    new, old = [], []
    _integrate_vec(recorder(new), -1.5, 2.0, QuadraturePolicy())
    _integrate_vec_reference(recorder(old), -1.5, 2.0, QuadraturePolicy())
    assert len(new) == len(old) > 1
    for got, want in zip(new, old):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
