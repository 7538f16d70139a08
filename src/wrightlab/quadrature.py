"""Tanh-sinh (double-exponential) quadrature and direct integral evaluation.

This module is the independent oracle against which every closed-form
series evaluation is checked.  One doubling-level tanh-sinh rule covers
all integrand families, including algebraic endpoint singularities with
exponents down to about -0.95.

Endpoint accuracy: the transform places abscissae exponentially close to
the endpoints, far below the resolution of the abscissa itself.  Integrands
may therefore accept three arguments (x, dist_a, dist_b) and build their
singular factors from the exactly-represented endpoint distances.  Plain
one-argument integrands are supported but are clipped at abscissae that
round onto an endpoint, which limits attainable accuracy to roughly 1e-8
when a singular factor is present.

The direct integral of the Euler-type family knows no family by name: it
validates the spec and calls the node forms chi, xi and the bound xi_max
that each family of the identities module owns.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, EvaluationError, NonConvergenceError
from .scalars import log_gamma
from .series import SeriesPolicy

__all__ = [
    "QuadraturePolicy",
    "QuadratureResult",
    "tanh_sinh_integrate",
    "evaluate_integral_direct",
    "evaluate_generating_integral_direct",
]

# Abscissa parameter cutoff: sigma(t) = 1/(1 + exp(pi*sinh t)) stays a
# normal double out to t = 6, which resolves endpoint factors d**(p-1)
# down to p of a few percent.
_T_MAX = 6.0

_node_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _level_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """sigma values and base weights for the nodes new at this level."""
    cached = _node_cache.get(level)
    if cached is not None:
        return cached
    h = 2.0 ** (-level)
    if level == 0:
        t = np.arange(1, int(_T_MAX) + 1) * 1.0
    else:
        t = np.arange(1, int(_T_MAX / h) + 1, 2) * h
    u = 0.5 * math.pi * np.sinh(t)
    sigma = 1.0 / (1.0 + np.exp(2.0 * u))
    # weight = (pi/2) cosh(t) sech^2(u), with sech^2 = 4*sigma*(1-sigma)
    wbase = 0.5 * math.pi * np.cosh(t) * 4.0 * sigma * (1.0 - sigma)
    _node_cache[level] = (sigma, wbase)
    return sigma, wbase


@dataclass(frozen=True)
class QuadraturePolicy:
    """Level-doubling control: stop when successive levels agree."""

    target_abs_tol: float = 1e-12
    max_levels: int = 12
    min_levels: int = 3

    def __post_init__(self):
        if not self.target_abs_tol > 0.0:
            raise ValueError("target_abs_tol must be positive")
        if not self.max_levels >= self.min_levels >= 1:
            raise ValueError("need max_levels >= min_levels >= 1")


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    err_estimate: float
    evaluations: int


def _integrate_vec(f, a: float, b: float, policy: QuadraturePolicy) -> QuadratureResult:
    """Core rule; f(x, dist_a, dist_b) vectorized over node arrays."""
    if not a < b:
        raise DomainError(f"need a < b, got ({a!r}, {b!r})")
    width = b - a
    half = 0.5 * width
    mid = np.array([a + half])
    haf = np.array([half])
    center = np.asarray(f(mid, haf, haf), dtype=complex)
    if not np.all(np.isfinite(center)):
        raise EvaluationError(f"integrand non-finite at x={a + half!r}")
    evaluations = 1
    trapezoid = 0.5 * math.pi * center[0]  # h-free running node sum
    value_prev = None
    err = math.inf
    for level in range(0, policy.max_levels + 1):
        sigma, wbase = _level_nodes(level)
        near = width * sigma
        far = width - near
        fa = np.asarray(f(a + near, near, far), dtype=complex)
        fb = np.asarray(f(b - near, far, near), dtype=complex)
        evaluations += 2 * len(sigma)
        if not (np.all(np.isfinite(fa)) and np.all(np.isfinite(fb))):
            bad = np.argmax(~(np.isfinite(fa) & np.isfinite(fb)))
            raise EvaluationError(f"integrand non-finite near x={(a + near[bad])!r}")
        trapezoid = trapezoid + np.sum(wbase * (fa + fb))
        value = 2.0 ** (-level) * half * trapezoid
        if value_prev is not None:
            err = abs(value - value_prev)
            if level >= policy.min_levels and err <= policy.target_abs_tol * max(1.0, abs(value)):
                return QuadratureResult(complex(value), err, evaluations)
        value_prev = value
    raise NonConvergenceError(
        f"level differences plateaued at {err:.3e} above tolerance",
        value=complex(value_prev), err_estimate=err,
    )


def _wrap_scalar_integrand(f: Callable, a: float, b: float) -> Callable:
    """Adapt a scalar integrand (1-arg or 3-arg) to the vector protocol."""
    wants_distances = False
    try:
        params = [p for p in inspect.signature(f).parameters.values()
                  if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        wants_distances = len(params) >= 3
    except (TypeError, ValueError):
        pass

    if wants_distances:
        def fvec(x, da, db):
            return np.array([complex(f(xi, ai, bi)) for xi, ai, bi in zip(x, da, db)])
    else:
        def fvec(x, da, db):
            # One-argument integrands cannot see the true endpoint distance
            # once the abscissa rounds onto the endpoint, so those nodes are
            # dropped rather than evaluated at the singularity itself.
            out = np.empty(len(x), dtype=complex)
            for i, xi in enumerate(x):
                out[i] = 0.0 if (xi == a or xi == b) else complex(f(xi))
            return out
    return fvec


def tanh_sinh_integrate(f: Callable, a: float, b: float,
                        policy: QuadraturePolicy | None = None) -> QuadratureResult:
    """Integrate f over (a, b) with the doubling-level tanh-sinh rule.

    err_estimate is the difference between the last two refinement levels.
    f may take one argument (the abscissa) or three (abscissa, distance to
    a, distance to b); see the module docstring for the accuracy trade-off.
    """
    policy = policy or QuadraturePolicy()
    return _integrate_vec(_wrap_scalar_integrand(f, a, b), a, b, policy)


# ---------------------------------------------------------------------------
# Node-level Mittag-Leffler values
# ---------------------------------------------------------------------------


def _ml_values(lam: float, w: np.ndarray) -> np.ndarray:
    """E_lam at an array of arguments; elementary forms for lam in {0, 1, 2}."""
    if lam == 0.0:
        return 1.0 / (1.0 - w)
    if lam == 1.0:
        return np.exp(w)
    if lam == 2.0:
        return np.cosh(np.sqrt(w.astype(complex)))
    total = np.ones_like(w, dtype=complex)
    power = np.ones_like(w, dtype=complex)
    scale = 1.0
    # An overflowing power shows up as a non-finite peak in the same pass.
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, 2000):
            power = power * w
            coeff = math.exp(-log_gamma(lam * n + 1.0))
            total = total + power * coeff
            peak = np.max(np.abs(power)) * coeff
            if not math.isfinite(peak):
                raise EvaluationError(f"node Mittag-Leffler series overflowed at n={n}")
            scale = max(scale, float(np.max(np.abs(total))))
            if peak <= 1e-17 * scale:
                return total
    raise EvaluationError("Mittag-Leffler node series did not converge")


# ---------------------------------------------------------------------------
# Direct evaluation of the Euler-type integral family
# ---------------------------------------------------------------------------


def evaluate_integral_direct(spec, qpolicy: QuadraturePolicy | None = None,
                             spolicy: SeriesPolicy | None = None) -> QuadratureResult:
    """Direct quadrature of the normalized weighted-beta integral.

    Evaluates  (1/B(alpha, beta)) * integral over (a, b) of
    (t-a)^(alpha-1) (b-t)^(beta-1) chi(t)^gamma E_lam[p xi(t)] dt
    with the node forms chi, xi of the spec's family.  The Mittag-Leffler
    factor is computed at every node; real and imaginary parts share one
    node set.
    """
    qpolicy = qpolicy or QuadraturePolicy()
    spec.validate()
    family = spec.family
    lam = spec.lam
    p = complex(spec.p)
    width = spec.b - spec.a
    if lam == 0.0 and abs(p) * family.xi_max(width) >= 1.0:
        raise DomainError("lam = 0 requires |p * xi(t)| < 1 on the whole interval")
    gamma = spec.gamma

    def f(x, da, db):
        chi = family.chi(x, da, db, width)
        core = da ** (spec.alpha - 1.0) * db ** (spec.beta - 1.0)
        if gamma != 0.0:
            core = core * chi ** gamma
        if p != 0.0:
            core = core * _ml_values(lam, p * family.xi(da, db, chi))
        return core

    raw = _integrate_vec(f, spec.a, spec.b, qpolicy)
    norm = math.exp(log_gamma(spec.alpha) + log_gamma(spec.beta)
                    - log_gamma(spec.alpha + spec.beta))
    return QuadratureResult(raw.value / norm, raw.err_estimate / norm, raw.evaluations)


def evaluate_generating_integral_direct(gen, r: float, s: float, delta: float, omega: float,
                                        lam: float, p: complex, t: complex,
                                        product_factors: Sequence[tuple[float, float]] = (),
                                        qpolicy: QuadraturePolicy | None = None,
                                        spolicy: SeriesPolicy | None = None) -> QuadratureResult:
    """Direct quadrature of the generating-function integral.

    Integrates u^(r-1) (1-u)^(s-r-1) G(x, t u^delta (1-u)^omega)
    prod_i (1-x_i u)^(-a_i) E_lam[p u (1-u)] over (0, 1), where G is the
    generator's closed node form.
    """
    qpolicy = qpolicy or QuadraturePolicy()
    if not s > r > 0.0:
        raise DomainError(f"need s > r > 0, got r={r!r}, s={s!r}")
    if delta < 0.0 or omega < 0.0 or delta + omega <= 0.0:
        raise DomainError("need delta, omega >= 0 with delta + omega > 0")
    if lam < 0.0:
        raise DomainError(f"lam must be >= 0, got {lam!r}")
    for i, (_, xi) in enumerate(product_factors):
        if abs(xi) >= 1.0:
            raise DomainError(f"|x_{i + 1}| must be < 1 in product factors")
    p = complex(p)
    t = complex(t)
    if lam == 0.0 and abs(p) * 0.25 >= 1.0:
        raise DomainError("lam = 0 requires |p| u(1-u) < 1 on (0, 1)")

    def f(u, da, db):
        tau = t * da ** delta * db ** omega
        core = da ** (r - 1.0) * db ** (s - r - 1.0) * gen.node_values(tau)
        for ai, xi in product_factors:
            core = core * (1.0 - xi * u) ** (-ai)
        if p != 0.0:
            core = core * _ml_values(lam, p * da * db)
        return core

    return _integrate_vec(f, 0.0, 1.0, qpolicy)
