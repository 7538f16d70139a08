"""Tanh-sinh (double-exponential) quadrature and direct integral evaluation.

This module is the independent oracle against which every closed-form
series evaluation is checked.  One doubling-level tanh-sinh rule covers
all integrand families, including algebraic endpoint singularities with
exponents down to about -0.95.

Cost: an integrand call works on small node arrays, so its fixed Python
and numpy overhead dominates.  The rule therefore evaluates the centre and
every level up to one past min_levels, at both endpoints, in a single call
(most integrals stop at that level) and each later level in one more call.
Each call's node layout is cached, so the call takes a few array operations
and weights its values at once; each level reached adds two slice sums.
The Mittag-Leffler factor of the Euler-type integrand sums its series over
all nodes of a call at once (complex scalars times one real block of powers
of the nodes' xi), and its values are kept by the exact bits of lam, p, xi.

Endpoint accuracy: the transform places abscissae exponentially close to
the endpoints, far below the resolution of the abscissa itself.  Integrands
may therefore accept three arguments (x, dist_a, dist_b) and build their
singular factors from the exactly-represented endpoint distances.  Plain
one-argument integrands are supported but are clipped at abscissae that
round onto an endpoint, which limits attainable accuracy to roughly 1e-8
when a singular factor is present.

The direct integral of the Euler-type family knows no family by name: it
validates the spec, which owns the domain, and calls the node forms chi
and xi that each family of the identities module owns; the generating-
function integrals are one of those families.
"""

from __future__ import annotations

import functools
import inspect
import math
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CancellationError, DomainError, EvaluationError, NonConvergenceError
from .scalars import log_gamma
from .series import CANCELLATION_LIMIT

__all__ = [
    "QuadraturePolicy",
    "QuadratureResult",
    "tanh_sinh_integrate",
    "evaluate_integral_direct",
]

# Abscissa parameter cutoff: sigma(t) = 1/(1 + exp(pi*sinh t)) stays a
# normal double out to t = 6, which resolves endpoint factors d**(p-1)
# down to p of a few percent.
_T_MAX = 6.0

_MAX_LEVELS = 16  # level L adds 3 * 2**L nodes per side, and the caches keep them


@functools.cache
def _level_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """sigma values and base weights for the nodes new at this level."""
    h = 2.0 ** (-level)
    if level == 0:
        t = np.arange(1, int(_T_MAX) + 1) * 1.0
    else:
        t = np.arange(1, int(_T_MAX / h) + 1, 2) * h
    u = 0.5 * math.pi * np.sinh(t)
    sigma = 1.0 / (1.0 + np.exp(2.0 * u))
    # weight = (pi/2) cosh(t) sech^2(u), with sech^2 = 4*sigma*(1-sigma)
    wbase = 0.5 * math.pi * np.cosh(t) * 4.0 * sigma * (1.0 - sigma)
    return sigma, wbase


@dataclass(frozen=True)
class QuadraturePolicy:
    """Level-doubling control: stop when successive levels agree to within
    target_abs_tol times the same rule applied to |f|, a scale that neither
    cancellation nor a tiny value can shrink (Bailey, Jeyabalan & Li 2005)."""

    target_abs_tol: float = 1e-12
    max_levels: int = 12
    min_levels: int = 3

    def __post_init__(self):
        if not self.target_abs_tol > 0.0:
            raise ValueError("target_abs_tol must be positive")
        if not _MAX_LEVELS >= self.max_levels >= self.min_levels >= 1:
            raise ValueError(f"need {_MAX_LEVELS} >= max_levels >= min_levels >= 1")


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    err_estimate: float
    evaluations: int


@functools.cache
def _layout(levels, center: int) -> tuple:
    """The node layout of one integrand call on (0, 1), built once: sigma and
    the a-side mask of the centre (if center is 1; sigma = 1/2 on the a side
    is x = a + (b-a)/2 exactly), then of each level's a-side and b-side nodes;
    indices gathering all a-side and all b-side values in line with the base
    weights; the weights; and each level's slices of the call and of those."""
    sigmas, wbases = zip(*map(_level_nodes, levels))
    counts = [len(sigma) for sigma in sigmas]
    ends = np.cumsum([0] + counts).tolist()
    side = np.concatenate([np.ones(center, bool)] + [np.repeat([True, False], n) for n in counts])
    return (np.concatenate([np.full(center, 0.5)] + [np.tile(sigma, 2) for sigma in sigmas]),
            side, np.flatnonzero(side)[center:], np.flatnonzero(~side), np.concatenate(wbases),
            {level: (slice(center + 2 * lo, center + 2 * hi), slice(lo, hi))
             for level, lo, hi in zip(levels, ends, ends[1:])})


def _sample(f, a: float, b: float, levels, center: int = 0) -> tuple:
    """f at the nodes of these levels, both ends, in one call: the abscissae,
    the values, whether all are finite, and the weighted w (f_a + f_b) and
    |f_a| + |f_b| with the base weights w and the spans of every level."""
    sigma, side, ia, ib, wbase, spans = _layout(levels, center)
    near = (b - a) * sigma
    far = (b - a) - near
    x = np.where(side, a + near, b - near)
    values = np.asarray(f(x, np.where(side, near, far), np.where(side, far, near)), dtype=complex)
    fa, fb = values[ia], values[ib]
    with np.errstate(invalid="ignore"):  # a non-finite node raises once its level is reached
        weighted = wbase * (fa + fb)
        absolute = np.abs(fa) + np.abs(fb)
    return x, values, bool(np.isfinite(values).all()), weighted, absolute, wbase, spans


def _integrate_vec(f, a: float, b: float, policy: QuadraturePolicy) -> QuadratureResult:
    """Core rule; f(x, dist_a, dist_b) vectorized over node arrays.

    The loop cannot stop before level min_levels, and most integrands stop
    one level later, so one call of f evaluates the centre and levels 0 to
    min_levels + 1 at both ends; each later level is one more call.  Nodes
    of the speculative level min_levels + 1 are neither counted in
    `evaluations` or the error scale nor allowed to fail the integral unless
    the loop reaches them: if the batched call raises, it is repeated
    without that level.  Each level adds sums over its slices of arrays
    weighted once per call, the same floating-point operations as weighting
    level by level.
    """
    if not a < b:
        raise DomainError(f"need a < b, got ({a!r}, {b!r})")
    half = 0.5 * (b - a)
    try:
        x, values, finite, weighted, absolute, wbase, spans = _sample(
            f, a, b, range(min(policy.min_levels + 1, policy.max_levels) + 1), 1)
    except Exception:  # f raises again here if a node the loop needs caused it
        x, values, finite, weighted, absolute, wbase, spans = _sample(
            f, a, b, range(policy.min_levels + 1), 1)
    if not np.isfinite(values[0]):
        raise EvaluationError(f"integrand non-finite at x={a + half!r}")
    evaluations = 1
    trapezoid = 0.5 * math.pi * values[0]  # h-free running node sum
    l1 = 0.5 * math.pi * abs(values[0])  # the same sum of w |f|, the scale of the error
    value_prev = None
    err = math.inf
    for level in range(0, policy.max_levels + 1):
        if level not in spans:
            x, values, finite, weighted, absolute, wbase, spans = _sample(f, a, b, (level,))
        call, part = spans[level]
        evaluations += call.stop - call.start
        if not finite:
            bad = ~np.isfinite(values[call])
            if bad.any():
                raise EvaluationError(f"integrand non-finite near x={float(x[call][bad][0])!r}")
        trapezoid = trapezoid + weighted[part].sum()  # skips np.sum's ~1.5 us wrapper
        l1 = l1 + wbase[part] @ absolute[part]
        value = 2.0 ** (-level) * half * trapezoid
        if value_prev is not None:
            err = float(abs(value - value_prev))
            if (level >= policy.min_levels
                    and err <= policy.target_abs_tol * 2.0 ** (-level) * half * l1):
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

# The node Mittag-Leffler series: terms n < _ML_TERMS.
_ML_TERMS = 2000
_ML_KEPT, _ML_KEPT_NODES = 128, 400  # arrays, nodes (193 in a default first call): 1.2 MB


def _ml_values(lam: float, p: complex, xi: np.ndarray) -> np.ndarray:
    """E_lam(p xi) at a 1-d array of real xi; elementary forms for lam in {0, 1, 2}.

    With m the xi of largest |xi|, node i's term n is e_n (xi_i / m)^n, where
    e_n = (p m)^n / Gamma(lam n + 1), a complex scalar, is the term of the node
    at m.  The e_n run to the first n with |e_n| at most 1e-17 of that node's
    largest partial sum so far (or of 1), raising if one before it overflows;
    the real block of (xi / m)^n, built row by row, cannot.  Reducing the rows
    Re e_n, Im e_n and |e_n| against it over an axis that is not the last adds
    row after row in increasing n, as a term-by-term loop does (matmul and
    einsum do not).  That gives each node's value and sum of |terms|, which
    raises past CANCELLATION_LIMIT times |value|.
    """
    if lam == 0.0:
        return 1.0 / (1.0 - p * xi)
    if lam == 1.0:
        return np.exp(p * xi)
    if lam == 2.0:
        return np.cosh(np.sqrt(complex(p) * xi))
    top = float(xi[np.argmax(np.abs(xi))])
    z = complex(p) * top
    power = partial = peak = 1.0
    rows = [(1.0, 0.0, 1.0)]
    for n in range(1, _ML_TERMS):
        power *= z
        term = power * math.exp(-math.lgamma(lam * n + 1.0))  # lam n + 1 >= 1
        size = math.hypot(term.real, term.imag)  # abs() raises where this is inf
        if not math.isfinite(size):
            raise EvaluationError(f"node Mittag-Leffler series overflowed at n={n}")
        rows.append((term.real, term.imag, size))
        partial += term
        peak = max(peak, math.hypot(partial.real, partial.imag))
        if size <= 1e-17 * peak:
            break
    else:
        raise EvaluationError("Mittag-Leffler node series did not converge")
    u = xi / top if top else xi  # xi = 0 everywhere leaves z = 0 and u finite
    block = np.ones((len(rows), len(xi)))
    for n in range(1, len(rows)):
        np.multiply(block[n - 1], u, out=block[n])
    terms = np.array(rows).T[:, :, None] * block
    np.abs(terms[2], out=terms[2])
    re, im, abs_sums = np.add.reduce(terms, axis=1)
    values = re + 1j * im
    over = np.flatnonzero(abs_sums > CANCELLATION_LIMIT * np.abs(values))
    if over.size:
        i = over[0]
        raise CancellationError(f"node Mittag-Leffler sum of |terms| {abs_sums[i]:.3e} "
                                f"cancels to {abs(values[i]):.3e}")
    return values


@functools.lru_cache(maxsize=_ML_KEPT)
def _kept_ml_values(key: bytes) -> np.ndarray:
    """Read-only _ml_values at key = lam, Re p, Im p as doubles, then xi's bytes."""
    lam, re, im = struct.unpack_from("3d", key)
    values = _ml_values(lam, complex(re, im), np.frombuffer(key, offset=24))
    values.setflags(write=False)
    return values


# ---------------------------------------------------------------------------
# Direct evaluation of the Euler-type integral family
# ---------------------------------------------------------------------------


def evaluate_integral_direct(spec, qpolicy: QuadraturePolicy | None = None) -> QuadratureResult:
    """Direct quadrature of the normalized weighted-beta integral.

    Evaluates  (1/B(alpha, beta)) * integral over (a, b) of
    (t-a)^(alpha-1) (b-t)^(beta-1) chi(t)^gamma E_lam[p xi(t)] dt
    with the node forms chi, xi of the spec's family.  The Mittag-Leffler
    factor is computed at every node; real and imaginary parts share one
    node set.  A B(alpha, beta) below the normal doubles (alpha = beta past
    509.66) raises EvaluationError.  err_estimate adds |value| times a bound
    on the error of ln B: the README's log-gamma envelope, two roundings.
    """
    qpolicy = qpolicy or QuadraturePolicy()
    spec.validate()
    family = spec.family
    lam = spec.lam
    p = complex(spec.p)
    width = spec.b - spec.a
    gamma = spec.gamma
    head = struct.pack("3d", lam, p.real, p.imag)  # bits: -0.0 == 0.0 as floats

    def f(x, da, db):
        chi = family.chi(x, da, db, width)
        core = da ** (spec.alpha - 1.0) * db ** (spec.beta - 1.0)
        if gamma != 0.0:
            core = core * chi ** gamma
        if p != 0.0:
            xi = family.xi(da, db, chi)
            core = core * (_kept_ml_values(head + xi.tobytes()) if len(xi) <= _ML_KEPT_NODES
                           else _ml_values(lam, p, xi))
        return core

    logs = log_gamma(spec.alpha), log_gamma(spec.beta), log_gamma(spec.alpha + spec.beta)
    log_beta = logs[0] + logs[1] - logs[2]
    if log_beta < math.log(np.finfo(float).tiny):  # a subnormal B has lost digits; 0 divides
        raise EvaluationError(f"log B(alpha, beta) = {log_beta:.6g} is below the normal double "
                              f"range at alpha={spec.alpha!r}, beta={spec.beta!r}")
    raw = _integrate_vec(f, spec.a, spec.b, qpolicy)
    norm = math.exp(log_beta)
    log_err = 1.5e-15 * sum(max(1.0, abs(lg)) for lg in logs) + np.finfo(float).eps * (
        abs(logs[0] + logs[1]) + abs(log_beta))
    value = raw.value / norm
    err = raw.err_estimate / norm + abs(value) * log_err
    return QuadratureResult(value, float(err), raw.evaluations)
