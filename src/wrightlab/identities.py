"""Closed-form (series-side) evaluation of the Euler-type integral family.

Each evaluator here computes, purely by series, the same quantity that
quadrature.evaluate_integral_direct obtains by direct integration:

    I = (1/B(alpha, beta)) * integral_a^b (t-a)^(alpha-1) (b-t)^(beta-1)
            chi(t)^gamma E_lam[p xi(t)] dt

for the chi/xi families below, plus the generating-function integrals
(raw, without the beta normalization).

Each family owns its domain checks (check, run by EulerIntegralSpec.validate)
and its node forms chi and xi (used by the direct integral): every closed
form validates by building its spec, and euler_case binds a spec to both
routes.

The inner engine is always a 3-by-2 Wright series with weight pattern
(1,1,1; 2, lam).  The closed forms evaluate it for blocks of outer indices
at once, as log-space tables that stop each row by the caller's series
policy (_InnerTable); rows the table cannot settle, and T4's single value,
go through the scalar engine.

On a general interval the linear-weight family (T3) picks up the factors
(b-a)^(alpha+beta-1) and (a*u+v)^gamma, and the series argument becomes
p*(b-a)^2; all three are required for agreement with the direct integral
and degenerate to no-ops on (0, 1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DomainError
from .multivar import _PochPowerStream, _StreamProduct
from .quadrature import QuadratureResult, evaluate_integral_direct
from .scalars import _is_nonpositive_integer, pochhammer
from .series import (
    SeriesPolicy,
    SeriesResult,
    WrightSpec,
    hyper_pfq,
    sum_with_policy,
    wright_psi,
    wright_psi_normalized,
)

__all__ = [
    "T1Family",
    "T2Family",
    "T3Family",
    "T4Family",
    "TNFamily",
    "EulerIntegralSpec",
    "BinomialGen",
    "HumbertGen",
    "GegenbauerGen",
    "CustomGen",
    "GeneratingIntegralSpec",
    "IdentityCase",
    "closed_form_theorem1",
    "closed_form_theorem2",
    "closed_form_theorem3",
    "closed_form_theorem4",
    "closed_form_lauricella",
    "generating_integral_closed_form",
    "reduce_lambda1",
    "application_case",
    "euler_case",
]


# ---------------------------------------------------------------------------
# chi/xi families
# ---------------------------------------------------------------------------


# The n-variable extension is checked and summed for 1..4 variables.
_MAX_VARIABLES = 4


class _Family:
    """Shared by the chi/xi families: xi = (t-a)(b-t), whose maximum is width^2/4.

    Each family owns check(spec), the domain conditions beyond the common
    ones of EulerIntegralSpec.validate, and its node forms chi(x, da, db,
    width) and xi(da, db, chi), which the direct integral evaluates at the
    abscissae x with exact endpoint distances da = x - a and db = b - x.
    """

    def xi(self, da, db, chi):
        return da * db

    def xi_max(self, width: float) -> float:
        """Upper bound for |xi| on an interval of this width (the lam = 0 gate)."""
        return 0.25 * width * width


def _check_unit_interval(spec):
    if (spec.a, spec.b, spec.gamma) != (0.0, 1.0, 1.0):
        raise DomainError("this family is defined on (0, 1) with unit exponent")


@dataclass(frozen=True)
class T1Family(_Family):
    """chi = (1 - x1 t)^(-a1) (1 - x2 t)^(-a2), xi = t(1-t), on (0, 1)."""

    alpha1: float
    alpha2: float
    x1: float
    x2: float

    def check(self, spec):
        _check_unit_interval(spec)
        if abs(self.x1) >= 1.0 or abs(self.x2) >= 1.0:
            raise DomainError("T1 needs |x1| < 1 and |x2| < 1")

    def chi(self, x, da, db, width):
        return (1.0 - self.x1 * x) ** (-self.alpha1) * (1.0 - self.x2 * x) ** (-self.alpha2)


@dataclass(frozen=True)
class T2Family(_Family):
    """chi = (1 - x1 t)^(-a1) (1 - x2 (1-t))^(-a2), xi = t(1-t), on (0, 1)."""

    alpha1: float
    alpha2: float
    x1: float
    x2: float

    def check(self, spec):
        _check_unit_interval(spec)
        if abs(self.x1) >= 1.0 or abs(self.x2) >= 1.0:
            raise DomainError("T2 needs |x1| < 1 and |x2| < 1")

    def chi(self, x, da, db, width):
        return (1.0 - self.x1 * x) ** (-self.alpha1) * (1.0 - self.x2 * db) ** (-self.alpha2)


@dataclass(frozen=True)
class T3Family(_Family):
    """chi = u t + v (linear weight), xi = (t-a)(b-t)."""

    u: float
    v: float

    def check(self, spec):
        if spec.a * self.u + self.v <= 0.0 or spec.b * self.u + self.v <= 0.0:
            raise DomainError("T3 needs u*t + v positive at both endpoints")

    def chi(self, x, da, db, width):
        return self.u * x + self.v


@dataclass(frozen=True)
class T4Family(_Family):
    """chi = (b-a) + nu (t-a) + mu (b-t), xi = (t-a)(b-t)/chi^2, gamma fixed."""

    nu: float
    mu: float

    def check(self, spec):
        if spec.gamma != -(spec.alpha + spec.beta):
            raise DomainError("T4 fixes gamma = -(alpha + beta)")
        if self.nu <= -1.0 or self.mu <= -1.0:
            raise DomainError("T4 needs nu > -1 and mu > -1 so chi stays positive")

    def chi(self, x, da, db, width):
        return width + self.nu * da + self.mu * db

    def xi(self, da, db, chi):
        return da * db / (chi * chi)

    def xi_max(self, width: float) -> float:
        # xi = s(1-s)/eta(s)^2 with s = (t-a)/(b-a): the width cancels
        s = np.linspace(0.0, 1.0, 2001)
        eta = 1.0 + self.nu * s + self.mu * (1.0 - s)
        return float(np.max(s * (1.0 - s) / (eta * eta)))


@dataclass(frozen=True)
class TNFamily(_Family):
    """chi = prod_i (1 - x_i t)^(-a_i), xi = t(1-t), on (0, 1)."""

    alphas: tuple[float, ...]
    xs: tuple[float, ...]

    def check(self, spec):
        _check_unit_interval(spec)
        if len(self.alphas) != len(self.xs):
            raise DomainError("TN needs matching alphas and xs")
        if not 1 <= len(self.xs) <= _MAX_VARIABLES:
            raise DomainError(f"TN needs 1..{_MAX_VARIABLES} variables, got {len(self.xs)}")
        if any(abs(x) >= 1.0 for x in self.xs):
            raise DomainError("TN needs max |x_i| < 1")

    def chi(self, x, da, db, width):
        out = np.ones_like(x)
        for ai, xi in zip(self.alphas, self.xs):
            out = out * (1.0 - xi * x) ** (-ai)
        return out


@dataclass(frozen=True)
class EulerIntegralSpec:
    """One fully-bound instance of the weighted-beta integral."""

    alpha: float
    beta: float
    gamma: float
    a: float
    b: float
    lam: float
    p: complex
    family: object

    def validate(self):
        if not self.alpha > 0.0 or not self.beta > 0.0:
            raise DomainError("need alpha > 0 and beta > 0")
        if self.lam < 0.0:
            raise DomainError("need lam >= 0")
        if not self.a < self.b:
            raise DomainError("need a < b")
        check = getattr(self.family, "check", None)
        if check is None:
            raise DomainError(f"unknown family {type(self.family).__name__}")
        check(self)


def t1_spec(alpha, beta, alpha1, alpha2, x1, x2, lam, p) -> EulerIntegralSpec:
    return EulerIntegralSpec(alpha, beta, 1.0, 0.0, 1.0, lam, complex(p),
                             T1Family(alpha1, alpha2, x1, x2))


def t2_spec(alpha, beta, alpha1, alpha2, x1, x2, lam, p) -> EulerIntegralSpec:
    return EulerIntegralSpec(alpha, beta, 1.0, 0.0, 1.0, lam, complex(p),
                             T2Family(alpha1, alpha2, x1, x2))


def t3_spec(alpha, beta, gamma, a, b, u, v, lam, p) -> EulerIntegralSpec:
    return EulerIntegralSpec(alpha, beta, gamma, a, b, lam, complex(p), T3Family(u, v))


def t4_spec(alpha, beta, a, b, nu, mu, lam, p) -> EulerIntegralSpec:
    return EulerIntegralSpec(alpha, beta, -(alpha + beta), a, b, lam, complex(p),
                             T4Family(nu, mu))


def tn_spec(alpha, beta, alphas, xs, lam, p) -> EulerIntegralSpec:
    return EulerIntegralSpec(alpha, beta, 1.0, 0.0, 1.0, lam, complex(p),
                             TNFamily(tuple(alphas), tuple(xs)))


# ---------------------------------------------------------------------------
# Inner Wright engine
# ---------------------------------------------------------------------------


# Table rows that do not stop within this many terms go to the scalar
# engine; it stays below index 50, where the engine's divergence guard starts.
_ROW_TERMS = 48
# Consecutive outer indices tabulated together along a ladder.
_LADDER_BLOCK = 48


class _InnerTable:
    """Inner Wright values of rows (a, b, c) that share lam and p.

    A row is the (1,1,1; 2,lam) series sum_k (a)_k (b)_k p^k / ((c)_{2k}
    Gamma(1 + lam k)): the normalized inner value, or with raw=True that
    value times Gamma(a)Gamma(b)/Gamma(c), added as a log shift before exp.
    Blocks of rows are tabulated in log space: the Pochhammer ratio is a
    cumulative sum of logs along k, and the column term k ln|p| -
    ln Gamma(1 + lam k) is computed once per table.  Each row stops by the
    rule of sum_with_policy.  A row with a nonpositive parameter, a
    non-finite partial sum or no stop within _ROW_TERMS terms is evaluated
    by the scalar engine when the caller reaches it, so that engine raises
    every pole, divergence and term-budget error.
    """

    def __init__(self, lam: float, p: complex, policy: SeriesPolicy, raw: bool = False):
        self.lam = lam
        self.p = p
        self.policy = policy
        self.raw = raw
        terms = min(_ROW_TERMS, policy.max_terms)
        self._j = np.arange(terms - 1.0)
        self._column = np.array([-math.lgamma(1.0 + lam * k) for k in range(terms)])
        radius = abs(p)
        unit = p / radius if radius > 0.0 else 0.0j
        if unit.imag == 0.0:
            unit = unit.real  # a real table costs about half a complex one
        # unit^k by repeated products, as the scalar engine forms it
        self._phase = np.ones(terms, dtype=type(unit))
        if radius > 0.0:
            self._column += np.arange(terms) * math.log(radius)
            self._phase[1:] = np.cumprod(np.full(terms - 1, unit))
        else:
            self._column[1:] = -math.inf

    def rows(self, a, b, c) -> Iterator[SeriesResult]:
        """Yield the value of each row in order; a, b, c broadcast to one length."""
        params = np.array(np.broadcast_arrays(a, b, c), dtype=float)
        good = (params > 0.0).all(axis=0)
        sa, sb, sc = np.where(good, params, 1.0)[:, :, None]
        j = self._j
        log_term = np.zeros((len(good), len(j) + 1))
        policy = self.policy
        need = policy.consecutive_small
        # Overflow and invalid values end as a non-finite partial sum, which
        # sends the row to the scalar engine.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # ln((a)_k (b)_k / (c)_{2k}) as a cumulative sum of one log per step
            np.cumsum(np.log((sa + j) * (sb + j) / ((sc + 2.0 * j) * (sc + (2.0 * j + 1.0)))),
                      axis=1, out=log_term[:, 1:])
            log_term += self._column
            if self.raw:
                log_term += np.array([math.lgamma(x) + math.lgamma(y) - math.lgamma(z)
                                      for x, y, z in zip(sa[:, 0], sb[:, 0], sc[:, 0])])[:, None]
            term = np.exp(log_term) * self._phase
            partial = np.cumsum(term, axis=1)
            mag = np.abs(term)
            small = np.cumsum(mag <= policy.rel_tol * np.abs(partial) + policy.abs_tol, axis=1)
        small[:, need:] -= small[:, :-need]  # small terms among the last `need`
        stop = (small >= need).argmax(axis=1)
        index = np.arange(len(good))
        value = partial[index, stop].astype(complex)
        # A non-finite term anywhere up to the stop leaves the partial sum non-finite.
        good &= (small[index, stop] >= need) & np.isfinite(value)
        tails = (need * mag[index, stop]).tolist()
        for i, (v, k) in enumerate(zip(value.tolist(), stop.tolist())):
            if good[i]:
                yield SeriesResult(v, k + 1, tails[i])
            else:
                a, b, c = params[:, i]
                spec = WrightSpec(((a, 1.0), (b, 1.0), (1.0, 1.0)), ((c, 2.0), (1.0, self.lam)))
                yield (wright_psi if self.raw else wright_psi_normalized)(spec, self.p, policy)

    def ladder(self, start: tuple, step: tuple) -> Iterator[SeriesResult]:
        """Rows start + d * step for d = 0, 1, ..., tabulated a block of d at a time."""
        for first in itertools.count(0, _LADDER_BLOCK):
            d = np.arange(first, first + _LADDER_BLOCK, dtype=float)
            yield from self.rows(*(x + dx * d for x, dx in zip(start, step)))


# ---------------------------------------------------------------------------
# Closed forms for the integral family
# ---------------------------------------------------------------------------


def _lauricella_sum(alpha: float, beta: float, alphas: Sequence[float], xs: Sequence[float],
                    lam: float, p: complex, policy: SeriesPolicy) -> SeriesResult:
    """The n-variable closed form, summed by total degree d.

    The inner Wright factor depends only on d, so each degree is the
    degree-d coefficient of the product of the per-variable binomial
    streams times (alpha)_d / (alpha+beta)_d times one inner value, taken
    from a ladder of inner rows tabulated a block of degrees at a time.
    """
    product = _StreamProduct([_PochPowerStream(xi, ai) for ai, xi in zip(alphas, xs)])
    inner = _InnerTable(lam, complex(p), policy).ladder((alpha, beta, alpha + beta),
                                                        (1.0, 0.0, 1.0))

    def degrees():
        ratio = 1.0  # (alpha)_d / (alpha+beta)_d
        d = 0
        while True:
            yield ratio * product.coeff(d) * next(inner).value
            ratio *= (alpha + d) / (alpha + beta + d)
            d += 1

    return sum_with_policy(degrees(), policy)


def closed_form_theorem1(alpha: float, beta: float, alpha1: float, alpha2: float,
                         x1: float, x2: float, lam: float, p: complex,
                         policy: SeriesPolicy | None = None) -> SeriesResult:
    """Series value of the T1 integral: the n = 2 case of closed_form_lauricella.

    At p = 0 this collapses to the F1 double series.
    """
    t1_spec(alpha, beta, alpha1, alpha2, x1, x2, lam, p).validate()
    return _lauricella_sum(alpha, beta, (alpha1, alpha2), (x1, x2), lam, p,
                           policy or SeriesPolicy())


def closed_form_theorem2(alpha: float, beta: float, alpha1: float, alpha2: float,
                         x1: float, x2: float, lam: float, p: complex,
                         policy: SeriesPolicy | None = None) -> SeriesResult:
    """Series value of the T2 integral.

    Here the inner Wright parameters shift with m and n separately, so each
    diagonal needs d + 1 inner values, tabulated as one block of rows.  At
    p = 0 this collapses to the F3 double series.
    """
    policy = policy or SeriesPolicy()
    t2_spec(alpha, beta, alpha1, alpha2, x1, x2, lam, p).validate()
    p = complex(p)
    fx = _PochPowerStream(x1, alpha, alpha1)
    gy = _PochPowerStream(x2, beta, alpha2)
    inner = _InnerTable(lam, p, policy)

    def diagonals():
        inv = 1.0  # 1 / (alpha+beta)_d
        d = 0
        while True:
            fx.extend_to(d)
            gy.extend_to(d)
            m = np.arange(d + 1.0)
            rows = inner.rows(alpha + m, beta + (d - m), alpha + beta + d)
            total = 0.0 + 0.0j
            for m, row in enumerate(rows):
                total += fx.values[m] * gy.values[d - m] * row.value
            yield inv * total
            inv /= alpha + beta + d
            d += 1

    return sum_with_policy(diagonals(), policy)


def closed_form_theorem3(alpha: float, beta: float, gamma: float, a: float, b: float,
                         u: float, v: float, lam: float, p: complex,
                         policy: SeriesPolicy | None = None) -> SeriesResult:
    """Series value of the linear-weight (T3) integral.

    Single sum in m with coefficients (-gamma)_m (alpha)_m / ((alpha+beta)_m m!)
    times (-u(b-a)/(a u+v))^m; nonnegative-integer gamma truncates it exactly.
    """
    policy = policy or SeriesPolicy()
    t3_spec(alpha, beta, gamma, a, b, u, v, lam, p).validate()
    auv = a * u + v
    p = complex(p)
    width = b - a
    prefactor = auv ** gamma * width ** (alpha + beta - 1.0)
    argument = p * width * width
    w = -u * width / auv
    inner = _InnerTable(lam, argument, policy).ladder((alpha, beta, alpha + beta),
                                                      (1.0, 0.0, 1.0))

    def terms():
        coeff = 1.0
        m = 0
        while True:
            if coeff == 0.0:
                yield 0.0 + 0.0j  # stays zero: the ladder is never reached again
            else:
                yield prefactor * coeff * next(inner).value
            coeff *= (-gamma + m) * (alpha + m) * w / ((alpha + beta + m) * (m + 1.0))
            m += 1

    return sum_with_policy(terms(), policy)


def closed_form_theorem4(alpha: float, beta: float, a: float, b: float,
                         nu: float, mu: float, lam: float, p: complex,
                         policy: SeriesPolicy | None = None) -> SeriesResult:
    """Closed form of the T4 integral: a prefactor times one inner Wright value."""
    policy = policy or SeriesPolicy()
    t4_spec(alpha, beta, a, b, nu, mu, lam, p).validate()
    scale = (nu + 1.0) ** (-alpha) * (mu + 1.0) ** (-beta) / (b - a)
    argument = complex(p) / ((nu + 1.0) * (mu + 1.0))
    spec = WrightSpec(((alpha, 1.0), (beta, 1.0), (1.0, 1.0)),
                      ((alpha + beta, 2.0), (1.0, lam)))
    inner = wright_psi_normalized(spec, argument, policy)
    return SeriesResult(scale * inner.value, inner.terms_used,
                        abs(scale) * inner.tail_estimate)


def closed_form_lauricella(alpha: float, beta: float, alphas: Sequence[float],
                           xs: Sequence[float], lam: float, p: complex,
                           policy: SeriesPolicy | None = None) -> SeriesResult:
    """n-variable extension of the T1 closed form, summed by total degree.

    Uses the normalized inner form with weights (alpha)_M / (alpha+beta)_M,
    which reduces to closed_form_theorem1 at n = 2 and to the FD series at
    p = 0.
    """
    tn_spec(alpha, beta, alphas, xs, lam, p).validate()
    return _lauricella_sum(alpha, beta, alphas, xs, lam, p, policy or SeriesPolicy())


# ---------------------------------------------------------------------------
# Generating-function integrals
# ---------------------------------------------------------------------------


class BinomialGen:
    """Generator (1 - x t)^(-a): coefficients (a)_n x^n / n!."""

    def __init__(self, a: float, x: float = 1.0):
        self.a = a
        self.x = x
        self._coeffs = [1.0]

    def coefficient(self, n: int) -> complex:
        c = self._coeffs
        while len(c) <= n:
            k = len(c)
            c.append(c[-1] * (self.a + k - 1.0) * self.x / k)
        return c[n]

    def node_values(self, tau):
        return (1.0 - self.x * tau) ** (-self.a)

    def check_argument(self, t: complex):
        if abs(self.x * t) >= 1.0:
            raise DomainError("binomial generator needs |x t| < 1")


class GegenbauerGen:
    """Generator (1 - 2 x t + t^2)^(-a): coefficients are ultraspherical values."""

    def __init__(self, a: float, x: float = 1.0):
        if abs(x) > 1.0:
            raise DomainError("gegenbauer generator needs |x| <= 1")
        self.a = a
        self.x = x
        self._coeffs = [1.0]

    def coefficient(self, n: int) -> complex:
        c = self._coeffs
        while len(c) <= n:
            k = len(c)
            if k == 1:
                c.append(2.0 * self.a * self.x)
            else:
                c.append((2.0 * self.x * (k + self.a - 1.0) * c[k - 1]
                          - (k + 2.0 * self.a - 2.0) * c[k - 2]) / k)
        return c[n]

    def node_values(self, tau):
        return (1.0 - 2.0 * self.x * tau + tau * tau) ** (-self.a)

    def check_argument(self, t: complex):
        if abs(t) >= 1.0:
            raise DomainError("gegenbauer generator needs |t| < 1")


class HumbertGen:
    """Confluent two-variable generator: coefficients (a)_n/(b)_n 1F1(a; b+n; x)/n!.

    The node form is the two-variable confluent double series itself,
    evaluated through its tau-power coefficients, so the two sides of the
    identity go through genuinely different summations.
    """

    def __init__(self, a: float, b: float, x: float):
        if _is_nonpositive_integer(b):
            raise DomainError("humbert generator needs b off the nonpositive integers")
        self.a = a
        self.b = b
        self.x = x
        self._coeffs: list[complex] = []
        self._tau_coeffs: list[float] = []
        self._poch_b: list[float] = [1.0]

    def coefficient(self, n: int) -> complex:
        c = self._coeffs
        while len(c) <= n:
            k = len(c)
            pb = self._poch_b
            while len(pb) <= k:
                j = len(pb)
                pb.append(pb[-1] * (self.b + j - 1.0))
            f11 = hyper_pfq([self.a], [self.b + k], self.x).value
            c.append(pochhammer(self.a, k) / pb[k] * f11 / math.gamma(k + 1.0))
        return c[n]

    def _extend_tau_coeffs(self, count: int):
        # tau^n coefficient of the double series:
        #   (a)_n/n! * sum_m (a)_m x^m / ((b)_{m+n} m!)
        tc = self._tau_coeffs
        while len(tc) < count:
            n = len(tc)
            pa_n = 1.0
            for j in range(n):
                pa_n *= (self.a + j) / (j + 1.0)
            # start of the m-sum: 1/(b)_n
            pb = self._poch_b
            while len(pb) <= n:
                j = len(pb)
                pb.append(pb[-1] * (self.b + j - 1.0))
            term = 1.0 / pb[n]
            total = term
            m = 0
            while abs(term) > 1e-20 * max(1.0, abs(total)) and m < 600:
                term *= (self.a + m) * self.x / ((m + 1.0) * (self.b + m + n))
                total += term
                m += 1
            tc.append(pa_n * total)

    def node_values(self, tau):
        radius = float(np.max(np.abs(tau))) if getattr(tau, "size", 1) else 0.0
        count = 8
        while True:
            self._extend_tau_coeffs(count)
            tail = abs(self._tau_coeffs[count - 1]) * max(radius, 1e-30) ** (count - 1)
            if tail < 1e-18 or count > 400:
                break
            count += 8
        out = np.zeros_like(tau, dtype=complex)
        for cn in reversed(self._tau_coeffs[:count]):
            out = out * tau + cn
        return out

    def check_argument(self, t: complex):
        pass  # entire in t


class CustomGen:
    """Arbitrary coefficient stream n -> c_n g_n(x); no closed node form."""

    def __init__(self, coefficient_fn: Callable[[int], complex]):
        self._fn = coefficient_fn

    def coefficient(self, n: int) -> complex:
        return complex(self._fn(n))

    def node_values(self, tau):
        raise DomainError("custom generators have no closed node form for quadrature")

    def check_argument(self, t: complex):
        pass


@dataclass(frozen=True)
class GeneratingIntegralSpec:
    """Bound parameter set of one generating-function integral."""

    gen: object
    r: float
    s: float
    delta: float
    omega: float
    lam: float
    p: complex
    t: complex
    product_factors: tuple[tuple[float, float], ...] = ()


def generating_integral_closed_form(gen, r: float, s: float, delta: float, omega: float,
                                    lam: float, p: complex, t: complex,
                                    product_factors: Sequence[tuple[float, float]] = (),
                                    policy: SeriesPolicy | None = None) -> SeriesResult:
    """Series value of the generating-function integral.

    Without product factors this is a single sum of generator coefficients
    times raw inner Wright values.  With factors (a_i, x_i) the extra
    binomial streams shift the first upper parameter, and the combined
    multi-index sum is grouped by total degree.
    """
    policy = policy or SeriesPolicy()
    if not s > r > 0.0:
        raise DomainError(f"need s > r > 0, got r={r!r}, s={s!r}")
    if delta < 0.0 or omega < 0.0 or delta + omega <= 0.0:
        raise DomainError("need delta, omega >= 0 with delta + omega > 0")
    if lam < 0.0:
        raise DomainError("need lam >= 0")
    t = complex(t)
    p = complex(p)
    gen.check_argument(t)
    factors = tuple(product_factors)
    for _, xi in factors:
        if abs(xi) >= 1.0:
            raise DomainError("product factors need |x_i| < 1")

    if not factors:
        inner = _InnerTable(lam, p, policy, raw=True).ladder((r, s - r, s),
                                                             (delta, omega, delta + omega))

        def terms():
            n = 0
            tn = 1.0 + 0.0j
            while True:
                yield gen.coefficient(n) * tn * next(inner).value
                tn *= t
                n += 1

        return sum_with_policy(terms(), policy)

    product = _StreamProduct([_PochPowerStream(xi, ai) for ai, xi in factors])
    t_powers = [1.0 + 0.0j]
    inner = _InnerTable(lam, p, policy, raw=True)

    def degree_terms():
        d = 0
        while True:
            while len(t_powers) <= d:
                t_powers.append(t_powers[-1] * t)
            n = np.arange(d + 1.0)
            rows = inner.rows(r + delta * n + (d - n), s - r + omega * n,
                              s + (delta + omega) * n + (d - n))
            total = 0.0 + 0.0j
            for n, row in enumerate(rows):
                total += gen.coefficient(n) * t_powers[n] * product.coeff(d - n) * row.value
            yield total
            d += 1

    return sum_with_policy(degree_terms(), policy)


def reduce_lambda1(spec: WrightSpec, p: complex,
                   policy: SeriesPolicy | None = None) -> SeriesResult:
    """Collapse the lam = 1 inner Wright instance to a 2F2 at quarter argument.

    Accepts exactly the (1,1,1; 2,1)-patterned normalized instance with
    upper parameters (alpha, beta, 1) and lower (alpha+beta, 1); the value
    is 2F2(alpha, beta; (alpha+beta)/2, (alpha+beta+1)/2; p/4).
    """
    policy = policy or SeriesPolicy()
    ok = (
        len(spec.upper) == 3 and len(spec.lower) == 2
        and all(w == 1.0 for _, w in spec.upper)
        and spec.upper[2][0] == 1.0
        and spec.lower[0][1] == 2.0
        and spec.lower[1] == (1.0, 1.0)
    )
    if ok:
        alpha, beta = spec.upper[0][0], spec.upper[1][0]
        ok = abs(spec.lower[0][0] - (alpha + beta)) <= 1e-12 * max(1.0, abs(alpha + beta))
    if not ok:
        raise DomainError("spec is not the lam = 1 inner instance this reduction covers")
    half = 0.5 * (alpha + beta)
    return hyper_pfq([alpha, beta], [half, half + 0.5], complex(p) / 4.0, policy)


# ---------------------------------------------------------------------------
# Scenario catalog support
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCase:
    """One named identity instance bound to both of its evaluation routes."""

    name: str
    spec: object
    closed_form: Callable[[SeriesPolicy], SeriesResult]
    oracle: Callable
    validity_note: str = ""


def euler_case(name: str, spec: EulerIntegralSpec, closed: Callable[[SeriesPolicy], SeriesResult],
               scale: float = 1.0, note: str = "") -> IdentityCase:
    """Validate spec and bind it to its closed form and to the direct-quadrature
    oracle, whose value is multiplied by scale."""
    spec.validate()

    def oracle(qpolicy=None, spolicy=None):
        raw = evaluate_integral_direct(spec, qpolicy, spolicy)
        if scale == 1.0:
            return raw
        return QuadratureResult(raw.value * scale, raw.err_estimate * abs(scale),
                                raw.evaluations)

    return IdentityCase(name, spec, closed, oracle, note)


def application_case(case_id, p: complex, policy: SeriesPolicy | None = None,
                     **params) -> IdentityCase:
    """Build one of the specialized scenario cases 4.1 .. 4.5.

    Each case binds a fully-validated integral spec to the series route the
    specialization dictates, ready for dual evaluation.
    """
    cid = str(case_id)
    p = complex(p)
    if cid == "4.1":
        alpha = params["alpha"]
        alpha1 = params["alpha1"]
        x1 = params["x1"]
        lam = params["lam"]
        if not (abs(x1) < 1.0 and x1 < 0.5):
            raise DomainError("case 4.1 needs |x1| < 1 and x1 < 1/2 so |x2| < 1")
        x2 = x1 / (x1 - 1.0)
        return euler_case(
            "ex4.1", t1_spec(alpha, alpha, alpha1, alpha1, x1, x2, lam, p),
            lambda pol: closed_form_theorem1(alpha, alpha, alpha1, alpha1, x1, x2, lam, p, pol),
            note="equal exponents and mirrored second argument")
    if cid == "4.2" or cid == "4.2-2f2":
        alpha = params["alpha"]
        beta = params["beta"]
        alpha1 = params["alpha1"]
        alpha2 = params["alpha2"]
        x1 = params["x1"]
        lam = 1.0 if cid == "4.2-2f2" else params["lam"]
        if not abs(x1) < 1.0:
            raise DomainError("case 4.2 needs |x1| < 1")
        combined = alpha1 + alpha2
        scale = 1.0 / (1.0 - x1)

        if cid == "4.2":
            def closed(pol):
                inner = closed_form_theorem1(alpha, beta, combined, 0.0, x1, 0.0, lam, p, pol)
                return SeriesResult(scale * inner.value, inner.terms_used,
                                    abs(scale) * inner.tail_estimate)
        else:
            def closed(pol):
                # Same single sum with the inner value routed through the
                # quarter-argument 2F2 reduction instead of the Wright engine.
                def terms():
                    coeff = 1.0
                    m = 0
                    while True:
                        two_f2 = hyper_pfq(
                            [alpha + m, beta],
                            [0.5 * (alpha + beta + m), 0.5 * (alpha + beta + m + 1.0)],
                            p / 4.0, pol).value
                        yield scale * coeff * two_f2
                        coeff *= (alpha + m) * (combined + m) * x1 / ((alpha + beta + m) * (m + 1.0))
                        m += 1

                return sum_with_policy(terms(), pol)

        return euler_case("ex" + cid, t1_spec(alpha, beta, combined, 0.0, x1, 0.0, lam, p),
                          closed, scale, "combined exponent with constant 1/(1-x1) weight")
    if cid == "4.3":
        alpha = params["alpha"]
        beta = params["beta"]
        alpha1 = params["alpha1"]
        x1 = params["x1"]
        lam = params["lam"]
        if not abs(x1) < 1.0:
            raise DomainError("case 4.3 needs |x1| < 1")
        return euler_case(
            "ex4.3", t3_spec(alpha, beta, -alpha1, 0.0, 1.0, -x1, 1.0, lam, p),
            lambda pol: closed_form_theorem3(alpha, beta, -alpha1, 0.0, 1.0, -x1, 1.0, lam, p, pol),
            note="linear weight specialized to (1 - x1 t)^(-alpha1)")
    if cid == "4.4":
        alpha = params["alpha"]
        beta = params["beta"]
        a = params["a"]
        b = params["b"]
        lam = params["lam"]
        return euler_case(
            "ex4.4", t4_spec(alpha, beta, a, b, 0.0, 0.0, lam, p),
            lambda pol: closed_form_theorem4(alpha, beta, a, b, 0.0, 0.0, lam, p, pol),
            note="flat weight: value is the inner series over (b - a)")
    if cid == "4.5":
        alpha = params["alpha"]
        nu = params["nu"]
        mu = params["mu"]
        lam = params["lam"]
        return euler_case(
            "ex4.5", t4_spec(alpha, alpha, 0.0, 1.0, nu, mu, lam, p),
            lambda pol: closed_form_theorem4(alpha, alpha, 0.0, 1.0, nu, mu, lam, p, pol),
            note="symmetric exponents on (0, 1)")
    raise DomainError(f"unknown application case {case_id!r}")
