"""Closed-form (series-side) evaluation of the Euler-type integral family.

Each evaluator here computes, purely by series, the same quantity that
quadrature.evaluate_integral_direct obtains by direct integration:

    I = (1/B(alpha, beta)) * integral_a^b (t-a)^(alpha-1) (b-t)^(beta-1)
            chi(t)^gamma E_lam[p xi(t)] dt

for the chi/xi families below.  The generating-function integrals are one
more family: with alpha = r, beta = s - r and chi = G(t x^delta
(1-x)^omega) prod_i (1 - x_i x)^(-a_i), their raw value (without 1/B) is
B(r, s - r) times I.

Each family owns its domain check, its node forms and its series route.
EulerIntegralSpec.closed_form validates (the common checks, the family's
check, the lam = 0 gate) and runs the route; euler_case validates once and
binds a spec to its route and to the oracle, so both refuse the same points.

T1, T2, T3 and the n-variable form are one outer sum (_lauricella_sum),
in the orientation t or 1 - t that Pfaff's map gives the smaller max |x_i|
(_pfaff; T2 sums Appell F3 values over the powers of p of E_lam[p xi]
where neither shrinks it): a block of degrees at a time, the outer
coefficients as arrays (the helpers of series) times one inner value per
total degree.  The inner engine is a 3-by-2 Wright series with weight
pattern (1,1,1; 2, lam), whose terms for a block of degrees are built at
once in log space as a (terms, rows) array and stopped by the array step
of series (_InnerTable, _settle); rows the table cannot settle go through
the scalar engine, and T4's single value sums a stream of its own
(_t4_terms), one log-gamma per term.  The generating integrals sum inner
rows or, with product factors, _lauricella_sum values over G's terms, a
block of terms at a time (_lauricella_rows), as case 4.2's 2F2 reduction
sums its 2F2 values.  A sweep over the weights (alpha_i, x_i) reuses the
tables, the settled rows of the first two blocks and their binomial
products (_InnerTable).

On a general interval the linear-weight family (T3) picks up the factors
(b-a)^(alpha+beta-1) and (a*u+v)^gamma, and the series argument becomes
p*(b-a)^2; all three degenerate to no-ops on (0, 1).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError, EvaluationError
from .multivar import appell_f3, gegenbauer
from .quadrature import QuadraturePolicy, QuadratureResult, evaluate_integral_direct
from .scalars import _is_nonpositive_integer, beta_fn
from .series import (
    BLOCK,
    CANCELLATION_LIMIT,
    ROWS,
    SeriesPolicy,
    SeriesResult,
    WrightSpec,
    _Phase,
    _coefficients,
    _in_blocks,
    _pfq_rows,
    _poch_power,
    _product,
    _row_sums,
    _row_values,
    _running,
    _settle,
    hyper_pfq,
    sum_with_policy,
    wright_psi_normalized,
)

__all__ = [
    "T1Family",
    "T2Family",
    "T3Family",
    "T4Family",
    "TNFamily",
    "GeneratingFamily",
    "EulerIntegralSpec",
    "BinomialGen",
    "HumbertGen",
    "GegenbauerGen",
    "CustomGen",
    "IdentityCase",
    "closed_form_theorem1",
    "closed_form_theorem2",
    "closed_form_theorem3",
    "closed_form_theorem4",
    "closed_form_lauricella",
    "generating_integral_closed_form",
    "evaluate_generating_integral_direct",
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
    ones of EulerIntegralSpec.validate; its series route closed(spec, policy)
    for a valid spec; and its node forms chi(x, da, db, width) and xi(da,
    db, chi) at abscissae x with exact endpoint distances da and db.
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
            raise DomainError("need |x1| < 1 and |x2| < 1")

    def chi(self, x, da, db, width):
        return (1.0 - self.x1 * x) ** (-self.alpha1) * (1.0 - self.x2 * x) ** (-self.alpha2)

    def closed(self, spec, policy):
        return TNFamily((self.alpha1, self.alpha2), (self.x1, self.x2)).closed(spec, policy)


@dataclass(frozen=True)
class T2Family(T1Family):
    """chi = (1 - x1 t)^(-a1) (1 - x2 (1-t))^(-a2), xi = t(1-t), on (0, 1): the
    fields and domain of T1, its x2 factor reflected, so Pfaff's map makes it a T1."""

    def chi(self, x, da, db, width):
        return (1.0 - self.x1 * x) ** (-self.alpha1) * (1.0 - self.x2 * db) ** (-self.alpha2)

    def closed(self, spec, policy):
        side = _pfaff(spec.alpha, spec.beta, (self.alpha1, self.alpha2), (self.x1, self.x2),
                      (False, True))
        if side[0] <= max(abs(self.x1), abs(self.x2)):
            return _oriented_sum(side, (self.alpha1, self.alpha2), spec.lam, spec.p, policy)
        return self.by_f3(spec, policy)

    def by_f3(self, spec, policy):  # described at closed_form_theorem2
        alpha, beta, lam, p = spec.alpha, spec.beta, spec.lam, spec.p

        def step(k):  # w_{k+1} / w_k
            c = alpha + beta + 2.0 * k
            return (alpha + k) * (beta + k) * p / (c * (c + 1.0)) * np.exp(
                [math.lgamma(1.0 + lam * j) - math.lgamma(1.0 + lam * j + lam) for j in k])

        terms = (w * appell_f3(alpha + k, beta + k, self.alpha1, self.alpha2, alpha + beta + 2 * k,
                               self.x1, self.x2, policy).value if w != 0.0 else 0.0j
                 for k, w in enumerate(_coefficients(np.multiply, step)))
        return sum_with_policy(terms, policy)


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

    def closed(self, spec, policy):
        auv = spec.a * self.u + self.v
        width = spec.b - spec.a
        side = _pfaff(spec.alpha, spec.beta, (-spec.gamma,), (-self.u * width / auv,), (False,))
        return _oriented_sum(side, (-spec.gamma,), spec.lam, spec.p * width * width, policy,
                             auv ** spec.gamma * width ** (spec.alpha + spec.beta - 1.0))


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
        # xi = u / ((1+nu) u + 1+mu)^2 with u = (t-a)/(b-t): the width cancels
        # and the maximum lies at u = (1+mu)/(1+nu)
        return 0.25 / ((1.0 + self.nu) * (1.0 + self.mu))

    def closed(self, spec, policy):
        alpha, beta, nu1, mu1 = spec.alpha, spec.beta, self.nu + 1.0, self.mu + 1.0
        inner = sum_with_policy(_t4_terms(alpha, beta, spec.lam, spec.p / (nu1 * mu1)), policy)
        return _scaled(inner, nu1 ** (-alpha) * mu1 ** (-beta) / (spec.b - spec.a))


def _t4_terms(a: float, b: float, lam: float, z: complex) -> Iterator[complex]:
    """T4's inner terms (a)_k (b)_k z^k / ((a+b)_{2k} Gamma(1 + lam k)), the log of the Pochhammer
    part a running sum of logs of its one-step ratio; validate makes a, b > 0: no pole or sign."""
    phase, log_poch, c = _Phase(z), 0.0, a + b
    for k in itertools.count():
        yield phase.term(k, log_poch - math.lgamma(1.0 + lam * k), 1)
        log_poch += math.log((a + k) / (c + 2.0 * k) * ((b + k) / (c + 2.0 * k + 1.0)))


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

    def closed(self, spec, policy):
        side = _pfaff(spec.alpha, spec.beta, self.alphas, self.xs, (False,) * len(self.xs))
        return _oriented_sum(side, self.alphas, spec.lam, spec.p, policy)


@dataclass(frozen=True)
class GeneratingFamily(_Family):
    """chi = G(t x^delta (1-x)^omega) prod_i (1 - x_i x)^(-a_i), xi = x(1-x), on (0, 1)."""

    gen: object
    delta: float
    omega: float
    t: complex
    factors: tuple[tuple[float, float], ...]

    def check(self, spec):
        _check_unit_interval(spec)
        if not (self.delta >= 0.0 and self.omega >= 0.0 and self.delta + self.omega > 0.0):
            raise DomainError("need delta, omega >= 0 with delta + omega > 0")
        if any(abs(xi) >= 1.0 for _, xi in self.factors):
            raise DomainError("product factors need |x_i| < 1")
        self.gen.check_argument(self.t)

    def chi(self, x, da, db, width):
        out = self.gen.node_values(self.t * da ** self.delta * db ** self.omega)
        for ai, xi in self.factors:
            out = out * (1.0 - xi * x) ** (-ai)
        return out

    def closed(self, spec, policy):
        raise DomainError("a generating spec sums by generating_integral_closed_form, given s")


# the fields of a dataclass that can hold numbers: all but those declared
# `object` (a family, a generator)
_field_names = functools.cache(lambda cls: tuple(
    entry.name for entry in fields(cls) if entry.type != "object"))


def _finite(value) -> bool:
    """Whether a number, or every number of a (nested) tuple, is finite; others pass."""
    if isinstance(value, (int, float, complex)):
        return math.isfinite(value.real) and math.isfinite(value.imag)
    return not isinstance(value, tuple) or all(map(_finite, value))


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
        if not isinstance(self.family, _Family):
            raise DomainError(f"unknown family {type(self.family).__name__}")
        # every numeric field of the spec and of its family, tuples included;
        # a float, the common case, is checked without the call
        for owner in self, self.family:
            for name in _field_names(type(owner)):
                value = getattr(owner, name)
                if not (math.isfinite(value) if type(value) is float else _finite(value)):
                    raise DomainError(f"{name} must be finite, got {value!r}")
        if not self.alpha > 0.0 or not self.beta > 0.0:
            raise DomainError("need alpha > 0 and beta > 0")
        if not self.lam >= 0.0:
            raise DomainError("need lam >= 0")
        if not self.a < self.b:
            raise DomainError("need a < b")
        self.family.check(self)
        if self.lam == 0.0 and abs(self.p) * self.family.xi_max(self.b - self.a) >= 1.0:
            raise DomainError("lam = 0 requires |p * xi(t)| < 1 on the whole interval")

    def closed_form(self, policy: SeriesPolicy | None = None) -> SeriesResult:
        """Validate, then sum the family's series route."""
        self.validate()
        return self.family.closed(self, policy or SeriesPolicy())


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


def generating_spec(gen, r, s, delta, omega, lam, p, t, factors=()) -> EulerIntegralSpec:
    return EulerIntegralSpec(r, s - r, 1.0, 0.0, 1.0, lam, complex(p),
                             GeneratingFamily(gen, delta, omega, complex(t), tuple(factors)))


# ---------------------------------------------------------------------------
# Inner Wright engine
# ---------------------------------------------------------------------------


# Cache bounds (_InnerTable, _pfaff); a pass of the theorem1 test grid has 12, 180, 41, 324 keys.
_TABLES, _ROW_BLOCKS, _PRODUCTS, _KEPT, _SIDES = 32, 192, 48, 2 * BLOCK, 512


class _InnerTable:
    """Inner Wright values of rows (a, b, c) that share lam and p.

    A row is the normalized (1,1,1; 2,lam) series sum_k (a)_k (b)_k p^k /
    ((c)_{2k} Gamma(1 + lam k)).  A block of rows is tabulated in log space
    as a (terms, rows) array, so every cumulative sum along k runs down
    contiguous memory: the Pochhammer ratio is a cumulative sum of logs,
    and the column term k ln|p| - ln Gamma(1 + lam k) is computed once per
    table.  Each row stops by _settle, the rule of sum_with_policy on
    arrays, within BLOCK terms.  A row with a nonpositive parameter, a
    non-finite partial sum, no stop or a cancelled value is not settled:
    values() evaluates it by the scalar engine when the caller reaches it,
    so that engine raises every pole, divergence, term and cancellation error.

    Reused from lru caches filled on demand, arrays read-only: a table by
    its key (lam, p, policy), at most _TABLES; a block's value and settled
    arrays by that key, its ladder (x0, dx) of a, b, c and (start, count)
    with count <= _KEPT, at most _ROW_BLOCKS; the binomial product of such
    a count by (alphas, xs, count), at most _PRODUCTS.  About 0.6 MB full.
    """

    def __init__(self, lam: float, p: complex, policy: SeriesPolicy):
        self.key = lam, p, policy
        self.lam, self.p, self.policy = self.key
        self._column = np.array([-math.lgamma(1.0 + lam * k) for k in range(BLOCK)])
        radius = abs(p)
        unit = p / radius if radius != 0.0 else 0.0j
        if unit.imag == 0.0:
            unit = unit.real  # a real table costs about half a complex one
        # unit^k by repeated products, as the scalar engine forms it
        self._phase = np.ones(BLOCK, dtype=type(unit))
        if radius != 0.0:
            self._column += np.arange(BLOCK) * math.log(radius)
            self._phase[1:] = np.cumprod(np.full(BLOCK - 1, unit))
        else:
            self._column[1:] = -math.inf
        for array in self._column, self._phase:
            array.setflags(write=False)

    def rows(self, a, b, c) -> tuple:
        """Value, terms used, tail estimate and settled flag of each row, as
        arrays (the first three hold where the row is settled), with a, b, c
        broadcast to one length: the _settle of its log-space terms."""
        params = np.array(np.broadcast_arrays(a, b, c), dtype=float)
        positive = (params > 0.0).all(axis=0)
        safe = np.where(positive, params, 1.0)[:, None, :]

        def block(rows, count):
            sa, sb, sc = safe[..., rows]
            j = np.arange(count - 1.0)[:, None]
            log_term = np.zeros((count, sa.shape[1]))
            # overflow and invalid values leave a non-finite partial sum, and the row unsettled
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                # ln((a)_k (b)_k / (c)_{2k}) as a cumulative sum of one log per step
                np.cumsum(np.log((sa + j) * (sb + j) / ((sc + 2.0 * j) * (sc + (2.0 * j + 1.0)))),
                          axis=0, out=log_term[1:])
                log_term += self._column[:count, None]
                return np.exp(log_term) * self._phase[:count, None]

        value, stop, mag, abs_sum, ok = _settle(block, self.policy)
        value = value.astype(complex)
        ok &= positive & (abs_sum <= CANCELLATION_LIMIT * np.abs(value))
        return value, stop + 1, self.policy.consecutive_small * mag, ok

    def values(self, a, b, c, weight: np.ndarray | None = None,
               rows: tuple = ()) -> Iterable[complex]:
        """weight (if given) times the value of each row: a list if every row is
        settled, else an iterator that runs the scalar engine on reaching one
        that is not.  rows, if given, are the value and settled arrays of rows()."""
        value, ok = rows or self.rows(a, b, c)[::3]
        terms = (value if weight is None else weight * value).tolist()
        if ok.all():
            return terms
        rows = zip(*np.broadcast_arrays(a, b, c),
                   itertools.repeat(None) if weight is None else weight.tolist())
        return (term if settled else self._scalar(*row)
                for term, settled, row in zip(terms, ok.tolist(), rows))

    def _scalar(self, a, b, c, weight) -> complex:
        spec = WrightSpec(((a, 1.0), (b, 1.0), (1.0, 1.0)), ((c, 2.0), (1.0, self.lam)))
        value = wright_psi_normalized(spec, self.p, self.policy).value
        return value if weight is None else weight * value


# ---------------------------------------------------------------------------
# Closed forms for the integral family
# ---------------------------------------------------------------------------


_inner_table = functools.lru_cache(maxsize=_TABLES)(_InnerTable)


def _rungs(ladder: tuple, start: int, count: int) -> list:
    d = np.arange(start, count, dtype=float)  # a constant parameter stays a scalar
    return [x + dx * d if dx else x for x, dx in ladder]


@functools.lru_cache(maxsize=_ROW_BLOCKS)
def _ladder_rows(key: tuple, ladder: tuple, start: int, count: int) -> tuple:
    value, _, _, ok = _inner_table(*key).rows(*_rungs(ladder, start, count))
    value.setflags(write=False)
    ok.setflags(write=False)
    return value, ok


def _ladder_values(table: _InnerTable, ladder: tuple, start: int, count: int,
                   weight: np.ndarray | None = None) -> Iterable[complex]:
    """table.values() of the rows x0 + dx d, d = start .. count - 1, for the
    (x0, dx) of a, b and c in ladder; a block of the first _KEPT degrees takes
    its rows from _ladder_rows, and forms a, b, c only for an unsettled row."""
    rows = _ladder_rows(table.key, ladder, start, count) if count <= _KEPT else ()
    if rows and rows[1].all():
        return (rows[0] if weight is None else weight * rows[0]).tolist()
    return table.values(*_rungs(ladder, start, count), weight, rows)


@functools.lru_cache(maxsize=_PRODUCTS)
def _kept_product(alphas: tuple, xs: tuple, count: int) -> np.ndarray:
    out = _product([_poch_power(xi, (ai,), count) for ai, xi in zip(alphas, xs)], count)
    out.setflags(write=False)
    return out


def _binomial_product(alphas: Sequence[float], xs: Sequence[float]) -> Callable:
    """count -> the first count degree coefficients of prod_i (1 - x_i t)^(-a_i);
    past _KEPT degrees they are formed afresh on each request."""
    key = tuple(alphas), tuple(xs)
    return lambda count: (_kept_product if count <= _KEPT else _kept_product.__wrapped__)(
        *key, count)


def _scaled(result: SeriesResult, factor) -> SeriesResult:
    """result times a constant factor, its tail estimate scaled by |factor|; a value
    or tail that this leaves non-finite raises EvaluationError."""
    value, tail = factor * result.value, abs(factor) * result.tail_estimate
    if not (_finite(value) and math.isfinite(tail)):
        raise EvaluationError(f"closed form scaled by {factor!r} is {value!r}, tail {tail!r}")
    return SeriesResult(value, result.terms_used, tail)


def _lauricella_sum(alpha: float, beta: float, product: Callable,
                    table: _InnerTable) -> SeriesResult:
    """The n-variable closed form, summed by total degree d.

    The inner Wright factor depends only on d, so each degree is
    (alpha)_d / (alpha+beta)_d times the degree-d coefficient of the
    binomial product (product(count) holds the first count) times the
    inner row (alpha + d, beta, alpha + beta + d).  A block of degrees is
    built at a time: its coefficients as arrays, times its rows tabulated
    in one table call.  The sum stops by the table's policy.
    """
    def block(start, count):
        j = np.arange(count - 1.0)
        ratio = _running(np.multiply, (alpha + j) / (alpha + beta + j))
        return _ladder_values(table, ((alpha, 1.0), (beta, 0.0), (alpha + beta, 1.0)), start,
                              count, (ratio * product(count))[start:])

    return sum_with_policy(_in_blocks(block), table.policy)


def _lauricella_rows(alpha: np.ndarray, beta: np.ndarray, product: Callable,
                     table: _InnerTable) -> Iterator:
    """_lauricella_sum of each (alpha, beta) pair of arrays, by _row_sums of its first
    BLOCK degrees; an unsettled inner row is NaN, so a degree sum reaching it is too."""
    j = np.arange(BLOCK - 1.0)
    ratio = _running(np.multiply, (alpha[:, None] + j) / ((alpha + beta)[:, None] + j))
    value, ok = (np.array(part) for part in zip(*(
        _ladder_rows(table.key, ((a, 1.0), (b, 0.0), (a + b, 1.0)), 0, BLOCK)
        for a, b in zip(alpha.tolist(), beta.tolist()))))
    return _row_sums(ratio * product(BLOCK) * np.where(ok, value, np.nan), table.policy)


@functools.lru_cache(maxsize=_SIDES)
def _pfaff(alpha: float, beta: float, alphas: Sequence[float], xs: Sequence[float],
           reflected: Sequence[bool]) -> tuple:
    """(max |x_i|, scale, alpha, beta, xs): prod_i (1 - x_i t_i)^(-a_i), t_i = 1 - t if
    reflected[i] else t, as scale prod_i (1 - x_i t)^(-a_i) in the orientation of smaller
    max |x_i| (the given one on a tie).  t -> 1 - t swaps alpha and beta and flips each t_i;
    Pfaff's (1 - x (1-t))^(-a) = (1-x)^(-a) (1 - x t/(x-1))^(-a) (DLMF 15.8.1) does the rest."""
    given = [x / (x - 1.0) if r else x for x, r in zip(xs, reflected)]
    other = [x if r else x / (x - 1.0) for x, r in zip(xs, reflected)]
    flip = max(map(abs, other)) < max(map(abs, given))
    out = other if flip else given
    scale = math.prod([(1.0 - x) ** -a for a, x, r in zip(alphas, xs, reflected) if r != flip])
    return max(map(abs, out)), scale, *((beta, alpha) if flip else (alpha, beta)), tuple(out)


def _oriented_sum(side: tuple, alphas, lam, p, policy, prefactor=1.0) -> SeriesResult:
    """prefactor times the n-variable closed form in a _pfaff orientation."""
    _, scale, alpha, beta, xs = side
    inner = _lauricella_sum(alpha, beta, _binomial_product(alphas, xs),
                            _inner_table(lam, p, policy))
    return inner if scale * prefactor == 1.0 else _scaled(inner, scale * prefactor)


def closed_form_theorem1(alpha: float, beta: float, alpha1: float, alpha2: float,
                         x1: float, x2: float, lam: float, p: complex,
                         policy: SeriesPolicy | None = None) -> SeriesResult:
    """Series value of the T1 integral: the n = 2 case of closed_form_lauricella.

    At p = 0 this collapses to the F1 double series.
    """
    return t1_spec(alpha, beta, alpha1, alpha2, x1, x2, lam, p).closed_form(policy)


def closed_form_theorem2(alpha: float, beta: float, alpha1: float, alpha2: float,
                         x1: float, x2: float, lam: float, p: complex,
                         policy: SeriesPolicy | None = None) -> SeriesResult:
    """Series value of the T2 integral.  Pfaff's map of one factor makes it
    (1-x2)^(-a2) T1(alpha, beta; x1, x2/(x2-1)) or (1-x1)^(-a1) T1(beta, alpha;
    x1/(x1-1), x2); the one of smaller max |x| is summed where that is at most
    max(|x1|, |x2|), terms_used counting its T1 degrees.  Elsewhere (as at both
    x_i >= 1/2) T2Family.by_f3 sums E_lam[p xi] term by term, sum_k w_k F3(alpha+k, beta+k,
    alpha1, alpha2; alpha+beta+2k; x1, x2), w_k = (alpha)_k (beta)_k p^k /
    ((alpha+beta)_{2k} Gamma(1 + lam k)); terms_used and the tail cover k only.
    """
    return t2_spec(alpha, beta, alpha1, alpha2, x1, x2, lam, p).closed_form(policy)


def closed_form_theorem3(alpha: float, beta: float, gamma: float, a: float, b: float,
                         u: float, v: float, lam: float, p: complex,
                         policy: SeriesPolicy | None = None) -> SeriesResult:
    """Series value of the linear-weight (T3) integral.

    Mapped onto (0, 1) the weight is (a u + v)^gamma (1 - w t)^gamma with
    w = -u(b-a)/(a u + v) < 1: the one-variable Lauricella sum with exponent
    -gamma at w, which nonnegative-integer gamma truncates exactly.  At w < 0 it
    is summed mirrored (the TN rule) at w/(w-1), terms_used counting its degrees.
    """
    return t3_spec(alpha, beta, gamma, a, b, u, v, lam, p).closed_form(policy)


def closed_form_theorem4(alpha: float, beta: float, a: float, b: float,
                         nu: float, mu: float, lam: float, p: complex,
                         policy: SeriesPolicy | None = None) -> SeriesResult:
    """Closed form of the T4 integral: a prefactor times one inner Wright value."""
    return t4_spec(alpha, beta, a, b, nu, mu, lam, p).closed_form(policy)


def closed_form_lauricella(alpha: float, beta: float, alphas: Sequence[float],
                           xs: Sequence[float], lam: float, p: complex,
                           policy: SeriesPolicy | None = None) -> SeriesResult:
    """n-variable extension of the T1 closed form, summed by total degree.

    Uses the normalized inner form with weights (alpha)_M / (alpha+beta)_M,
    which reduces to closed_form_theorem1 at n = 2 and to the FD series at
    p = 0.
    """
    return tn_spec(alpha, beta, alphas, xs, lam, p).closed_form(policy)


# ---------------------------------------------------------------------------
# Generating-function integrals
# ---------------------------------------------------------------------------


class _Generator:
    """Shared by the generators: the closed form sums coefficient(n) t^n."""

    def scaled_coefficients(self, t: complex) -> Iterator[complex]:
        """coefficient(n) t^n for n = 0, 1, ..., with t^n a running product."""
        tn = 1.0 + 0.0j
        for n in itertools.count():
            yield self.coefficient(n) * tn
            tn *= t


class BinomialGen(_Generator):
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


class GegenbauerGen(_Generator):
    """Generator (1 - 2 x t + t^2)^(-a): coefficients are ultraspherical values."""

    def __init__(self, a: float, x: float = 1.0):
        if abs(x) > 1.0:
            raise DomainError("gegenbauer generator needs |x| <= 1")
        self.a = a
        self.x = x

    def coefficient(self, n: int) -> complex:
        return gegenbauer(n, self.a, self.x)

    def node_values(self, tau):
        return (1.0 - 2.0 * self.x * tau + tau * tau) ** (-self.a)

    def check_argument(self, t: complex):
        if abs(t) >= 1.0:
            raise DomainError("gegenbauer generator needs |t| < 1")


class HumbertGen(_Generator):
    """Confluent two-variable generator: coefficients (a)_n/(b)_n 1F1(a; b+n; x)/n!.

    The generator is Humbert Phi2(a, a; b; x, tau), and its tau^n
    coefficient is coefficient(n), because (b)_n (b+n)_m = (b)_{m+n}.
    coefficient(n) t^n is the running product of (a+n-1) t / ((b+n-1) n)
    times the 1F1 value, so it overflows only where its value does.  The
    1F1 values are summed a block of n at a time (series._pfq_rows) and kept
    by the generator; a row the block cannot settle goes to hyper_pfq.  The
    node form sums c_n R^n (tau/R)^n by Horner's rule, with R = max|tau|
    and c_n R^n from the same running product, in as many terms as the
    shared series policy takes for the majorant sum_n |c_n| R^n.
    """

    def __init__(self, a: float, b: float, x: float):
        if _is_nonpositive_integer(b):
            raise DomainError("humbert generator needs b off the nonpositive integers")
        self.a = a
        self.b = b
        self.x = x
        self._f11: list = []  # the 1F1(a; b+n; x) results drawn so far from _rows
        self._rows = _in_blocks(lambda start, count: _pfq_rows(
            [a], [b + np.arange(start, count, 1.0)], x, SeriesPolicy()), ROWS)

    def scaled_coefficients(self, t: complex) -> Iterator[complex]:
        f11 = self._f11
        c = 1.0
        for n in itertools.count():
            if len(f11) == n:
                f11.append(next(self._rows))
            if f11[n] is None:  # a row the block leaves to the scalar engine
                f11[n] = hyper_pfq([self.a], [self.b + n], self.x)
            yield c * f11[n].value
            c = c * (self.a + n) * t / ((self.b + n) * (n + 1.0))

    def coefficient(self, n: int) -> complex:
        return next(itertools.islice(self.scaled_coefficients(1.0), n, None))

    def node_values(self, tau):
        radius = float(np.max(np.abs(tau))) if getattr(tau, "size", 1) else 0.0
        count = sum_with_policy(map(abs, self.scaled_coefficients(radius)),
                                SeriesPolicy()).terms_used
        u = tau / radius if radius else tau
        out = np.zeros_like(tau, dtype=complex)
        for c in reversed(list(itertools.islice(self.scaled_coefficients(radius), count))):
            out = out * u + c
        return out

    def check_argument(self, t: complex):
        pass  # entire in t


class CustomGen(_Generator):
    """Arbitrary coefficient stream n -> c_n g_n(x); no closed node form."""

    def __init__(self, coefficient_fn: Callable[[int], complex]):
        self._fn = coefficient_fn

    def coefficient(self, n: int) -> complex:
        return complex(self._fn(n))

    def node_values(self, tau):
        raise DomainError("custom generators have no closed node form for quadrature")

    def check_argument(self, t: complex):
        pass


def factor_pairs(alphas: Sequence[float], xs: Sequence[float]) -> tuple:
    """The (a_i, x_i) pairs of prod_i (1 - x_i u)^(-a_i); the lists must match and
    be finite, each refused by its own name."""
    if len(alphas) != len(xs):
        raise DomainError(f"product factors need as many alphas as xs, got "
                          f"{len(alphas)} and {len(xs)}")
    for name, values in ("alphas", alphas), ("xs", xs):
        if not _finite(tuple(values)):
            raise DomainError(f"{name} must be finite, got {values!r}")
    return tuple(zip(alphas, xs))


def generating_integral_closed_form(gen, r: float, s: float, delta: float, omega: float,
                                    lam: float, p: complex, t: complex,
                                    product_factors: Sequence[tuple[float, float]] = (),
                                    policy: SeriesPolicy | None = None) -> SeriesResult:
    """Series value of the generating-function integral (raw, without 1/B).

    G is expanded term by term: term n is coefficient(n) t^n (the
    generator's scaled_coefficients) times B(a_n, b_n) times the normalized
    integral at a_n = r + delta n, b_n = s - r + omega n.  Without product
    factors that integral is the inner Wright row (a_n, b_n, a_n + b_n),
    tabulated a block of n at a time; with factors (a_i, x_i) it is the
    n-variable closed form at (a_n, b_n), whose binomial product is built
    once and shared by every n, summed a block of n at a time too.
    terms_used and tail_estimate cover the sum over n only; each inner sum
    stops by the policy itself, and its own truncation error is left out.
    """
    return generating_case("generating", gen, r, s, delta, omega, lam, p, t,
                           product_factors).closed_form(policy)


def reduce_lambda1(spec: WrightSpec, p: complex,
                   policy: SeriesPolicy | None = None) -> SeriesResult:
    """Collapse the lam = 1 inner Wright instance to a 2F2 at quarter argument.

    Accepts exactly the (1,1,1; 2,1)-patterned normalized instance with
    upper parameters (alpha, beta, 1) and lower (alpha+beta, 1); the value
    is 2F2(alpha, beta; (alpha+beta)/2, (alpha+beta+1)/2; p/4).
    """
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


def euler_case(name: str, spec: EulerIntegralSpec, closed: Callable | None = None,
               scale: Callable[[], float] | None = None) -> IdentityCase:
    """Validate spec and bind it to a series route, its family's unless closed
    is given, and to the direct-quadrature oracle, whose value is multiplied by
    scale() if given.  The bound route takes a policy or None and validates no more."""
    spec.validate()
    route = closed or functools.partial(spec.family.closed, spec)

    def oracle(qpolicy=None):
        raw = evaluate_integral_direct(spec, qpolicy)
        factor = 1.0 if scale is None else scale()
        if factor == 1.0:
            return raw
        return QuadratureResult(raw.value * factor, raw.err_estimate * abs(factor),
                                raw.evaluations)

    return IdentityCase(name, spec, lambda policy=None: route(policy or SeriesPolicy()), oracle)


def generating_case(name, gen, r, s, delta, omega, lam, p, t, factors=()) -> IdentityCase:
    """Bind a generating-function integral to its raw series (described at
    generating_integral_closed_form), which takes s itself since alpha + beta
    need not round back to it, and to its oracle, scaled back by B(r, s - r),
    which only the oracle forms, so a point out of the domain raises DomainError."""
    spec = generating_spec(gen, r, s, delta, omega, lam, p, t, factors)
    factors = spec.family.factors

    def closed(policy):
        table = _inner_table(lam, spec.p, policy)
        if factors:
            product = _binomial_product(*zip(*factors))
            inner = _row_values(lambda n: (r + delta * n, s - r + omega * n),
                                lambda a, b: _lauricella_rows(a, b, product, table),
                                lambda a, b: _lauricella_sum(a, b, product, table))
        else:
            inner = _in_blocks(functools.partial(
                _ladder_values, table, ((r, delta), (s - r, omega), (s, delta + omega))))
        terms = (w * beta_fn(r + delta * n, s - r + omega * n) * value
                 for n, (value, w) in enumerate(zip(inner, gen.scaled_coefficients(spec.family.t))))
        return sum_with_policy(terms, policy)

    return euler_case(name, spec, closed, functools.partial(beta_fn, r, s - r))


def evaluate_generating_integral_direct(
        gen, r: float, s: float, delta: float, omega: float, lam: float, p: complex,
        t: complex, product_factors: Sequence[tuple[float, float]] = (),
        qpolicy: QuadraturePolicy | None = None) -> QuadratureResult:
    """Direct quadrature of the generating-function integral (raw, without 1/B):
    u^(r-1) (1-u)^(s-r-1) G(t u^delta (1-u)^omega) prod_i (1-x_i u)^(-a_i)
    E_lam[p u (1-u)] over (0, 1), with G in the generator's closed node form."""
    return generating_case("generating", gen, r, s, delta, omega, lam, p, t,
                           product_factors).oracle(qpolicy)


def _case_4_1(p, alpha, alpha1, x1, lam):
    if not (abs(x1) < 1.0 and x1 < 0.5):
        raise DomainError("case 4.1 needs |x1| < 1 and x1 < 1/2 so |x2| < 1")
    # equal exponents and mirrored second argument
    return euler_case("ex4.1", t1_spec(alpha, alpha, alpha1, alpha1, x1, x1 / (x1 - 1.0), lam, p))


def _case_4_2(reduced, p, /, alpha, beta, alpha1, alpha2, x1, lam):
    if not abs(x1) < 1.0:
        raise DomainError("case 4.2 needs |x1| < 1")
    # combined exponent with constant 1/(1-x1) weight
    combined = alpha1 + alpha2
    scale = 1.0 / (1.0 - x1)
    spec = t1_spec(alpha, beta, combined, 0.0, x1, 0.0, lam, p)

    def closed(pol):
        if not reduced:
            return _scaled(spec.family.closed(spec, pol), scale)
        # Same single sum with the inner value routed through the
        # quarter-argument 2F2 reduction instead of the Wright engine, a block
        # of 2F2 rows at a time.
        coefficients = _coefficients(np.multiply, lambda m: (
            (alpha + m) * (combined + m) * x1 / ((alpha + beta + m) * (m + 1.0))))
        inner = _row_values(
            lambda m: ([alpha + m, beta], [0.5 * (alpha + beta + m),
                                           0.5 * (alpha + beta + m + 1.0)]),
            lambda num, den: _pfq_rows(num, den, p / 4.0, pol),
            lambda num, den: hyper_pfq(num, den, p / 4.0, pol))
        return sum_with_policy((scale * c * value for c, value in zip(coefficients, inner)), pol)

    return euler_case("ex4.2-2f2" if reduced else "ex4.2", spec, closed, lambda: scale)


_APPLICATION_CASES = {
    "4.1": _case_4_1,
    "4.2": functools.partial(_case_4_2, False),
    # case 4.2 at lam = 1 with its inner value by the 2F2 reduction
    "4.2-2f2": lambda p, **params: _case_4_2(True, p, lam=1.0, **params),
    # linear weight specialized to (1 - x1 t)^(-alpha1)
    "4.3": lambda p, alpha, beta, alpha1, x1, lam: euler_case(
        "ex4.3", t3_spec(alpha, beta, -alpha1, 0.0, 1.0, -x1, 1.0, lam, p)),
    # flat weight: value is the inner series over (b - a)
    "4.4": lambda p, alpha, beta, a, b, lam: euler_case(
        "ex4.4", t4_spec(alpha, beta, a, b, 0.0, 0.0, lam, p)),
    # symmetric exponents on (0, 1)
    "4.5": lambda p, alpha, nu, mu, lam: euler_case(
        "ex4.5", t4_spec(alpha, alpha, 0.0, 1.0, nu, mu, lam, p)),
}


def application_case(case_id, p: complex, **params) -> IdentityCase:
    """Build one of the specialized scenario cases 4.1 .. 4.5.

    Each case binds a fully-validated integral spec to the series route the
    specialization dictates, ready for dual evaluation; its parameters are
    the keyword arguments of its builder, so a missing one raises TypeError.
    """
    build = _APPLICATION_CASES.get(str(case_id))
    if build is None:
        raise DomainError(f"unknown application case {case_id!r}")
    return build(complex(p), **params)
