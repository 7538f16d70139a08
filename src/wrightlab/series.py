"""Truncated series engine: Wright functions, pFq and Mittag-Leffler.

All summation follows one explicit policy: ascending term index, a
consecutive-small-terms stopping rule, a term budget, a divergence guard
and a cancellation check; identical inputs consume identical term counts.
Wright terms are assembled in log space from signed log-gamma products.
pFq terms, and the coefficients of every multiple series and outer sum,
are running products of one-step ratios, built a block of indices at a
time (_coefficients, from _running, _product and _poch_power).  A block of
rows, the inner sums of a nested series, stops by one array step of the
same rule (_settle), for the inner Wright table of identities and for
_row_sums (_pfq_rows, _row_values), whose values are the scalar sums bit
for bit; a row the block cannot settle goes to the scalar engine.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import CancellationError, DivergenceError, DomainError, MaxTermsError, PoleError
from .scalars import _is_nonpositive_integer, log_gamma_signed

__all__ = [
    "SeriesPolicy",
    "WrightSpec",
    "SeriesResult",
    "sum_with_policy",
    "wright_psi",
    "wright_psi_normalized",
    "hyper_pfq",
    "mittag_leffler",
]

MAX_TERMS_ENV = "WRIGHTLAB_MAX_TERMS"

# A sum S of terms t_k carries a rounding error of about eps * sum |t_k|; an
# accepted sum with sum |t_k| / |S| past this limit (error 1e-10 |S|) raises
# CancellationError (Higham, Accuracy and Stability of Numerical Algorithms, ch. 4).
CANCELLATION_LIMIT = 1e-10 / sys.float_info.epsilon


@dataclass(frozen=True)
class SeriesPolicy:
    """Truncation policy shared by every series in the package.

    A partial sum is accepted once `consecutive_small` successive terms
    satisfy |term| <= rel_tol*|partial| + abs_tol.  A term exceeding
    divergence_growth_limit times the running peak of |partial sums| past
    index 50 aborts the summation as divergent.
    """

    rel_tol: float = 1e-14
    abs_tol: float = 1e-300
    consecutive_small: int = 3
    max_terms: int = 20000
    divergence_growth_limit: float = 1e8

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be positive")
        if self.abs_tol < 0.0:
            raise ValueError("abs_tol must be nonnegative")
        if self.consecutive_small < 1:
            raise ValueError("consecutive_small must be >= 1")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")

    @classmethod
    def from_env(cls, **overrides) -> "SeriesPolicy":
        """Default policy, with max_terms taken from WRIGHTLAB_MAX_TERMS if set."""
        raw = os.environ.get(MAX_TERMS_ENV)
        if raw is not None and "max_terms" not in overrides:
            try:
                overrides["max_terms"] = int(raw)
            except ValueError as exc:
                raise ValueError(f"{MAX_TERMS_ENV} must be an integer, got {raw!r}") from exc
        return cls(**overrides)


@dataclass(frozen=True)
class SeriesResult:
    """Value of a truncated series plus how it was truncated.

    tail_estimate is the last accepted term times the consecutive-small
    count: a cheap bound for geometrically decaying tails, reported rather
    than trusted.
    """

    value: complex
    terms_used: int
    tail_estimate: float


@dataclass(frozen=True)
class WrightSpec:
    """Parameter pairs (a_j, A_j) / (b_j, B_j) of a Wright series.

    Upper weights must be positive.  Lower weights may be zero (a constant
    gamma factor, as in the Mittag-Leffler weight at lambda = 0) but not
    negative.  The convergence margin 1 + sum(B_j) - sum(A_j) must be
    nonnegative; the margin-zero boundary is admitted and divergence is
    then detected operationally during summation.
    """

    upper: tuple[tuple[float, float], ...]
    lower: tuple[tuple[float, float], ...]

    def __init__(self, upper: Iterable[Sequence[float]], lower: Iterable[Sequence[float]]):
        up = tuple((float(a), float(wa)) for a, wa in upper)
        lo = tuple((float(b), float(wb)) for b, wb in lower)
        for _, wa in up:
            if not wa > 0.0:
                raise DomainError(f"upper weight must be positive, got {wa!r}")
        for _, wb in lo:
            if wb < 0.0:
                raise DomainError(f"lower weight must be nonnegative, got {wb!r}")
        margin = 1.0 + sum(w for _, w in lo) - sum(w for _, w in up)
        if margin < 0.0:
            raise DomainError(f"convergence margin 1 + sum(B) - sum(A) = {margin!r} is negative")
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "lower", lo)

    @property
    def margin(self) -> float:
        return 1.0 + sum(w for _, w in self.lower) - sum(w for _, w in self.upper)


def sum_with_policy(terms: Iterator[complex], policy: SeriesPolicy | None = None) -> SeriesResult:
    """Sum successive terms under the stopping and divergence rules of policy
    (default if None), which read the plain running sum; the value is the
    math.fsum of the accepted terms.  The iterator is drawn at most
    policy.max_terms times; exhausting the budget without meeting the stopping
    rule raises MaxTermsError, and a sum emptied by cancellation CancellationError.
    """
    policy = policy or SeriesPolicy()
    rel = policy.rel_tol
    atol = policy.abs_tol
    need = policy.consecutive_small
    limit = policy.divergence_growth_limit
    reals, imags = [], []
    partial = 0.0j
    peak = 0.0
    abs_sum = 0.0
    consecutive = 0
    k = -1
    for k, term in enumerate(itertools.islice(terms, policy.max_terms)):
        # abs of a complex with finite parts raises where its modulus overflows
        try:
            mag = abs(term)
        except OverflowError:
            mag = math.inf
        if math.isinf(mag) or math.isnan(mag):
            raise DivergenceError(f"term {k} is non-finite")
        abs_sum += mag
        reals.append(term.real)
        imags.append(term.imag)
        partial += term
        try:
            ap = abs(partial)
        except OverflowError:
            ap = math.inf
        if math.isinf(ap) or math.isnan(ap):
            raise DivergenceError(f"partial sum is non-finite at term {k}")
        if ap > peak:
            peak = ap
        if k > 50 and mag > limit * max(peak, atol):
            raise DivergenceError(
                f"term {k} magnitude {mag:.3e} exceeds {limit:.1e} x running peak {peak:.3e}"
            )
        if mag <= rel * ap + atol:
            consecutive += 1
            if consecutive >= need:
                value = complex(math.fsum(reals), math.fsum(imags))
                ap = abs(value)
                if abs_sum > CANCELLATION_LIMIT * ap:
                    raise CancellationError(f"sum of |terms| {abs_sum:.3e} cancels to {ap:.3e}")
                return SeriesResult(value, k + 1, mag * need)
        else:
            consecutive = 0
    raise MaxTermsError(f"stopping rule unmet after {k + 1} terms")


# Coefficients built per block at first, doubled per block after; the rows of
# a nested inner sum, ROWS per block at first.
BLOCK, ROWS = 48, 24


def _settle(block: Callable, policy: SeriesPolicy, rows=slice(None), count: int = ROWS) -> tuple:
    """sum_with_policy's stop in each row of block(rows, count), the first count terms of
    the rows picked (index array or slice) as a (terms, rows) array: to ROWS terms, then to
    BLOCK (below index 50, where the divergence guard starts) for rows not stopped, within
    the term budget.  Per row: the plain partial sum, the stop k, |t_k| and sum |t| to k
    (non-finite after a non-finite term), and whether it stopped with every partial sum to k
    finite.  |t| and |partial| of complex terms are np.hypot, as abs() is; sums are sequential."""
    terms = block(rows, min(count, policy.max_terms))
    with np.errstate(over="ignore", invalid="ignore"):
        partial = np.cumsum(terms, axis=0)
        mag, modulus = (np.hypot(x.real, x.imag) if x.dtype.kind == "c" else np.abs(x)
                        for x in (terms, partial))
        small = mag <= policy.rel_tol * modulus + policy.abs_tol
        run = small.copy()  # run[k]: the need terms up to k are all small
        run[:policy.consecutive_small - 1] = False
        for shift in range(1, policy.consecutive_small):
            run[shift:] &= small[:-shift]
        stop = run.argmax(axis=0)
        index = np.arange(len(stop))
        found = run[stop, index]
        out = (partial[stop, index], stop, mag[stop, index], np.cumsum(mag, axis=0)[stop, index],
               found & np.logical_and.accumulate(np.isfinite(modulus), axis=0)[stop, index])
    if count < min(BLOCK, policy.max_terms) and not found.all():
        retry = np.flatnonzero(~found)
        for whole, part in zip(out, _settle(block, policy, retry, BLOCK)):
            whole[retry] = part
    return out


def _row_sums(terms: np.ndarray, policy: SeriesPolicy) -> Iterator:
    """sum_with_policy of each row of a (rows, terms) block, by _settle: row by row,
    the SeriesResult bit for bit, or None where that rule raises or needs a later term.
    A row's value is the fsum of its accepted terms, formed when the row is drawn."""
    _, stop, mag, abs_sum, settled = _settle(lambda rows, count: terms[rows, :count].T, policy)
    for row, k, tail, total, ok in zip(terms, *(x.tolist() for x in (stop, mag, abs_sum, settled))):
        if ok:
            try:  # fsum and abs raise OverflowError past the double range, as there
                value = complex(math.fsum(row[:k + 1].real.tolist()), math.fsum(
                    row[:k + 1].imag.tolist()) if terms.dtype.kind == "c" else 0.0)
                ok = total <= CANCELLATION_LIMIT * abs(value)
            except OverflowError:
                ok = False
        yield SeriesResult(value, k + 1, tail * policy.consecutive_small) if ok else None


def _row_values(params: Callable, rows: Callable, scalar: Callable) -> Iterator[complex]:
    """scalar(*params(n)).value for n = 0, 1, ..., a block of n at a time: rows(*params(n))
    gives the _row_sums of an array n, and a row left unsettled goes to scalar when
    reached, so that route raises every error where it does alone."""
    blocks = _in_blocks(lambda start, count: rows(*params(np.arange(start, count, 1.0))), ROWS)
    for n, row in enumerate(blocks):
        yield (row or scalar(*params(n))).value


def _poch_power(x: complex, params: Sequence[float], count: int) -> np.ndarray:
    """The first count coefficients (a_1)_m ... (a_k)_m x^m / m!, by one-step updates."""
    c = 1.0
    out = [c]
    for k in range(1, count):
        for a in params:
            c = c * (a + k - 1.0)
        c = c * x / k
        out.append(c)
    return np.array(out)


def _product(streams: Sequence[np.ndarray], count: int) -> np.ndarray:
    """The first count degree coefficients of the product of the coefficient arrays."""
    out = streams[0]
    for stream in streams[1:]:
        out = np.convolve(out, stream)[:count]
    return out


def _running(op: np.ufunc, steps: np.ndarray) -> np.ndarray:
    """1, 1 op s_0, (1 op s_0) op s_1, ...: a one-step *= or /= update, in order,
    along each row of 2-d steps."""
    if steps.ndim == 1:
        return op.accumulate(np.concatenate(([1.0], steps)))
    return op.accumulate(np.concatenate((np.ones((len(steps), 1)), steps), axis=1), axis=1)


def _in_blocks(block: Callable[[int, int], list], first: int = BLOCK) -> Iterator:
    """The items of block(start, count) for count = first, 2 first, 4 first, ...

    block(start, count) returns the items start .. count - 1 (a list, or the
    rows of _row_sums) with its numpy work done.  Items past the stopping
    degree are built but never used, so overflow and invalid values in that
    work stay silent; a used non-finite term is caught by sum_with_policy.
    """
    start, count = 0, first
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            items = block(start, count)
        yield from items
        start, count = count, 2 * count


def _coefficients(op: np.ufunc, step: Callable[[np.ndarray], np.ndarray],
                  streams: Sequence[tuple[complex, tuple]] = ()) -> Iterator:
    """R_d C_d for d = 0, 1, ...: R is the running op of step(d) (an outer
    Pochhammer ratio, or a pFq term), C_d the degree-d coefficient of the
    product of the (x, params) streams, or 1 without streams."""
    def block(start, count):
        ratio = _running(op, step(np.arange(count - 1.0)))
        if streams:
            ratio = ratio * _product([_poch_power(x, params, count) for x, params in streams],
                                     count)
        return ratio[start:].tolist()

    return _in_blocks(block)


class _Phase:
    """z^k split as exp(k ln|z|) times a unit phase updated multiplicatively, for
    the terms k = 0, 1, 2, ... of one series, in turn."""

    __slots__ = ("log_r", "unit", "current")

    def __init__(self, z: complex):
        r = abs(z)
        self.log_r = math.log(r) if r != 0.0 else None
        self.unit = z / r if r != 0.0 else 0.0j
        self.current = 1.0 + 0.0j

    def term(self, k: int, log_mag: float, sign: int) -> complex:
        if k == 0:
            return sign * math.exp(log_mag)
        if self.log_r is None:
            return 0.0 + 0.0j
        self.current *= self.unit  # unit^k
        try:
            mag = math.exp(log_mag + k * self.log_r)
        except OverflowError:
            mag = math.inf
        return sign * mag * self.current


def _wright_terms(spec: WrightSpec, z: complex, normalized: bool) -> Iterator[complex]:
    upper = spec.upper
    lower = spec.lower
    shift = 0.0
    shift_sign = 1
    if normalized:
        # Per-term division by the k=0 gamma products, done on the log scale.
        for side, params, sense in (("upper", upper, -1.0), ("lower", lower, 1.0)):
            for x, _ in params:
                if _is_nonpositive_integer(x):
                    raise PoleError(f"normalizing gamma pole at {side} parameter {x!r}")
                lg, sg = log_gamma_signed(x)
                shift += sense * lg
                shift_sign *= sg
    phase = _Phase(complex(z))
    lgam = log_gamma_signed
    for k in itertools.count():
        log_mag, _ = lgam(k + 1.0)
        log_mag = -log_mag
        sign = shift_sign
        for a, wa in upper:
            lg, sg = lgam(a + wa * k)
            log_mag += lg
            sign *= sg
        for b, wb in lower:
            lg, sg = lgam(b + wb * k)
            log_mag -= lg
            sign *= sg
        if normalized:
            log_mag += shift
        yield phase.term(k, log_mag, sign)


def wright_psi(spec: WrightSpec, z: complex, policy: SeriesPolicy | None = None) -> SeriesResult:
    """Wright series sum_k prod Gamma(a_j + A_j k) / prod Gamma(b_j + B_j k) z^k / k!.

    Gamma poles hit by a parameter ladder raise PoleError at the offending
    term index.
    """
    return sum_with_policy(_wright_terms(spec, z, False), policy)


def wright_psi_normalized(spec: WrightSpec, z: complex,
                          policy: SeriesPolicy | None = None) -> SeriesResult:
    """Wright series with every gamma factor divided by its k=0 value.

    The normalization happens inside each term on the log scale, so the
    value at z = 0 is 1 without ever forming two large numbers.
    """
    return sum_with_policy(_wright_terms(spec, z, True), policy)


def hyper_pfq(num: Sequence[float], den: Sequence[float], z: complex,
              policy: SeriesPolicy | None = None) -> SeriesResult:
    """Generalized hypergeometric sum, each term the last times its one-step ratio.

    Denominator parameters at nonpositive integers are rejected eagerly;
    nonpositive-integer numerator parameters terminate the series exactly.
    """
    for b in den:
        if _is_nonpositive_integer(b):
            raise PoleError(f"denominator parameter {b!r} is a nonpositive integer")
    return sum_with_policy(_coefficients(np.multiply, lambda k: _pfq_ratio(num, den, z, k)),
                           policy)


def _pfq_ratio(num, den, z, k):
    """t_{k+1} / t_k, one combined ratio so no partial product can overflow."""
    r = z / (k + 1.0)
    for a in num:
        r = r * (a + k)
    for b in den:
        r = r / (b + k)
    return r


def _pfq_rows(num: Sequence, den: Sequence, z: complex, policy: SeriesPolicy) -> Iterator:
    """hyper_pfq of parameter rows, each parameter a scalar or a (rows,) array: the
    _row_sums of the same steps, None also for a row with a pole (hyper_pfq's PoleError)."""
    num, den = ([np.reshape(x, (-1, 1)) for x in params] for params in (num, den))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        terms = _running(np.multiply, _pfq_ratio(num, den, z, np.arange(BLOCK - 1.0)))
    pole = sum((b <= 0.0) & (b == np.floor(b)) for b in den)
    return _row_sums(np.where(pole, np.nan, terms), policy)


def mittag_leffler(lam: float, z: complex, policy: SeriesPolicy | None = None) -> SeriesResult:
    """Mittag-Leffler sum_n z^n / Gamma(lam*n + 1), the Wright series ((1, 1); (1, lam)).

    lam >= 0 and finite; lam = 0 reduces to the geometric series, so |z| < 1 is required there.
    """
    if not 0.0 <= lam < math.inf:
        raise DomainError(f"mittag_leffler weight must be finite and >= 0, got {lam!r}")
    if lam == 0.0 and abs(z) >= 1.0:
        raise DomainError(f"mittag_leffler(0, z) needs |z| < 1, got |z| = {abs(z)!r}")
    return wright_psi(WrightSpec(((1.0, 1.0),), ((1.0, lam),)), z, policy)
