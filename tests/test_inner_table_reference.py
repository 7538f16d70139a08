"""The inner-row table as (terms, rows) arrays against the per-row table it
replaced.

The references below are the former table, which tabulated a block of rows
with 48 columns each and yielded one SeriesResult per row along a ladder of
48-row blocks, and the former outer sums that zipped that ladder with their
coefficient streams.  The array table keeps the same log-space arithmetic
and the same order of every sum, so every closed form built on it must
return the same SeriesResult, bit for bit.  The closed forms sum in the
orientation t or 1 - t that _pfaff picks, so the references take their
inputs through _pfaff too and scale the sum as the route does.
"""

import itertools
import math

import numpy as np
import pytest

from wrightlab import (
    BinomialGen,
    GegenbauerGen,
    MaxTermsError,
    SeriesPolicy,
    SeriesResult,
    WrightSpec,
    beta_fn,
    closed_form_lauricella,
    closed_form_theorem1,
    closed_form_theorem3,
    generating_integral_closed_form,
    wright_psi_normalized,
)
from wrightlab.identities import _InnerTable, _pfaff
from wrightlab.series import BLOCK, CANCELLATION_LIMIT, _coefficients, sum_with_policy

_ROW_TERMS = 48


class _RowTable:
    """Reference: the former inner table, one SeriesResult per row."""

    def __init__(self, lam, p, policy):
        self.lam = lam
        self.p = p
        self.policy = policy
        terms = min(_ROW_TERMS, policy.max_terms)
        self._j = np.arange(terms - 1.0)
        self._column = np.array([-math.lgamma(1.0 + lam * k) for k in range(terms)])
        radius = abs(p)
        unit = p / radius if radius != 0.0 else 0.0j
        if unit.imag == 0.0:
            unit = unit.real
        self._phase = np.ones(terms, dtype=type(unit))
        if radius != 0.0:
            self._column += np.arange(terms) * math.log(radius)
            self._phase[1:] = np.cumprod(np.full(terms - 1, unit))
        else:
            self._column[1:] = -math.inf

    def rows(self, a, b, c):
        params = np.array(np.broadcast_arrays(a, b, c), dtype=float)
        good = (params > 0.0).all(axis=0)
        sa, sb, sc = np.where(good, params, 1.0)[:, :, None]
        j = self._j
        log_term = np.zeros((len(good), len(j) + 1))
        policy = self.policy
        need = policy.consecutive_small
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            np.cumsum(np.log((sa + j) * (sb + j) / ((sc + 2.0 * j) * (sc + (2.0 * j + 1.0)))),
                      axis=1, out=log_term[:, 1:])
            log_term += self._column
            term = np.exp(log_term) * self._phase
            partial = np.cumsum(term, axis=1)
            mag = np.abs(term)
            small = np.cumsum(mag <= policy.rel_tol * np.abs(partial) + policy.abs_tol, axis=1)
            abs_sum = np.cumsum(mag, axis=1)
        small[:, need:] -= small[:, :-need]
        stop = (small >= need).argmax(axis=1)
        index = np.arange(len(good))
        value = partial[index, stop].astype(complex)
        good &= (small[index, stop] >= need) & np.isfinite(value)
        good &= abs_sum[index, stop] <= CANCELLATION_LIMIT * np.abs(value)
        # the tail takes |t| as the scalar rule does: abs() of the term
        tails = [need * abs(t) for t in term[index, stop].tolist()]
        for i, (v, k) in enumerate(zip(value.tolist(), stop.tolist())):
            if good[i]:
                yield SeriesResult(v, k + 1, tails[i])
            else:
                a, b, c = params[:, i]
                spec = WrightSpec(((a, 1.0), (b, 1.0), (1.0, 1.0)), ((c, 2.0), (1.0, self.lam)))
                yield wright_psi_normalized(spec, self.p, policy)

    def ladder(self, start, step):
        for first in itertools.count(0, BLOCK):
            d = np.arange(first, first + BLOCK, dtype=float)
            yield from self.rows(*(x + dx * d for x, dx in zip(start, step)))


def _binomial_stream(alphas, xs):
    return _coefficients(np.multiply, np.ones_like, [(xi, (ai,)) for ai, xi in zip(alphas, xs)])


def _lauricella_by_rows(alpha, beta, product, table):
    """Reference: the former outer sum, one Python product per degree."""
    ratio = _coefficients(np.multiply, lambda d: (alpha + d) / (alpha + beta + d))
    inner = table.ladder((alpha, beta, alpha + beta), (1.0, 0.0, 1.0))
    return sum_with_policy((r * c * row.value for r, c, row in zip(ratio, product, inner)),
                           table.policy)


def _oriented_reference(alpha, beta, alphas, xs, lam, p, policy, prefactor=1.0):
    _, scale, alpha, beta, xs = _pfaff(alpha, beta, tuple(alphas), tuple(xs), (False,) * len(xs))
    inner = _lauricella_by_rows(alpha, beta, _binomial_stream(alphas, xs),
                                _RowTable(lam, complex(p), policy))
    factor = scale * prefactor
    return SeriesResult(factor * inner.value, inner.terms_used, abs(factor) * inner.tail_estimate)


def lauricella_reference(alpha, beta, alphas, xs, lam, p, policy=None):
    return _oriented_reference(alpha, beta, alphas, xs, lam, p, policy or SeriesPolicy())


def theorem3_reference(alpha, beta, gamma, a, b, u, v, lam, p):
    auv = a * u + v
    width = b - a
    return _oriented_reference(alpha, beta, (-gamma,), (-u * width / auv,), lam,
                               complex(p) * width * width, SeriesPolicy(),
                               auv ** gamma * width ** (alpha + beta - 1.0))


def generating_reference(gen, r, s, delta, omega, lam, p, t, factors=()):
    """Reference: the former generating-integral sum, one SeriesResult per generator term."""
    policy = SeriesPolicy()
    t = complex(t)
    table = _RowTable(lam, complex(p), policy)
    if factors:
        product, = itertools.tee(_binomial_stream(*zip(*factors)), 1)
        inner = (_lauricella_by_rows(r + delta * n, s - r + omega * n, product.__copy__(), table)
                 for n in itertools.count())
    else:
        inner = table.ladder((r, s - r, s), (delta, omega, delta + omega))

    def terms():
        tn = 1.0 + 0.0j
        for n, row in enumerate(inner):
            yield gen.coefficient(n) * tn * beta_fn(r + delta * n, s - r + omega * n) * row.value
            tn *= t

    return sum_with_policy(terms(), policy)


def draw_p(rng, lam):
    if lam == 0.0:  # the lam = 0 gate needs |p|/4 < 1
        return float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.9))
    if rng.random() < 0.5:
        return float(rng.uniform(-3.0, 3.0))
    return complex(*rng.uniform(-2.0, 2.0, 2))


LAMBDAS = [0.0, 0.3, 0.5, 1.0, 1.7, 2.0]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lauricella_sums_are_unchanged(n):
    # n = 2 is theorem 1; every other n the n-variable form
    rng = np.random.default_rng(40 + n)
    for _ in range(30):
        alpha, beta = (float(v) for v in rng.uniform(0.3, 3.0, 2))
        alphas = [float(v) for v in rng.uniform(-1.0, 1.5, n)]
        xs = [float(v) for v in rng.uniform(-0.9, 0.9, n)]
        lam = float(rng.choice(LAMBDAS))
        p = draw_p(rng, lam)
        reference = lauricella_reference(alpha, beta, alphas, xs, lam, p)
        if n == 2:
            got = closed_form_theorem1(alpha, beta, *alphas, *xs, lam, p)
        else:
            got = closed_form_lauricella(alpha, beta, alphas, xs, lam, p)
        assert got == reference, (alpha, beta, alphas, xs, lam, p)


def test_theorem3_is_unchanged():
    rng = np.random.default_rng(47)
    for _ in range(40):
        alpha, beta = (float(v) for v in rng.uniform(0.3, 3.0, 2))
        gamma = float(rng.choice([rng.uniform(-2.0, 2.0), 2.0]))
        a = float(rng.uniform(-1.0, 0.5))
        b = a + float(rng.uniform(0.3, 2.0))
        u = float(rng.uniform(-0.5, 0.5)) / (b - a)
        v = float(rng.uniform(0.5, 2.0)) + abs(u) * max(abs(a), abs(b))
        lam = float(rng.choice(LAMBDAS[1:]))
        p = draw_p(rng, lam)
        args = (alpha, beta, gamma, a, b, u, v, lam, p)
        assert closed_form_theorem3(*args) == theorem3_reference(*args), args


@pytest.mark.parametrize("factors", [0, 1, 3], ids=["no-factors", "1-factor", "3-factors"])
@pytest.mark.parametrize("make", [BinomialGen, GegenbauerGen], ids=["binomial", "gegenbauer"])
def test_generating_integrals_are_unchanged(make, factors):
    rng = np.random.default_rng(50 + factors)
    for _ in range(8):
        a = float(rng.uniform(0.2, 1.5))
        fs = tuple((float(rng.uniform(-1.0, 1.5)), float(rng.uniform(-0.8, 0.8)))
                   for _ in range(factors))
        r = float(rng.uniform(0.3, 2.0))
        s = r + float(rng.uniform(0.3, 2.0))
        delta, omega = (float(v) for v in rng.choice([0.0, 0.5, 1.0, 2.0], 2))
        if delta + omega == 0.0:
            delta = 1.0
        lam = float(rng.choice(LAMBDAS[1:]))
        p = draw_p(rng, lam)
        t = complex(*rng.uniform(-0.5, 0.5, 2)) if rng.random() < 0.5 else float(
            rng.uniform(-0.7, 0.7))
        args = (r, s, delta, omega, lam, p, t, fs)
        assert generating_integral_closed_form(make(a, 0.6), *args) == generating_reference(
            make(a, 0.6), *args), (a, *args)


@pytest.mark.parametrize("lam, p", [(0.5, -3.0), (1.0, -8.0), (0.3, -2.0 + 2.0j)])
def test_rows_needing_25_to_48_columns_are_unchanged(lam, p):
    # Here the rows of small a stop after 25-48 terms, so they are tabulated
    # twice; the rows of large a stop within 24.  Value, terms used and the
    # settled flag are the former table's; the tail is the reference's
    # abs() of the same term, where np.abs of a complex can differ in the last bit.
    table, reference = _InnerTable(lam, p, SeriesPolicy()), _RowTable(lam, p, SeriesPolicy())
    a = np.linspace(0.3, 40.0, 60)
    b = np.linspace(2.5, 0.4, 60)
    value, terms, tail, ok = table.rows(a, b, a + b)
    want = list(reference.rows(a, b, a + b))
    assert any(24 < r.terms_used <= 48 for r in want) and any(r.terms_used <= 24 for r in want)
    assert ok.all()
    assert [SeriesResult(*row) for row in zip(value.tolist(), terms.tolist(),
                                               tail.tolist())] == want
    assert closed_form_theorem1(0.4, 2.5, 0.6, -0.3, 0.5, -0.7, lam, p) == \
        lauricella_reference(0.4, 2.5, [0.6, -0.3], [0.5, -0.7], lam, p)


def test_lambda_zero_rows_reach_the_scalar_engine():
    # near the lam = 0 gate every row needs about 200 terms, more than the table holds
    table = _InnerTable(0.0, 3.7, SeriesPolicy())
    assert not table.rows([1.2, 2.0], [0.8, 0.5], [2.0, 2.5])[3].any()
    for args in [(1.2, 0.8, [0.5, 0.9], [0.3, -0.25], 0.0, 3.7),
                 (0.7, 1.9, [1.3], [-0.6], 0.0, -3.5)]:
        alpha, beta, alphas, xs, lam, p = args
        assert closed_form_lauricella(alpha, beta, alphas, xs, lam, p) == \
            lauricella_reference(*args)


@pytest.mark.parametrize("x, degrees", [(0.6, (48, 96)), (0.8, (96, 192)),
                                        (0.93, (192, 384))])
def test_outer_sums_across_block_edges(x, degrees):
    low, high = degrees
    for lam, p in [(1.0, 0.8), (0.5, -1.5 + 0.5j), (2.0, 2.5)]:
        args = (1.3, 0.7, [0.9, 0.4], [x, -0.5 * x], lam, p)
        got = closed_form_theorem1(1.3, 0.7, 0.9, 0.4, x, -0.5 * x, lam, p)
        assert low < got.terms_used <= high, got.terms_used
        assert got == lauricella_reference(*args)


@pytest.mark.parametrize("policy", [SeriesPolicy(rel_tol=1e-8), SeriesPolicy(consecutive_small=30),
                                    SeriesPolicy(max_terms=30), SeriesPolicy(max_terms=10)],
                         ids=["rel_tol", "consecutive_small", "max_terms-30", "max_terms-10"])
def test_other_policies_are_unchanged(policy):
    # Tables narrower than 24 or 48 columns, and a stopping rule that needs
    # more than 24 terms; a budget the sum exhausts raises the same error.
    rng = np.random.default_rng(60)
    for _ in range(10):
        alpha, beta = (float(v) for v in rng.uniform(0.3, 3.0, 2))
        alphas = [float(v) for v in rng.uniform(-1.0, 1.5, 2)]
        xs = [float(v) for v in rng.uniform(-0.5, 0.5, 2)]
        lam = float(rng.choice(LAMBDAS[1:]))
        p = draw_p(rng, lam)
        outcomes = []
        for route in (lambda: closed_form_lauricella(alpha, beta, alphas, xs, lam, p, policy),
                      lambda: lauricella_reference(alpha, beta, alphas, xs, lam, p, policy)):
            try:
                outcomes.append(route())
            except MaxTermsError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], (alpha, beta, alphas, xs, lam, p)
