"""Inner Wright row tables against the scalar engine, and the log-gamma kernel
against a 30-digit reference."""

import math
import random

import numpy as np
import pytest

import wrightlab.identities
from wrightlab import (
    CancellationError,
    DivergenceError,
    DomainError,
    MaxTermsError,
    PoleError,
    SeriesPolicy,
    WrightLabError,
    WrightSpec,
    closed_form_theorem1,
    wright_psi,
    wright_psi_normalized,
)
from wrightlab.identities import _binomial_product, _InnerTable, _lauricella_sum
from wrightlab.scalars import beta_fn, log_gamma_signed
from wrightlab.series import BLOCK, _in_blocks

from test_series import POLICIES

LAMBDAS = (0.0, 0.5, 1.0, 2.3)


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def scalar_row(a, b, c, lam, p, raw=False, policy=None):
    spec = WrightSpec(((a, 1.0), (b, 1.0), (1.0, 1.0)), ((c, 2.0), (1.0, lam)))
    return (wright_psi if raw else wright_psi_normalized)(spec, p, policy)


def draw_p(rng, kind, lam):
    # lam = 0 is the geometric-type series (p/4)^k, convergent for |p| < 4
    radius = 3.0 if lam == 0.0 else 1.5
    if kind == "zero":
        return 0.0j
    if kind == "real":
        return complex(rng.uniform(-radius, radius))
    return complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius)) / math.sqrt(2.0)


@pytest.mark.parametrize("raw", [False, True], ids=["normalized", "raw"])
@pytest.mark.parametrize("kind", ["real", "complex", "zero"])
@pytest.mark.parametrize("lam", LAMBDAS)
def test_rows_match_scalar_engine(lam, kind, raw):
    # Rows shaped as the closed forms build them: c = a + b.  The raw series
    # is B(a, b) times the normalized row, as the generating form takes it.
    # A row the table does not settle has its value from the scalar engine.
    rng = random.Random(f"{lam}/{kind}/{raw}")
    policy = SeriesPolicy()
    for _ in range(6):
        p = draw_p(rng, kind, lam)
        a = [rng.uniform(0.3, 20.0) for _ in range(10)]
        b = [rng.uniform(0.3, 3.0) for _ in range(10)]
        c = [x + y for x, y in zip(a, b)]
        table = _InnerTable(lam, p, policy)
        value, terms, tail, ok = table.rows(a, b, c)
        values = list(table.values(a, b, c))
        assert len(values) == len(value) == len(a)
        for i, (x, y, z) in enumerate(zip(a, b, c)):
            scale = beta_fn(x, y) if raw else 1.0
            ref = scalar_row(x, y, z, lam, p, raw)
            assert rel(scale * values[i], ref.value) <= 1e-14
            if ok[i]:
                assert values[i] == value[i]
                assert terms[i] == ref.terms_used
                assert scale * tail[i] == pytest.approx(ref.tail_estimate, rel=1e-12,
                                                        abs=1e-300)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("policy", POLICIES, ids=repr)
def test_rows_settle_where_the_scalar_engine_stops(policy, kind):
    # Under every policy of the stopping-rule tests, a term budget below
    # consecutive_small among them, a row is settled exactly where the scalar
    # engine stops within BLOCK terms, after as many terms.  The larger p make
    # rows that stop after 25 to 48 terms, and past 48.
    rng = random.Random(f"{policy}/{kind}")
    for lam, scale in [(0.0, 1.0)] + [(lam, s) for lam in LAMBDAS[1:] for s in (1.0, 4.0, 10.0)]:
        p = scale * draw_p(rng, kind, lam)
        a = [rng.uniform(0.3, 20.0) for _ in range(12)]
        b = [rng.uniform(0.3, 3.0) for _ in range(12)]
        c = [x + y for x, y in zip(a, b)]
        value, terms, _, ok = _InnerTable(lam, p, policy).rows(a, b, c)
        for i, row in enumerate(zip(a, b, c)):
            try:
                ref = scalar_row(*row, lam, p, policy=policy)
            except WrightLabError:
                ref = None
            assert ok[i] == (ref is not None and ref.terms_used <= BLOCK), (row, lam, p)
            if ok[i]:
                assert terms[i] == ref.terms_used
                assert rel(value[i], ref.value) <= 1e-13

@pytest.mark.parametrize("p", [0.8, -0.8, 0.5 + 0.5j, 0.0])
def test_ladder_crosses_block_boundaries(p):
    # rows d = 0, 1, ... drawn a block of d at a time, as the closed forms draw them
    table = _InnerTable(1.0, p, SeriesPolicy())
    d = np.arange(110.0)
    _, terms, _, ok = table.rows(1.2 + d, 0.8, 2.0 + d)
    ladder = _in_blocks(lambda start, count: table.values(1.2 + d[start:count], 0.8,
                                                          2.0 + d[start:count]))
    assert ok.all()
    for k in range(110):
        ref = scalar_row(1.2 + k, 0.8, 2.0 + k, 1.0, p)
        assert rel(next(ladder), ref.value) <= 1e-14
        assert terms[k] == ref.terms_used


def test_rows_with_nonpositive_parameters_use_the_scalar_engine():
    # The pole row raises only when reached, not when the block is tabulated.
    table = _InnerTable(0.5, 0.7, SeriesPolicy())
    params = [1.2, -0.5, -1.0], [0.8, 0.8, 0.8], [2.0, 0.3, 2.0]
    assert table.rows(*params)[3].tolist() == [True, False, False]
    rows = iter(table.values(*params))
    assert rel(next(rows), scalar_row(1.2, 0.8, 2.0, 0.5, 0.7).value) <= 1e-14
    assert next(rows) == scalar_row(-0.5, 0.8, 0.3, 0.5, 0.7).value  # the scalar engine's own
    with pytest.raises(PoleError):
        next(rows)


def test_lambda_zero_outside_the_disc_still_diverges():
    rows = iter(_InnerTable(0.0, 4.5, SeriesPolicy()).values([1.2], [0.8], [2.0]))
    with pytest.raises(DivergenceError):
        next(rows)
    with pytest.raises(DivergenceError):
        _lauricella_sum(1.2, 0.8, _binomial_product((0.5, 0.9), (0.3, -0.25)),
                        _InnerTable(0.0, 4.5, SeriesPolicy()))
    # the spec's lam = 0 gate refuses the point before any series runs
    with pytest.raises(DomainError):
        closed_form_theorem1(1.2, 0.8, 0.5, 0.9, 0.3, -0.25, 0.0, 4.5)


def test_row_lost_to_cancellation_raises_when_reached(monkeypatch):
    # At lam = 2, p = -800 the row (1, 1, 2) stops after 34 terms, but its
    # sum |t_k| is 1e6 times |S|; the row (1, 1, 30) above it is well conditioned.
    def first_two():
        rows = iter(_InnerTable(2.0, -800.0, SeriesPolicy()).values([1.0, 1.0], [1.0, 1.0],
                                                                    [30.0, 2.0]))
        return next(rows), rows

    good, rows = first_two()
    assert rel(good, scalar_row(1.0, 1.0, 30.0, 2.0, -800.0).value) <= 1e-14
    with pytest.raises(CancellationError):
        next(rows)
    # without the limit the table itself would have accepted the row
    monkeypatch.setattr(wrightlab.identities, "CANCELLATION_LIMIT", math.inf)
    _, terms, _, ok = _InnerTable(2.0, -800.0, SeriesPolicy()).rows([1.0], [1.0], [2.0])
    assert ok.all() and terms[0] < BLOCK


def test_term_budget_still_caps_every_row(monkeypatch):
    monkeypatch.setenv("WRIGHTLAB_MAX_TERMS", "5")
    policy = SeriesPolicy.from_env()
    rows = iter(_InnerTable(1.0, 0.8, policy).values([1.2], [0.8], [2.0]))
    with pytest.raises(MaxTermsError):
        next(rows)
    with pytest.raises(MaxTermsError):
        closed_form_theorem1(1.2, 0.8, 0.5, 0.9, 0.0, 0.0, 1.0, 0.8, policy)


def test_log_gamma_against_mpmath():
    mp = pytest.importorskip("mpmath")
    rng = random.Random(7)
    xs = [rng.uniform(-20.0, 60.0) for _ in range(3000)]
    xs += [k + 0.5 for k in range(-20, 60)] + [1e-3, -1e-3, 1.0, 2.0, -19.999]
    with mp.workdps(30):
        for x in xs:
            value, sign = log_gamma_signed(x)
            exact = mp.gamma(mp.mpf(x))
            reference = mp.log(abs(exact))
            # absolute error of ln|Gamma| is the relative error of Gamma itself
            assert abs(value - reference) <= 4e-15 * max(1.0, abs(reference)), x
            assert sign == (1 if exact > 0 else -1), x
