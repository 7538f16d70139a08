"""Reuse of inner tables, ladder row blocks and binomial products across
closed-form calls: a cold and a warm cache give the same results bit for
bit, cached arrays are read-only and the caches bounded, unsettled rows
raise on every call, and neither threads nor the order of the records see
any cache state."""

import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import pytest

from wrightlab import (
    BinomialGen,
    CancellationError,
    DivergenceError,
    SeriesPolicy,
    application_case,
    closed_form_lauricella,
    closed_form_theorem1,
    closed_form_theorem3,
    generating_integral_closed_form,
)
from wrightlab.catalog import family_names, iter_default_points
from wrightlab.identities import (
    _KEPT,
    _binomial_product,
    _inner_table,
    _kept_product,
    _ladder_rows,
    _lauricella_sum,
)
from wrightlab.verify import GridConfig, evaluate_point

CACHES = (_inner_table, _ladder_rows, _kept_product)


def clear():
    for cache in CACHES:
        cache.cache_clear()


def bits(result):
    """A SeriesResult with its floats in hex, so that -0.0 and 0.0 differ."""
    value = complex(result.value)
    return (value.real.hex(), value.imag.hex(), result.terms_used,
            float(result.tail_estimate).hex())


def _signed(x):
    """x, and 0.0 and -0.0 in its place."""
    return (x, 0.0, -0.0)


def _ps(rng):
    re, im = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
    return (complex(re, im), re, complex(0.0, im), complex(-0.0, im), complex(re, -0.0),
            0.0, -0.0, complex(0.0, -0.0))


def _points(group):
    """Seeded closed-form calls of one group, each a function of no arguments,
    with 0.0 and -0.0 in p, x_i, delta and omega."""
    rng = random.Random(f"inner-cache/{group}")
    u = rng.uniform
    calls = []
    for _ in range(2):
        alpha, beta, lam = u(0.4, 2.2), u(0.4, 2.2), rng.choice((0.5, 1.0, 2.3))
        a1, a2, x2, w, gamma = u(0.2, 1.4), u(0.2, 1.4), u(-0.6, 0.6), u(-0.5, 0.5), u(-1.4, 2.0)
        r = u(0.4, 1.5)
        s, t, omega = r + u(0.4, 1.5), u(-0.6, 0.6), u(0.1, 1.5)
        for p in _ps(rng):
            if group == "theorem1":
                calls += [partial(closed_form_theorem1, alpha, beta, a1, a2, x1, x2, lam, p)
                          for x1 in _signed(x2 / 2.0)]
            elif group == "theorem3":
                calls += [partial(closed_form_theorem3, alpha, beta, gamma, 0.0, 1.0, x, 1.0,
                                  lam, p) for x in _signed(w)]
                calls += [partial(closed_form_theorem3, alpha, beta, 1.3, 0.5, 2.0, x, 1.5,
                                  lam, p) for x in _signed(w / 2.0)]
            elif group == "lauricella":
                for n in range(1, 5):
                    alphas = [u(0.2, 1.4) for _ in range(n)]
                    xs = [u(-0.5, 0.5) for _ in range(n)]
                    calls += [partial(closed_form_lauricella, alpha, beta, alphas,
                                      xs[:-1] + [x], lam, p) for x in _signed(xs[-1])]
            elif group == "application":
                for x1 in _signed(x2 / 2.0):
                    calls += [
                        application_case("4.1", p, alpha=alpha, alpha1=a1, x1=x1,
                                         lam=lam).closed_form,
                        application_case("4.2", p, alpha=alpha, beta=beta, alpha1=a1, alpha2=a2,
                                         x1=x1, lam=lam).closed_form,
                        application_case("4.3", p, alpha=alpha, beta=beta, alpha1=a1, x1=x1,
                                         lam=lam).closed_form,
                    ]
            else:  # generating, without and with product factors (theorem 6)
                for delta, om in ((1.0, omega), (0.0, 1.0), (-0.0, 1.0), (1.0, 0.0), (1.0, -0.0)):
                    calls.append(partial(_generating, a1, r, s, delta, om, lam, p, t))
                for x1 in _signed(x2 / 2.0):
                    calls.append(partial(_generating, a1, r, s, 1.0, 1.0, lam, p, t,
                                         [(a2, x1), (gamma, w)]))
    return calls


def _generating(a, *args):
    return generating_integral_closed_form(BinomialGen(a), *args)


GROUPS = ("theorem1", "theorem3", "lauricella", "application", "generating")


@pytest.mark.parametrize("group", GROUPS)
def test_cold_and_warm_caches_agree_bitwise(group):
    calls = _points(group)
    cold = []
    for call in calls:
        clear()
        cold.append(bits(call()))
    clear()
    for order in (calls, calls, calls[::-1]):  # filling, warm, warm in reverse
        got = [bits(call()) for call in order]
        assert got == (cold if order is calls else cold[::-1])
    assert _ladder_rows.cache_info().hits > 0


def test_cached_arrays_are_read_only():
    clear()
    closed_form_theorem1(1.2, 0.8, 0.5, 0.9, 0.3, -0.25, 1.0, 0.7)
    table = _inner_table(1.0, 0.7 + 0j, SeriesPolicy())
    value, ok = _ladder_rows(table.key, ((1.2, 1.0), (0.8, 0.0), (1.2 + 0.8, 1.0)), 0, 48)
    product = _kept_product((0.5, 0.9), (0.3, -0.25), 48)
    assert [cache.cache_info().misses for cache in CACHES] == [1, 1, 1]
    for array in (value, ok, product, table._column, table._phase):
        with pytest.raises(ValueError):
            array[0] = array[0]


def test_caches_stay_bounded():
    clear()
    rng = random.Random(5)
    for _ in range(300):
        closed_form_theorem1(rng.uniform(0.4, 2.2), rng.uniform(0.4, 2.2), 0.5, 0.9,
                             rng.uniform(-0.5, 0.5), -0.25, 1.0, rng.uniform(-1.0, 1.0))
    for cache in CACHES:
        info = cache.cache_info()
        assert info.currsize == info.maxsize < 300


def test_long_blocks_are_not_kept():
    # at x1 = 0.99 the outer sum runs past 2 BLOCK degrees: only its first two
    # blocks of rows and the products of their lengths are kept
    clear()
    result = closed_form_theorem1(1.2, 0.8, 0.5, 0.9, 0.99, -0.25, 1.0, 0.7)
    assert result.terms_used > _KEPT
    assert _ladder_rows.cache_info().currsize == 2
    assert _kept_product.cache_info().currsize == 2


@pytest.mark.parametrize("lam, p, alpha, beta, error", [
    (0.0, 4.5, 1.2, 0.8, DivergenceError),
    (2.0, -800.0, 1.0, 1.0, CancellationError),
])
def test_unsettled_rows_raise_on_every_call(lam, p, alpha, beta, error):
    # the row (alpha, beta, alpha + beta) of degree 0 is not settled by the
    # table, so the scalar engine raises for it on each call; the block is reused
    clear()
    for _ in range(2):
        with pytest.raises(error):
            _lauricella_sum(alpha, beta, _binomial_product([0.5, 0.9], [0.3, -0.25]),
                            _inner_table(lam, complex(p), SeriesPolicy()))
    assert _ladder_rows.cache_info()[:2] == (1, 1)  # hits, misses
    assert not _ladder_rows(_inner_table(lam, complex(p), SeriesPolicy()).key,
                            ((alpha, 1.0), (beta, 0.0), (alpha + beta, 1.0)), 0, 48)[1][0]


def test_threads_reproduce_the_serial_results():
    calls = [call for group in GROUPS for call in _points(group)[::3]]
    clear()
    serial = [bits(call()) for call in calls]
    clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the cache lookups too
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(lambda call: bits(call()), calls + calls[::-1],
                                     timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial + serial[::-1]


def test_records_do_not_depend_on_cache_state():
    tolerance = GridConfig().tolerance
    tasks = [(family, point) for family in family_names() for point in iter_default_points(family)]

    def run(order):
        return [json.dumps(evaluate_point(family, point, tolerance)) for family, point in order]

    clear()
    cold = run(tasks)
    assert run(tasks) == cold
    assert run(tasks[::-1])[::-1] == cold
