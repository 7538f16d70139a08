import cmath
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrightlab import (
    CancellationError,
    DivergenceError,
    DomainError,
    MaxTermsError,
    PoleError,
    SeriesPolicy,
    WrightSpec,
    appell_f1,
    hyper_pfq,
    mittag_leffler,
    wright_psi,
    wright_psi_normalized,
)
from wrightlab.errors import WrightLabError
from wrightlab.scalars import log_gamma_signed, pochhammer
from wrightlab.series import (
    BLOCK,
    CANCELLATION_LIMIT,
    SeriesResult,
    _pfq_rows,
    _Phase,
    _row_sums,
    _row_values,
    sum_with_policy,
)


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class TestWrightPsi:
    def test_z_zero_single_gamma(self):
        spec = WrightSpec([(2.0, 1.0)], [])
        assert rel(wright_psi(spec, 0.0).value, 1.0) <= 1e-14  # Gamma(2)

    def test_geometric_collapse(self):
        spec = WrightSpec([(1.0, 1.0)], [])
        assert rel(wright_psi(spec, 0.5).value, 2.0) <= 1e-14

    def test_exponential_collapse(self):
        spec = WrightSpec([(1.0, 1.0)], [(1.0, 1.0)])
        assert rel(wright_psi(spec, 1.0).value, math.e) <= 1e-14

    def test_margin_gate(self):
        with pytest.raises(DomainError):
            WrightSpec([(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)], [(1.0, 1.0)])

    def test_weight_gate(self):
        with pytest.raises(DomainError):
            WrightSpec([(1.0, -1.0)], [])
        with pytest.raises(DomainError):
            WrightSpec([(1.0, 1.0)], [(1.0, -0.5)])

    def test_divergence_detected_on_margin_boundary(self):
        # margin zero, |z| beyond the radius of convergence
        spec = WrightSpec([(1.0, 1.0)], [])
        with pytest.raises(DivergenceError):
            wright_psi(spec, 1.5)

    def test_lower_pole_lazy(self):
        # lower parameter ladder -2.5 + 0.5k pools at k = 5
        spec = WrightSpec([(1.0, 1.0)], [(-2.5, 0.5)])
        with pytest.raises(PoleError):
            wright_psi(spec, 0.9)

    def test_term_count_is_deterministic(self):
        spec = WrightSpec([(1.3, 0.7), (0.8, 1.0)], [(2.0, 1.5)])
        runs = {wright_psi(spec, 0.4 + 0.1j).terms_used for _ in range(5)}
        assert len(runs) == 1


class TestNormalized:
    def test_value_at_zero_is_one(self):
        spec = WrightSpec([(1.7, 0.9), (0.4, 1.1)], [(2.2, 1.3)])
        assert rel(wright_psi_normalized(spec, 0.0).value, 1.0) <= 1e-15

    def test_normalizing_pole_is_eager(self):
        spec = WrightSpec([(-1.0, 1.0)], [])
        with pytest.raises(PoleError):
            wright_psi_normalized(spec, 0.5)

    def test_unit_weights_reduce_to_pfq(self):
        rng = random.Random(7)
        for _ in range(50):
            p = rng.randint(0, 3)
            q = rng.randint(max(0, p - 1), 2)
            num = [rng.uniform(0.2, 3.0) for _ in range(p)]
            den = [rng.uniform(0.5, 4.0) for _ in range(q)]
            z = cmath.rect(rng.uniform(0, 0.5), rng.uniform(0, 2 * math.pi))
            spec = WrightSpec([(a, 1.0) for a in num], [(b, 1.0) for b in den])
            lhs = wright_psi_normalized(spec, z).value
            rhs = hyper_pfq(num, den, z).value
            assert rel(lhs, rhs) <= 1e-12

    def test_matched_pair_appending(self):
        base_upper = [(1.3, 1.0), (0.7, 1.0)]
        base_lower = [(2.1, 2.0)]
        z = 0.8 + 0.3j
        reference = wright_psi(WrightSpec(base_upper, base_lower), z).value
        for c in (0.6, 1.0, 2.4, -3.7):
            spec = WrightSpec(base_upper + [(c, 1.0)], base_lower + [(c, 1.0)])
            assert rel(wright_psi(spec, z).value, reference) <= 1e-13

    def test_matched_pair_pole_still_raises(self):
        base_upper = [(1.3, 1.0), (0.7, 1.0)]
        base_lower = [(2.1, 2.0)]
        spec = WrightSpec(base_upper + [(-2.0, 1.0)], base_lower + [(-2.0, 1.0)])
        with pytest.raises(PoleError):
            wright_psi(spec, 0.8)


class TestPfq:
    def test_0f0_is_exp(self):
        assert rel(hyper_pfq([], [], 1.0).value, math.e) <= 1e-14

    def test_2f1_log_series(self):
        assert rel(hyper_pfq([1.0, 1.0], [2.0], 0.5).value, 2.0 * math.log(2.0)) <= 1e-13

    def test_1f1_matches_quadrature_of_exp_kernel(self):
        # 1.1845930729386531513 = integral of exp(t(1-t)) over (0,1), 40-digit quadrature
        assert rel(hyper_pfq([1.0], [1.5], 0.25).value, 1.1845930729386531513) <= 1e-13

    def test_denominator_pole_eager(self):
        with pytest.raises(PoleError):
            hyper_pfq([1.0], [-2.0], 0.1)

    def test_terminating_numerator(self):
        result = hyper_pfq([-3.0, 1.4], [2.2], 5.0)  # polynomial, |z| > 1 is fine
        expected = sum(pochhammer(-3.0, n) * pochhammer(1.4, n) / pochhammer(2.2, n)
                       * 5.0 ** n / math.factorial(n) for n in range(4))
        assert rel(result.value, expected) <= 1e-13

    def test_divergent_outside_disc(self):
        with pytest.raises(DivergenceError):
            hyper_pfq([1.0, 2.0], [1.5], 1.2)

    def test_max_terms_budget(self):
        policy = SeriesPolicy(max_terms=5)
        with pytest.raises(MaxTermsError):
            hyper_pfq([1.0], [], 0.9, policy)


    def test_long_sum_runs_past_the_double_range_of_its_pochhammers(self):
        # 2F1(1/2, 1; 3/2; z) = atanh(sqrt z) / sqrt z.  (3/2)_k alone overflows
        # near k = 170, far short of the 2,264 terms the default policy takes;
        # the tighter policy keeps the truncated tail, about 100 times the
        # last term at z = 0.99, below 1e-13.
        z = 0.99
        assert hyper_pfq([0.5, 1.0], [1.5], z).terms_used == 2264
        result = hyper_pfq([0.5, 1.0], [1.5], z, SeriesPolicy(rel_tol=1e-16))
        assert rel(result.value, math.atanh(math.sqrt(z)) / math.sqrt(z)) <= 1e-13


def pfq_points():
    """Seeded (num, den, z): p = q + 1 with |z| up to 0.97, entire series with
    p <= q and |z| up to 10, and truncating numerators, half with complex z."""
    rng = random.Random(15)
    points = []
    for i in range(90):
        q = rng.randint(0, 3)
        kind = i % 3
        if kind == 0:
            p, radius = q + 1, rng.uniform(0.5, 0.97)
        elif kind == 1:
            p, radius = rng.randint(0, q), rng.uniform(0.5, 10.0)
        else:
            p, radius = rng.randint(1, q + 2), rng.uniform(0.5, 5.0)
        num = [rng.uniform(0.1, 3.0) for _ in range(p)]
        den = [rng.uniform(0.1, 3.0) for _ in range(q)]
        if kind == 2:
            num[0] = float(-rng.randint(0, 10))
        z = cmath.rect(radius, rng.uniform(-math.pi, math.pi)) if i % 2 else radius
        points.append((num, den, z))
    return points


def test_pfq_against_mpmath():
    # Each value lies within 8 eps sum |t_k| (the rounding of the sum) plus
    # its truncated tail, bounded by tail_estimate / (1 - |z|) where the
    # terms decay like |z|^k; only a sum whose terms cancel past the limit
    # may raise instead.
    mp = pytest.importorskip("mpmath")
    eps = sys.float_info.epsilon
    raised = 0
    with mp.workdps(30):
        for num, den, z in pfq_points():
            ref = complex(mp.hyper(num, den, z))
            term = abs_sum = mp.mpf(1)
            k = 0
            while term > abs_sum * 1e-20:
                term *= (abs(z) / (k + 1) * mp.fprod(abs(a + k) for a in num)
                         / mp.fprod(abs(b + k) for b in den))
                abs_sum += term
                k += 1
            try:
                result = hyper_pfq(num, den, z)
            except CancellationError:
                assert abs_sum > CANCELLATION_LIMIT / 2 * abs(ref)
                raised += 1
                continue
            tail = result.tail_estimate
            if len(num) == len(den) + 1:
                tail /= 1.0 - abs(z)
            assert abs(result.value - ref) <= 8 * eps * float(abs_sum) + tail, (num, den, z)
    assert raised <= 3


def test_the_term_budget_is_drawn_at_most_max_terms_times():
    def terms():
        yield from [1.0] * 10
        raise AssertionError("term 11 drawn")

    with pytest.raises(MaxTermsError, match="after 10 terms"):
        sum_with_policy(terms(), SeriesPolicy(max_terms=10))
    with pytest.raises(MaxTermsError, match="after 10 terms"):
        appell_f1(0.5, 0.5, 0.5, 1.0, 0.999, 0.999, SeriesPolicy(max_terms=10))


class TestMittagLeffler:
    def test_geometric_case(self):
        assert rel(mittag_leffler(0.0, 0.5).value, 2.0) <= 1e-14

    def test_exponential_case(self):
        assert rel(mittag_leffler(1.0, 1.0).value, math.e) <= 1e-14

    def test_cosh_case(self):
        assert rel(mittag_leffler(2.0, 4.0).value, math.cosh(2.0)) <= 1e-13

    def test_half_order_value(self):
        # exp(z^2) erfc(-z) at z = 0.6, 40 digits
        assert rel(mittag_leffler(0.5, 0.6).value, 2.2988541117340935611) <= 1e-13

    def test_domain_gates(self):
        with pytest.raises(DomainError):
            mittag_leffler(-0.5, 0.1)
        with pytest.raises(DomainError):
            mittag_leffler(0.0, 2.0)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_wright_embedding(self, lam):
        rng = random.Random(int(lam * 10))
        spec = WrightSpec([(1.0, 1.0)], [(1.0, lam)])
        for _ in range(25):
            z = cmath.rect(rng.uniform(0, 2.0), rng.uniform(0, 2 * math.pi))
            assert rel(mittag_leffler(lam, z).value, wright_psi(spec, z).value) <= 1e-13

    def test_exp_identity_on_disc_conditioning_aware(self):
        # Verifying E_1 = exp on the |z| <= 5 disc: summing the series in
        # doubles loses exactly the cancellation factor exp(|z| - Re z), so
        # the tolerance scales with it.
        rng = random.Random(11)
        for _ in range(60):
            z = cmath.rect(rng.uniform(0, 5.0), rng.uniform(0, 2 * math.pi))
            kappa = math.exp(abs(z) - z.real)
            tol = 1e-13 + 5e-15 * kappa
            assert rel(mittag_leffler(1.0, z).value, cmath.exp(z)) <= tol

    def test_cancellation_below_the_limit_is_kept(self):
        # sum |t_k| / |S| = exp(10) = 2.2e4 stays below the cancellation limit
        assert rel(mittag_leffler(1.0, -5.0).value, math.exp(-5.0)) <= 1e-11

    def test_cancellation_past_the_limit_raises(self):
        # sum |t_k| = exp(30) = 1.1e13 against E_1(-30) = 9.4e-14: the terms
        # cancel to 9.58e-3 in doubles, a value with no correct digit
        with pytest.raises(CancellationError):
            mittag_leffler(1.0, -30.0)

    def test_identical_to_its_own_term_series(self):
        # the Wright route gives every value, term count, tail and error of
        # the direct terms z^n / Gamma(lam n + 1) bit for bit
        def direct_terms(lam, z, max_terms):
            phase = _Phase(complex(z))
            for n in range(max_terms):
                yield phase.term(n, -log_gamma_signed(lam * n + 1.0)[0], 1)

        def outcome(fn):
            try:
                result = fn()
            except Exception as exc:
                return type(exc), str(exc)
            return result

        rng = random.Random(5)
        policy = SeriesPolicy()
        kinds = set()
        for _ in range(400):
            lam = rng.choice([0.0, 0.3, 0.5, 0.8, 1.0, 1.5, 2.0, rng.uniform(0.0, 3.0)])
            z = complex(rng.uniform(-40, 40), rng.uniform(-40, 40)) * rng.choice([0.01, 0.1, 1.0])
            got = outcome(lambda: mittag_leffler(lam, z, policy))
            if isinstance(got, tuple) and got[0] is DomainError:
                continue
            want = outcome(lambda: sum_with_policy(direct_terms(lam, z, policy.max_terms),
                                                   policy))
            assert got == want
            kinds.add(got[0] if isinstance(got, tuple) else "value")
        assert kinds == {"value", CancellationError, DivergenceError}

    def test_overflowing_modulus_is_divergence(self):
        # both parts finite, modulus past the double range: a typed error, not OverflowError
        with pytest.raises(DivergenceError, match="^term 0 is non-finite$"):
            sum_with_policy(iter([complex(1.5e308, 1.5e308)]), SeriesPolicy())
        with pytest.raises(DivergenceError, match="^partial sum is non-finite at term 1$"):
            sum_with_policy(iter([1.5e308, 1.5e308j]), SeriesPolicy())
        with pytest.raises(DivergenceError):
            mittag_leffler(0.3, 6.0 + 4.0j)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.3, 2.5), st.floats(0.3, 2.5), st.floats(0.6, 4.0),
       st.floats(-0.8, 0.8), st.floats(-0.8, 0.8))
def test_reduction_identity_property(a1, a2, b1, zr, zi):
    z = complex(zr, zi) * 0.5
    spec = WrightSpec([(a1, 1.0), (a2, 1.0)], [(b1, 1.0)])
    lhs = wright_psi_normalized(spec, z).value
    rhs = hyper_pfq([a1, a2], [b1], z).value
    assert rel(lhs, rhs) <= 1e-12


def test_policy_validation():
    with pytest.raises(ValueError):
        SeriesPolicy(rel_tol=0.0)
    with pytest.raises(ValueError):
        SeriesPolicy(consecutive_small=0)
    with pytest.raises(ValueError):
        SeriesPolicy(max_terms=0)


def test_policy_from_env(monkeypatch):
    monkeypatch.setenv("WRIGHTLAB_MAX_TERMS", "123")
    assert SeriesPolicy.from_env().max_terms == 123
    monkeypatch.setenv("WRIGHTLAB_MAX_TERMS", "junk")
    with pytest.raises(ValueError):
        SeriesPolicy.from_env()


def test_tail_estimate_scale():
    result = mittag_leffler(1.0, 0.3)
    assert 0.0 <= result.tail_estimate <= 1e-12
    assert result.terms_used <= 40


@pytest.mark.parametrize("complex_terms", [False, True])
def test_sum_is_the_exactly_rounded_sum_of_the_accepted_terms(complex_terms):
    # Seeded decaying streams of random sign whose magnitudes spread over six
    # decades, so a plain running sum rounds off the exact value on some of them.
    rng = random.Random(7 + complex_terms)
    plain_missed = 0
    for _ in range(200):
        ratio = rng.uniform(0.3, 0.9)

        def part(k):
            return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0) * ratio ** k

        drawn = []

        def stream():
            for k in range(10**6):
                drawn.append(complex(part(k), part(k)) if complex_terms else part(k))
                yield drawn[-1]

        result = sum_with_policy(stream(), SeriesPolicy())
        accepted = drawn[:result.terms_used]
        abs_sum = sum(abs(t) for t in accepted)
        assert abs_sum <= CANCELLATION_LIMIT * abs(result.value)
        exact = complex(float(sum(Fraction(complex(t).real) for t in accepted)),
                        float(sum(Fraction(complex(t).imag) for t in accepted)))
        assert result.value == exact
        plain_missed += sum(accepted) != exact
    assert plain_missed > 0


# ---------------------------------------------------------------------------
# The stopping rule on blocks of rows
# ---------------------------------------------------------------------------


class PastTheBlock(Exception):
    pass


def scalar_row(row, policy):
    """sum_with_policy of a row's terms, or the error it raises (PastTheBlock where it
    draws past the row)."""
    def terms():
        yield from row.tolist()
        raise PastTheBlock

    try:
        return sum_with_policy(terms(), policy)
    except (WrightLabError, OverflowError, PastTheBlock) as exc:
        return exc


def term_block(seed, dtype):
    """Seeded rows of BLOCK terms: jittered geometric streams with random phases
    and ratios that stop them early, near the end of the block or not at all
    (up to the edge of the disc and past it), rows that cancel, that vanish,
    that overflow, and that hold inf or nan before or after their stop."""
    rng = np.random.default_rng(seed)
    count = 80
    ratio = rng.choice([0.05, 0.2, 0.3, 0.4, 0.45, 0.48, 0.5, 0.52, 0.9, 0.999, 1.0, 1.01],
                       size=(count, 1))
    if dtype is complex:
        ratio = ratio * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(count, 1)))
    else:
        ratio = ratio * rng.choice([-1.0, 1.0], size=(count, 1))
    block = (10.0 ** rng.uniform(-3.0, 3.0, size=(count, 1))) * ratio ** np.arange(BLOCK)
    block *= rng.uniform(0.2, 1.0, size=block.shape)
    block = block.astype(dtype)
    block[0, :] = 0.0  # stops at term 2 with value 0
    block[1, :4] = [1.0, -1.0 + 1e-7, 0.0, 0.0]  # stops at term 4, cancelled past the limit
    block[1, 4:] = 0.0
    block[2, :3] = [1.0, -1.0 + 1e-4, 0.0]  # cancels below the limit
    block[2, 3:] = 0.0
    block[3, :2] = [1.5e308, 1.5e308]  # partial sum overflows
    block[4, 0] = 1e308 * 1e308  # a non-finite first term
    for row in range(5, 15):  # inf or nan somewhere in a quickly stopping row
        block[row] = 0.5 ** np.arange(BLOCK) * (0.1 if row % 2 else 1.0)
        block[row, rng.integers(0, BLOCK)] = np.nan if row % 3 else np.inf
    if dtype is complex:
        block[15, :2] = [complex(1.5e308, 1.5e308), 0.0]  # modulus overflows, parts finite
        block[16, :3] = [1.5e308, 1.5e308j, -1.5e308]  # |partial| overflows at term 1 only
        block[16, 3:] = 0.0
    return block


POLICIES = [SeriesPolicy(), SeriesPolicy(consecutive_small=1), SeriesPolicy(consecutive_small=5),
            SeriesPolicy(rel_tol=1e-8), SeriesPolicy(max_terms=10), SeriesPolicy(max_terms=2),
            SeriesPolicy(abs_tol=1e-3)]


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("policy", POLICIES, ids=repr)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_row_sums_are_the_scalar_rule_bit_for_bit(seed, policy, dtype):
    block = term_block(seed, dtype)
    rows = list(_row_sums(block, policy))
    assert len(rows) == len(block)
    for row, got in zip(block, rows):
        want = scalar_row(row, policy)
        # None exactly where the scalar rule raises or needs more than the block
        assert repr(got) == repr(None if isinstance(want, Exception) else want)


def test_the_blocks_meet_every_outcome_of_the_scalar_rule():
    outcomes = {type(scalar_row(row, SeriesPolicy())).__name__
                for seed in (1, 2, 3) for row in term_block(seed, complex)}
    assert outcomes == {"SeriesResult", "CancellationError", "DivergenceError", "PastTheBlock"}


PFQ_ROWS = [  # (numerator, denominator) parameter rows, as for the 2F2 and 1F1 rows
    lambda m: ([1.0 + m, 1.4], [0.5 * (2.4 + m), 0.5 * (2.4 + m + 1.0)]),
    lambda m: ([0.8], [1.7 + m]),
    lambda m: ([-2.0 + 0.0 * m, 0.7 - 0.3 * m], [2.0 - m]),  # terminating; poles from m = 2
    lambda m: ([0.5 + m], [-0.5 - 0.25 * m]),  # a pole at m = 2
]


@pytest.mark.parametrize("z", [0.6, -3.5, 0.3 + 0.4j, -2.0j, 30.0, (0.5 + 0.5j) / 4.0])
@pytest.mark.parametrize("params", PFQ_ROWS)
def test_pfq_rows_are_hyper_pfq_bit_for_bit(params, z):
    policy = SeriesPolicy()
    m = np.arange(20.0)
    rows = list(_pfq_rows(*params(m), z, policy))
    for n, got in enumerate(rows):
        num, den = ([float(np.broadcast_to(x, m.shape)[n]) for x in part] for part in params(m))
        try:
            want = hyper_pfq(num, den, z, policy)
        except WrightLabError:
            assert got is None
            continue
        if got is None:
            assert want.terms_used > BLOCK
        else:
            assert repr(got) == repr(want)


def test_an_unsettled_row_past_the_outer_stop_is_never_summed():
    summed = []

    def rows(n):  # rows from 5 on are left to the scalar route
        return [SeriesResult(1.0, 1, 0.0) if m < 5 else None for m in n.tolist()]

    def scalar(n):
        summed.append(n)
        raise DivergenceError(f"row {n} summed")

    # the outer terms 1, 1, 0, 0, 0 stop at the fifth, which reads row 4
    outer = (value * (n < 2) for n, value in enumerate(_row_values(lambda n: (n,), rows, scalar)))
    result = sum_with_policy(outer, SeriesPolicy())
    assert (result.value, result.terms_used, summed) == (2.0, 5, [])
    # a sum that does reach row 5 raises its error there
    with pytest.raises(DivergenceError, match="^row 5 summed$"):
        sum_with_policy(_row_values(lambda n: (n,), rows, scalar), SeriesPolicy())
