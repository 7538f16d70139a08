"""Pfaff reflections of the T1/TN, T2 and T3 weights.

t -> 1 - t swaps alpha and beta, and Pfaff's transformation (DLMF 15.8.1)
(1 - x (1-t))^(-a) = (1-x)^(-a) (1 - x t/(x-1))^(-a) takes a factor back
to t.  TN (so T1) and T3 sum in the orientation of smaller max |x_i|, and
T2 becomes a T1 wherever that does not raise max |x_i|.  The references
are 30-digit mpmath.quad values of the integrals (lam = 1, so E_1 = exp),
kept as data.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrightlab import (
    SeriesPolicy,
    closed_form_lauricella,
    closed_form_theorem2,
    closed_form_theorem3,
    t2_spec,
)
from wrightlab.cli import main
from wrightlab.identities import _binomial_product, _inner_table, _lauricella_sum


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


@pytest.mark.parametrize("x1, reference", [(0.3, 1.9325320688089882207),
                                           (-0.9, 1.593221013042741945361)])
def test_theorem2_near_the_edge_sums_through_theorem1(x1, reference):
    # The F3 route stopped here at term 171 (its stream overflows).  Mirrored
    # on the x1 side this is T1 at (x1/(x1-1), 0.99): 1,736 and 1,754 degrees,
    # 8.7e-13 off, while the reported tail reads 5.7e-14 and 4.7e-14.
    result = closed_form_theorem2(1.5, 1.1, 0.4, 0.6, x1, 0.99, 1.0, 0.5)
    assert rel(result.value, reference) <= 1e-11


@pytest.mark.parametrize("alphas, xs, reference", [
    ((0.5, 0.9), (-0.99, -0.99), 0.6199404993557283952381),
    ((1.2, 0.9), (-0.999, -0.5), 0.5476387142639345810085),
])
def test_lauricella_on_the_negative_axis_sums_mirrored(alphas, xs, reference):
    # Unmirrored these took 2,961 degrees and 20,000 (MaxTermsError); mirrored
    # max |x_i| falls to 0.4975 and 0.4997
    result = closed_form_lauricella(1.2, 0.8, alphas, xs, 1.0, 0.7)
    assert result.terms_used <= 60
    assert rel(result.value, reference) <= 1e-14


def test_theorem2_keeps_f3_where_a_mirror_would_widen_the_argument():
    # Mirrored, max |x| would rise from 0.555 to 0.863 (x2 side) or 1.25 (x1 side)
    spec = t2_spec(1.5, 1.1, 0.4, 0.6, 0.555, 0.463, 1.0, 0.5)
    assert closed_form_theorem2(1.5, 1.1, 0.4, 0.6, 0.555, 0.463, 1.0, 0.5) == \
        spec.family.by_f3(spec, SeriesPolicy())


def test_theorem3_mirror_is_the_reflected_spec():
    # w = -3: summed at w/(w-1) = 3/4, the same numbers as the spec with
    # alpha and beta swapped, u -> -u and v -> u (a+b) + v
    args = (-0.7, -1.0, 1.0, 1.5, 2.5, 1.0, 0.4)
    assert closed_form_theorem3(0.9, 1.3, *args) == \
        closed_form_theorem3(1.3, 0.9, -0.7, -1.0, 1.0, -1.5, 2.5, 1.0, 0.4)


@pytest.mark.parametrize("args", [
    ["theorem2", "alpha=1.5", "beta=1.1", "alpha1=0.4", "alpha2=0.6", "x1=0.3", "x2=0.99",
     "lam=1", "p=0.5"],
    ["theorem3", "alpha=0.9", "beta=1.3", "gamma=-0.7", "a=0", "b=1", "u=3", "v=1", "lam=1",
     "p=0.4"],
    ["integral_direct", "family=t3", "alpha=0.9", "beta=1.3", "gamma=-0.7", "a=0", "b=1",
     "u=3", "v=1", "lam=1", "p=0.4"],
])
def test_eval_lines_past_the_former_domain_exit_0(args, capsys):
    assert main(["eval"] + args) == 0
    assert capsys.readouterr().out.startswith(args[0] + " value=")


def _sum(alpha, beta, alphas, xs, lam, p):
    table = _inner_table(lam, complex(p), SeriesPolicy())
    return _lauricella_sum(alpha, beta, _binomial_product(alphas, xs), table).value


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(0.3, 3.0), st.floats(0.3, 3.0),
       st.lists(st.tuples(st.floats(0.1, 1.5), st.floats(-0.95, 0.45)), min_size=1,
                max_size=3),
       st.sampled_from([0.5, 1.0, 2.0]), st.floats(-3.0, 3.0), st.floats(-2.0, 2.0))
def test_both_orientations_agree(alpha, beta, factors, lam, p_re, p_im):
    # Each x_i < 1/2 keeps both orientations in the disc.  With positive
    # exponents every term of a sum is at most the matching term at |x_i|
    # and |p| in modulus, so that sum over |value| bounds the cancellation
    # factor sum |t| / |S| of each orientation.
    alphas, xs = (tuple(v) for v in zip(*factors))
    p = complex(p_re, p_im)
    mirrored = tuple(x / (x - 1.0) for x in xs)
    scale = math.prod((1.0 - x) ** -a for a, x in zip(alphas, xs))
    direct = _sum(alpha, beta, alphas, xs, lam, p)
    reflected = scale * _sum(beta, alpha, alphas, mirrored, lam, p)
    bound = _sum(alpha, beta, alphas, tuple(map(abs, xs)), lam, abs(p)).real
    bound_reflected = scale * _sum(beta, alpha, alphas, tuple(map(abs, mirrored)), lam,
                                   abs(p)).real
    factor = max(bound / abs(direct), bound_reflected / abs(reflected))
    assert rel(reflected, direct) <= 1e-14 * factor
    # the public route takes the orientation of smaller max |x_i|
    shrinks = max(map(abs, mirrored)) < max(map(abs, xs))
    assert closed_form_lauricella(alpha, beta, alphas, xs, lam, p).value == (
        reflected if shrinks else direct)
