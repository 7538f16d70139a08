"""Named identity-case families and the built-in verification grid.

Every family binds parameters to an IdentityCase whose closed-form series
and quadrature oracle can be compared point by point; a theorem family
builds only its spec, which owns the domain, and euler_case binds it to its
family's route.  The default grids cross a handful of parameter sets with
the standard argument list {0, +-0.8, 1.5, 0.5+0.5i, -1.2i}, which mixes
real and imaginary parts while keeping node-level Mittag-Leffler sums cheap.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .identities import (
    BinomialGen,
    GegenbauerGen,
    HumbertGen,
    IdentityCase,
    application_case,
    euler_case,
    factor_pairs,
    generating_case,
    t1_spec,
    t2_spec,
    t3_spec,
    t4_spec,
    tn_spec,
)

__all__ = ["CaseFamily", "FAMILIES", "family_names", "iter_default_points"]

DEFAULT_P_LIST = [0.0, 0.8, -0.8, 1.5, 0.5 + 0.5j, complex(0.0, -1.2)]


@dataclass
class CaseFamily:
    """A parameterized identity: per-parameter default value lists and a builder."""

    name: str
    defaults: dict
    builder: Callable[..., IdentityCase]

    @property
    def param_names(self) -> tuple:
        return tuple(self.defaults)

    def build(self, params: dict) -> IdentityCase:
        return self.builder(**params)


# -- theorem families -------------------------------------------------------


def _euler_builder(name: str, spec_fn: Callable):
    """Builder of a theorem family whose spec takes its parameters."""
    return lambda **params: euler_case(name, spec_fn(**params))


# -- generating-function families -------------------------------------------


def _build_gen_binomial(a, r, s, delta, omega, lam, p, t):
    return generating_case("gen-binomial", BinomialGen(a), r, s, delta, omega, lam, p, t)


def _build_gen_humbert(a, b, x, r, s, delta, omega, lam, p, t):
    return generating_case("gen-humbert", HumbertGen(a, b, x), r, s, delta, omega, lam, p, t)


def _build_gen_gegenbauer(a, r, s, delta, omega, lam, p, t):
    return generating_case("gen-gegenbauer", GegenbauerGen(a), r, s, delta, omega, lam, p, t)


def _build_gen_symmetric(a, r, omega, lam, p, t):
    # Symmetric exponent specialization: s = 2r with equal powers in u, 1-u.
    return generating_case("gen-symmetric", BinomialGen(a), r, 2.0 * r, omega, omega, lam, p, t)


def _build_theorem6(a, alphas, xs, r, s, delta, omega, lam, p, t):
    return generating_case("theorem6-binomial", BinomialGen(a), r, s, delta, omega, lam, p, t,
                           factor_pairs(alphas, xs))


# -- randomized draws --------------------------------------------------------


def _build_theorem1_random(draw, seed):
    rng = random.Random(int(seed) * 1000003 + int(draw))
    alpha = rng.uniform(0.4, 2.2)
    beta = rng.uniform(0.4, 2.2)
    alpha1 = rng.uniform(0.2, 1.4)
    alpha2 = rng.uniform(0.2, 1.4)
    x1 = rng.uniform(-0.5, 0.5)
    x2 = rng.uniform(-0.5, 0.5)
    lam = rng.choice([0.5, 1.0, 2.0])
    p = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    return euler_case("theorem1-random", t1_spec(alpha, beta, alpha1, alpha2, x1, x2, lam, p))


FAMILIES: dict[str, CaseFamily] = {}


def _register(family: CaseFamily):
    FAMILIES[family.name] = family


_register(CaseFamily(
    "theorem1",
    {"alpha": [1.2, 0.6], "beta": [0.8], "alpha1": [0.5], "alpha2": [0.9],
     "x1": [0.3], "x2": [-0.25, 0.45], "lam": [0.5, 1.0, 2.0], "p": DEFAULT_P_LIST},
    _euler_builder("theorem1", t1_spec),
))
_register(CaseFamily(
    "theorem2",
    {"alpha": [1.5], "beta": [1.1], "alpha1": [0.4], "alpha2": [0.6],
     "x1": [0.2], "x2": [0.3], "lam": [0.5, 1.0], "p": DEFAULT_P_LIST},
    _euler_builder("theorem2", t2_spec),
))
_register(CaseFamily(
    "theorem3",
    {"alpha": [0.9], "beta": [1.3], "gamma": [-0.7, 2.0], "a": [0.0], "b": [1.0],
     "u": [-0.4], "v": [1.0], "lam": [0.5, 1.0], "p": DEFAULT_P_LIST},
    _euler_builder("theorem3", t3_spec),
))
_register(CaseFamily(
    "theorem3-interval",
    {"alpha": [0.9], "beta": [1.3], "gamma": [-0.7], "a": [-1.0], "b": [1.5],
     "u": [0.3], "v": [1.4], "lam": [1.0], "p": [0.0, 0.4, 0.2 + 0.2j]},
    _euler_builder("theorem3", t3_spec),
))
_register(CaseFamily(
    "theorem4",
    {"alpha": [1.2], "beta": [0.8], "a": [0.0], "b": [1.0, 2.5],
     "nu": [0.0, 0.5], "mu": [1.5], "lam": [0.0, 1.0, 2.0], "p": DEFAULT_P_LIST},
    _euler_builder("theorem4", t4_spec),
))
_register(CaseFamily(
    "lauricella",
    {"alpha": [0.6], "beta": [1.4], "alphas": [[0.3, 0.5, 0.7]],
     "xs": [[0.2, -0.15, 0.3]], "lam": [1.0, 2.0], "p": DEFAULT_P_LIST},
    _euler_builder("lauricella", tn_spec),
))
_register(CaseFamily(
    "ex4.1",
    {"alpha": [0.9], "alpha1": [0.6], "x1": [0.3, -0.4], "lam": [1.0, 2.0],
     "p": DEFAULT_P_LIST},
    partial(application_case, "4.1"),
))
_register(CaseFamily(
    "ex4.2",
    {"alpha": [1.0], "beta": [1.4], "alpha1": [0.3], "alpha2": [0.4],
     "x1": [0.25], "lam": [0.5, 1.0], "p": DEFAULT_P_LIST},
    partial(application_case, "4.2"),
))
_register(CaseFamily(
    "ex4.2-2f2",
    {"alpha": [1.0], "beta": [1.4], "alpha1": [0.3], "alpha2": [0.4],
     "x1": [0.25], "p": DEFAULT_P_LIST},
    partial(application_case, "4.2-2f2"),
))
_register(CaseFamily(
    "ex4.3",
    {"alpha": [0.9], "beta": [1.3], "alpha1": [0.8], "x1": [0.45], "lam": [1.0],
     "p": DEFAULT_P_LIST},
    partial(application_case, "4.3"),
))
_register(CaseFamily(
    "ex4.4",
    {"alpha": [1.1], "beta": [0.9], "a": [0.0, -1.0], "b": [1.0, 3.0],
     "lam": [0.5, 1.0, 2.0], "p": DEFAULT_P_LIST},
    partial(application_case, "4.4"),
))
_register(CaseFamily(
    "ex4.5",
    {"alpha": [0.8, 1.6], "nu": [0.4], "mu": [1.1], "lam": [1.0, 2.0],
     "p": DEFAULT_P_LIST},
    partial(application_case, "4.5"),
))
_register(CaseFamily(
    "gen-binomial",
    {"a": [0.7], "r": [0.8], "s": [2.1], "delta": [1.0], "omega": [1.0],
     "lam": [1.0, 2.0], "p": [0.0, 0.6, 0.3 + 0.3j], "t": [0.3, -0.25]},
    _build_gen_binomial,
))
_register(CaseFamily(
    "gen-humbert",
    {"a": [0.8], "b": [1.7], "x": [0.6], "r": [0.8], "s": [2.1], "delta": [1.0],
     "omega": [1.0], "lam": [1.0], "p": [0.0, 0.6], "t": [0.3]},
    _build_gen_humbert,
))
_register(CaseFamily(
    "gen-gegenbauer",
    {"a": [0.35], "r": [1.5], "s": [3.0], "delta": [1.0], "omega": [1.0],
     "lam": [1.0, 2.0], "p": [0.0, 0.6], "t": [0.3, 0.2 + 0.2j]},
    _build_gen_gegenbauer,
))
_register(CaseFamily(
    "gen-symmetric",
    {"a": [0.7], "r": [0.9], "omega": [1.0], "lam": [1.0], "p": [0.0, 0.6],
     "t": [0.25]},
    _build_gen_symmetric,
))
_register(CaseFamily(
    "theorem6-binomial",
    {"a": [0.5], "alphas": [[0.4, 0.7]], "xs": [[0.3, -0.2]], "r": [0.8], "s": [2.1],
     "delta": [1.0], "omega": [1.0], "lam": [1.0], "p": [0.0, 0.6], "t": [0.25]},
    _build_theorem6,
))
_register(CaseFamily(
    "theorem1-random",
    {"draw": [0, 1, 2], "seed": [0]},
    _build_theorem1_random,
))


def family_names() -> list[str]:
    return sorted(FAMILIES)


def iter_default_points(family: str, override: dict | None = None):
    """Cross product of the family's per-parameter value lists.

    override replaces the lists of the parameters it names; a bare scalar
    there is a one-point list.
    """
    fam = FAMILIES[family]
    override = override or {}
    lists = []
    for name in fam.param_names:
        values = override.get(name, fam.defaults[name])
        lists.append(values if isinstance(values, list) else [values])
    for values in itertools.product(*lists):
        yield dict(zip(fam.param_names, values))
