"""Named identity-case families and the built-in verification grid.

Every family binds parameters to an IdentityCase whose closed-form series
and quadrature oracle can be compared point by point.  The default grids
cross a handful of parameter sets with the standard argument list
{0, +-0.8, 1.5, 0.5+0.5i, -1.2i}, which mixes real and imaginary parts
while keeping node-level Mittag-Leffler sums cheap.
"""

from __future__ import annotations

import itertools
import random
from functools import partial
from typing import Callable, Sequence

from .errors import DomainError
from .identities import (
    BinomialGen,
    GegenbauerGen,
    GeneratingIntegralSpec,
    HumbertGen,
    IdentityCase,
    application_case,
    closed_form_lauricella,
    closed_form_theorem1,
    closed_form_theorem2,
    closed_form_theorem3,
    closed_form_theorem4,
    euler_case,
    generating_integral_closed_form,
    t1_spec,
    t2_spec,
    t3_spec,
    t4_spec,
    tn_spec,
)
from .quadrature import evaluate_generating_integral_direct

__all__ = ["CaseFamily", "FAMILIES", "family_names", "build_case", "iter_default_points"]

DEFAULT_P_LIST = [0.0, 0.8, -0.8, 1.5, 0.5 + 0.5j, complex(0.0, -1.2)]


class CaseFamily:
    """A parameterized identity with defaults, validity gate and builder."""

    def __init__(self, name: str, param_names: Sequence[str], defaults: dict,
                 build: Callable[..., IdentityCase],
                 validate: Callable[..., str | None] | None = None):
        self.name = name
        self.param_names = tuple(param_names)
        self.defaults = defaults
        self._build = build
        self._validate = validate

    def check(self, params: dict) -> str | None:
        """Return a skip reason when params leave the validity region."""
        if self._validate is not None:
            reason = self._validate(**params)
            if reason:
                return reason
        try:
            self._build(**params)
        except DomainError as exc:
            return str(exc)
        return None

    def build(self, params: dict) -> IdentityCase:
        return self._build(**params)


def _lam0_gate(lam, p, xi_max):
    if lam == 0.0 and abs(complex(p)) * xi_max >= 0.95:
        return "lam = 0 needs |p| * max xi safely below 1"
    return None


# -- theorem families -------------------------------------------------------


def _euler_builder(name: str, spec_fn: Callable, closed_fn: Callable):
    """Builder of a theorem family whose spec and closed form take its parameters."""

    def build(**params):
        return euler_case(name, spec_fn(**params), lambda pol: closed_fn(**params, policy=pol))

    return build


# -- generating-function families -------------------------------------------


def _gen_case(name, gen, r, s, delta, omega, lam, p, t, factors=()):
    spec = GeneratingIntegralSpec(gen, r, s, delta, omega, lam, complex(p), complex(t),
                                  tuple(factors))

    def closed(pol):
        return generating_integral_closed_form(gen, r, s, delta, omega, lam, p, t,
                                               factors, pol)

    def oracle(qpolicy=None, spolicy=None):
        return evaluate_generating_integral_direct(gen, r, s, delta, omega, lam, p, t,
                                                   factors, qpolicy, spolicy)

    return IdentityCase(name=name, spec=spec, closed_form=closed, oracle=oracle)


def _build_gen_binomial(a, r, s, delta, omega, lam, p, t):
    return _gen_case("gen-binomial", BinomialGen(a), r, s, delta, omega, lam, p, t)


def _build_gen_humbert(a, b, x, r, s, delta, omega, lam, p, t):
    return _gen_case("gen-humbert", HumbertGen(a, b, x), r, s, delta, omega, lam, p, t)


def _build_gen_gegenbauer(a, r, s, delta, omega, lam, p, t):
    return _gen_case("gen-gegenbauer", GegenbauerGen(a), r, s, delta, omega, lam, p, t)


def _build_gen_symmetric(a, r, omega, lam, p, t):
    # Symmetric exponent specialization: s = 2r with equal powers in u, 1-u.
    return _gen_case("gen-symmetric", BinomialGen(a), r, 2.0 * r, omega, omega, lam, p, t)


def _build_theorem6(a, alphas, xs, r, s, delta, omega, lam, p, t):
    factors = tuple(zip(alphas, xs))
    return _gen_case("theorem6-binomial", BinomialGen(a), r, s, delta, omega, lam, p, t,
                     factors)


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
    return euler_case(
        "theorem1-random", t1_spec(alpha, beta, alpha1, alpha2, x1, x2, lam, p),
        lambda pol: closed_form_theorem1(alpha, beta, alpha1, alpha2, x1, x2, lam, p, pol))


FAMILIES: dict[str, CaseFamily] = {}


def _register(family: CaseFamily):
    FAMILIES[family.name] = family


_register(CaseFamily(
    "theorem1",
    ("alpha", "beta", "alpha1", "alpha2", "x1", "x2", "lam", "p"),
    {"alpha": [1.2, 0.6], "beta": [0.8], "alpha1": [0.5], "alpha2": [0.9],
     "x1": [0.3], "x2": [-0.25, 0.45], "lam": [0.5, 1.0, 2.0], "p": DEFAULT_P_LIST},
    _euler_builder("theorem1", t1_spec, closed_form_theorem1),
))
_register(CaseFamily(
    "theorem2",
    ("alpha", "beta", "alpha1", "alpha2", "x1", "x2", "lam", "p"),
    {"alpha": [1.5], "beta": [1.1], "alpha1": [0.4], "alpha2": [0.6],
     "x1": [0.2], "x2": [0.3], "lam": [0.5, 1.0], "p": DEFAULT_P_LIST},
    _euler_builder("theorem2", t2_spec, closed_form_theorem2),
))
_register(CaseFamily(
    "theorem3",
    ("alpha", "beta", "gamma", "a", "b", "u", "v", "lam", "p"),
    {"alpha": [0.9], "beta": [1.3], "gamma": [-0.7, 2.0], "a": [0.0], "b": [1.0],
     "u": [-0.4], "v": [1.0], "lam": [0.5, 1.0], "p": DEFAULT_P_LIST},
    _euler_builder("theorem3", t3_spec, closed_form_theorem3),
))
_register(CaseFamily(
    "theorem3-interval",
    ("alpha", "beta", "gamma", "a", "b", "u", "v", "lam", "p"),
    {"alpha": [0.9], "beta": [1.3], "gamma": [-0.7], "a": [-1.0], "b": [1.5],
     "u": [0.3], "v": [1.4], "lam": [1.0], "p": [0.0, 0.4, 0.2 + 0.2j]},
    _euler_builder("theorem3", t3_spec, closed_form_theorem3),
))
_register(CaseFamily(
    "theorem4",
    ("alpha", "beta", "a", "b", "nu", "mu", "lam", "p"),
    {"alpha": [1.2], "beta": [0.8], "a": [0.0], "b": [1.0, 2.5],
     "nu": [0.0, 0.5], "mu": [1.5], "lam": [0.0, 1.0, 2.0], "p": DEFAULT_P_LIST},
    _euler_builder("theorem4", t4_spec, closed_form_theorem4),
    validate=lambda alpha, beta, a, b, nu, mu, lam, p: (
        "need a < b" if not a < b else
        _lam0_gate(lam, p, 0.25 / min(1.0 + nu, 1.0 + mu) ** 2)),
))
_register(CaseFamily(
    "lauricella",
    ("alpha", "beta", "alphas", "xs", "lam", "p"),
    {"alpha": [0.6], "beta": [1.4], "alphas": [[0.3, 0.5, 0.7]],
     "xs": [[0.2, -0.15, 0.3]], "lam": [1.0, 2.0], "p": DEFAULT_P_LIST},
    _euler_builder("lauricella", tn_spec, closed_form_lauricella),
))
_register(CaseFamily(
    "ex4.1",
    ("alpha", "alpha1", "x1", "lam", "p"),
    {"alpha": [0.9], "alpha1": [0.6], "x1": [0.3, -0.4], "lam": [1.0, 2.0],
     "p": DEFAULT_P_LIST},
    partial(application_case, "4.1"),
))
_register(CaseFamily(
    "ex4.2",
    ("alpha", "beta", "alpha1", "alpha2", "x1", "lam", "p"),
    {"alpha": [1.0], "beta": [1.4], "alpha1": [0.3], "alpha2": [0.4],
     "x1": [0.25], "lam": [0.5, 1.0], "p": DEFAULT_P_LIST},
    partial(application_case, "4.2"),
))
_register(CaseFamily(
    "ex4.2-2f2",
    ("alpha", "beta", "alpha1", "alpha2", "x1", "p"),
    {"alpha": [1.0], "beta": [1.4], "alpha1": [0.3], "alpha2": [0.4],
     "x1": [0.25], "p": DEFAULT_P_LIST},
    partial(application_case, "4.2-2f2"),
))
_register(CaseFamily(
    "ex4.3",
    ("alpha", "beta", "alpha1", "x1", "lam", "p"),
    {"alpha": [0.9], "beta": [1.3], "alpha1": [0.8], "x1": [0.45], "lam": [1.0],
     "p": DEFAULT_P_LIST},
    partial(application_case, "4.3"),
))
_register(CaseFamily(
    "ex4.4",
    ("alpha", "beta", "a", "b", "lam", "p"),
    {"alpha": [1.1], "beta": [0.9], "a": [0.0, -1.0], "b": [1.0, 3.0],
     "lam": [0.5, 1.0, 2.0], "p": DEFAULT_P_LIST},
    partial(application_case, "4.4"),
    validate=lambda alpha, beta, a, b, lam, p: ("need a < b" if not a < b else None),
))
_register(CaseFamily(
    "ex4.5",
    ("alpha", "nu", "mu", "lam", "p"),
    {"alpha": [0.8, 1.6], "nu": [0.4], "mu": [1.1], "lam": [1.0, 2.0],
     "p": DEFAULT_P_LIST},
    partial(application_case, "4.5"),
))
_register(CaseFamily(
    "gen-binomial",
    ("a", "r", "s", "delta", "omega", "lam", "p", "t"),
    {"a": [0.7], "r": [0.8], "s": [2.1], "delta": [1.0], "omega": [1.0],
     "lam": [1.0, 2.0], "p": [0.0, 0.6, 0.3 + 0.3j], "t": [0.3, -0.25]},
    _build_gen_binomial,
))
_register(CaseFamily(
    "gen-humbert",
    ("a", "b", "x", "r", "s", "delta", "omega", "lam", "p", "t"),
    {"a": [0.8], "b": [1.7], "x": [0.6], "r": [0.8], "s": [2.1], "delta": [1.0],
     "omega": [1.0], "lam": [1.0], "p": [0.0, 0.6], "t": [0.3]},
    _build_gen_humbert,
))
_register(CaseFamily(
    "gen-gegenbauer",
    ("a", "r", "s", "delta", "omega", "lam", "p", "t"),
    {"a": [0.35], "r": [1.5], "s": [3.0], "delta": [1.0], "omega": [1.0],
     "lam": [1.0, 2.0], "p": [0.0, 0.6], "t": [0.3, 0.2 + 0.2j]},
    _build_gen_gegenbauer,
))
_register(CaseFamily(
    "gen-symmetric",
    ("a", "r", "omega", "lam", "p", "t"),
    {"a": [0.7], "r": [0.9], "omega": [1.0], "lam": [1.0], "p": [0.0, 0.6],
     "t": [0.25]},
    _build_gen_symmetric,
))
_register(CaseFamily(
    "theorem6-binomial",
    ("a", "alphas", "xs", "r", "s", "delta", "omega", "lam", "p", "t"),
    {"a": [0.5], "alphas": [[0.4, 0.7]], "xs": [[0.3, -0.2]], "r": [0.8], "s": [2.1],
     "delta": [1.0], "omega": [1.0], "lam": [1.0], "p": [0.0, 0.6], "t": [0.25]},
    _build_theorem6,
))
_register(CaseFamily(
    "theorem1-random",
    ("draw", "seed"),
    {"draw": [0, 1, 2], "seed": [0]},
    _build_theorem1_random,
))


def family_names() -> list[str]:
    return sorted(FAMILIES)


def build_case(family: str, params: dict) -> IdentityCase:
    if family not in FAMILIES:
        raise DomainError(f"unknown case family {family!r}")
    return FAMILIES[family].build(params)


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
