"""Benchmark workloads: seeded lists of verify points.

A task is ``(family, params, tolerance)``, the argument triple of
``wrightlab.verify.evaluate_point``.  Every workload is consumed in passes:
``passes(workload, seed)`` yields one list of tasks per pass.  The first
pass, over which ``max_rel_err`` and the exact per-layer counts are taken,
holds the same points for every seed, so both repeat exactly.

Why these three workloads:

- ``verify-default`` is the grid ``wrightlab verify`` runs: 18 families,
  368 points, in an order shuffled by the seed.  Every layer works in it,
  the closed forms take most of its time, a fifth of its inner series
  calls repeat an earlier ladder, and the 12 theorem2 points, each costing
  d + 1 inner series per diagonal, set its latency tail.
- ``t1-grid`` is the 3,888-point theorem1 cross product of the acceptance
  suite, in a seed-shuffled order.  Each inner ladder recurs 36 times and
  two thirds of the oracle calls take an elementary Mittag-Leffler node
  path, so kernel, inner-series and reuse changes show here most.
- ``random-unshared`` draws theorem1, theorem3 and theorem4 points in the
  ratio 1:1:3 with continuous lambda.  No ladder repeats (every pass draws
  fresh points) and no oracle call is elementary, so it exercises the
  quadrature layer and bypasses any reuse, exposing the per-call cost of a
  cache that never hits.  Its first pass is a fixed reference draw.
"""

from __future__ import annotations

import itertools
import random

from wrightlab.catalog import family_names, iter_default_points

# The per-case tolerance `wrightlab verify` applies by default.
TOLERANCE = 1e-8

T1_AXES = {
    "alpha": (0.5, 1.0, 2.5),
    "beta": (0.5, 1.0, 2.5),
    "alpha1": (0.3, 1.2),
    "alpha2": (0.3, 1.2),
    "x1": (-0.2, 0.3, 0.5),
    "x2": (-0.2, 0.3, 0.5),
    "lam": (0.5, 1.0, 2.0),
    "p": (0.0, 0.8, -0.8, 0.5 + 0.5j),
}

RANDOM_PASS_DRAWS = 1000
# theorem1 : theorem3 : theorem4 = 1 : 1 : 3
RANDOM_PATTERN = ("theorem1", "theorem3", "theorem4", "theorem4", "theorem4")


def verify_default_tasks(seed: int) -> list:
    """The built-in verify grid of `wrightlab verify`, in a seed-shuffled order.

    The grid itself stays at verify's default seed: its theorem1-random
    draws move the worst rel_err by up to 15% from one verify seed to the
    next, while the order changes no record.
    """
    tasks = [(family, point, TOLERANCE)
             for family in family_names() for point in iter_default_points(family)]
    random.Random(seed).shuffle(tasks)
    return tasks


def t1_grid_tasks(seed: int) -> list:
    tasks = [("theorem1", dict(zip(T1_AXES, values)), TOLERANCE)
             for values in itertools.product(*T1_AXES.values())]
    random.Random(seed).shuffle(tasks)
    return tasks


def _draw(rng: random.Random, family: str) -> dict:
    # alpha, beta, x-like arguments and p follow the catalog's theorem1-random
    # ranges; lambda is continuous so no node series takes an elementary path.
    params = {"alpha": rng.uniform(0.4, 2.2), "beta": rng.uniform(0.4, 2.2)}
    if family == "theorem1":
        params.update(alpha1=rng.uniform(0.2, 1.4), alpha2=rng.uniform(0.2, 1.4),
                      x1=rng.uniform(-0.5, 0.5), x2=rng.uniform(-0.5, 0.5))
    elif family == "theorem3":
        params.update(gamma=rng.uniform(-1.4, 2.0), a=0.0, b=1.0,
                      u=rng.uniform(-0.5, 0.5), v=1.0)
    else:
        params.update(a=0.0, b=rng.uniform(1.0, 2.5),
                      nu=rng.uniform(-0.5, 1.5), mu=rng.uniform(-0.5, 1.5))
    params["lam"] = rng.uniform(0.3, 2.5)
    params["p"] = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    return params


def random_unshared_tasks(seed: int, pass_index: int) -> list:
    # The first pass is one fixed reference draw: the worst of a thousand
    # ~1e-15 rounding errors moves by 10-15% from one draw to the next.
    # Every later pass draws from the seed.
    stream = "reference" if pass_index == 0 else f"{seed}/{pass_index}"
    rng = random.Random(f"random-unshared/{stream}")
    return [(family, _draw(rng, family), TOLERANCE)
            for family in itertools.islice(itertools.cycle(RANDOM_PATTERN), RANDOM_PASS_DRAWS)]


def passes(workload: str, seed: int):
    """Endless iterator of task lists, one per pass."""
    if workload == "random-unshared":
        return (random_unshared_tasks(seed, i) for i in itertools.count())
    tasks = verify_default_tasks(seed) if workload == "verify-default" else t1_grid_tasks(seed)
    return itertools.repeat(tasks)
