"""wrightlab benchmark: dual-evaluation throughput and latency per workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A point is one ``wrightlab.verify.evaluate_point`` call: catalog check and
build, closed-form series, tanh-sinh oracle and comparison.  Each workload
(see workloads.py) runs in a closed loop from one process for S seconds,
and stops at the end of a pass.

``--trace 0`` prints the end-to-end metrics and installs no wrapper.
Throughput and latency are gated in "ref", units of the time of the
host-speed kernel that runs after every point (hostspeed.py), because the
speed of a host shared with other virtual machines can drift by 15-20% from
run to run; the wall-clock figures are printed beside them.
``--trace 1`` installs the span wrappers of spans.py and prints the
per-layer metrics; the exact counts are taken over the first pass.  The
``verify.*`` metrics come, on every workload, from serial passes of the
default verify grid alternating with runs of that grid through
``run_verification`` with ``jobs=2``, untraced.  Both modes
check every point against its tolerance, and the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The full
result, with the machine description, goes to
``.bench_out/<workload>-seed<N>-trace<T>.json`` and, when traced, the spans
to ``.bench_out/spans-<workload>-seed<N>.tsv.gz``.

Only the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter_ns

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 7
POOL_REPEATS = 3
REPLAY_REPEATS = 5
# Points per block.  Throughput is the median over blocks, and a point's
# cost in ref divides its latency by its block's mean kernel time.
BLOCK = {"verify-default": 368, "t1-grid": 486, "random-unshared": 250}
# The tail is the highest of the 99.9th, 99.5th and 99th percentiles that
# keeps at least ten samples beyond it, on every workload, at half the
# throughput of the seed commit.  It is fixed so that runs at different
# speeds report the same percentile.
TAIL_PERCENTILE = 99.5


def import_program():
    """Put the checkout's src/ first on sys.path and import wrightlab from it."""
    if not (SRC / "wrightlab" / "__init__.py").is_file():
        sys.exit(f"bench: no wrightlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wrightlab

    if pathlib.Path(wrightlab.__file__).resolve().parent != SRC / "wrightlab":
        sys.exit(f"bench: imported wrightlab from {wrightlab.__file__}, not from {SRC}")


def machine_info() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of SETUP_REPEATS fresh processes doing the set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter_ns()
        subprocess.run([sys.executable, str(ROOT / "bench" / "setup_probe.py"), workload,
                        str(seed)], check=True, cwd=ROOT)
        times.append((perf_counter_ns() - start) / 1e9)
    return statistics.median(times)


class Tally:
    """Evaluates points and keeps the status and correctness of every one."""

    def __init__(self):
        self.status = Counter()
        self.problems: list[str] = []

    def evaluate(self, evaluate_point, task):
        """The point's record, or None when it raised."""
        try:
            record = evaluate_point(*task)
        except Exception:  # a raising point is a failed point, not a crashed run
            if self.status["exception"] == 0:
                traceback.print_exc()
            self.status["exception"] += 1
            return None
        self.status[record["status"]] += 1
        return record

    @property
    def attempted(self) -> int:
        return sum(self.status.values())

    @property
    def failed(self) -> int:
        return sum(self.status[s] for s in ("fail", "error", "exception"))

    def check_equal(self, what: str, got, expected):
        if got != expected:
            self.problems.append(f"{what} differ")


def max_rel_err(records) -> float:
    return max(r["rel_err"] for r in records if r is not None and r["rel_err"] is not None)


@dataclass
class Run:
    """What a closed loop measured: per point, its latency and the kernel time after it."""

    block: int
    latencies: list = field(default_factory=list)  # ns per point
    kernel: list = field(default_factory=list)  # ns of the host-speed kernel after each point
    first: list = field(default_factory=list)  # records of the first pass

    def blocks(self):
        """(point ns, kernel ns) summed over each block of points."""
        b = self.block
        return [(sum(self.latencies[i:i + b]), sum(self.kernel[i:i + b]))
                for i in range(0, len(self.latencies), b)]

    def costs(self) -> list:
        """Each point's latency in ref: units of its block's mean kernel time."""
        b = self.block
        out = []
        for i in range(0, len(self.latencies), b):
            mean_kernel = sum(self.kernel[i:i + b]) / b
            out.extend(ns / mean_kernel for ns in self.latencies[i:i + b])
        return out


def run_passes(evaluate_point, pass_iter, seconds: float, tally: Tally, block: int) -> Run:
    """Closed loop over whole passes until `seconds` have passed.

    Whole passes keep the mix of points the same in every run; every pass is
    a whole number of blocks.  A pass that repeats the first pass's task
    list must repeat its records.  The host-speed kernel runs after every
    point, outside its latency.
    """
    from hostspeed import reference_ns

    run = Run(block)
    first_tasks = None
    deadline = perf_counter_ns() + int(seconds * 1e9)
    for pass_no, tasks in enumerate(pass_iter):
        first_tasks = first_tasks or tasks
        repeats = [] if pass_no > 0 and tasks is first_tasks else None
        for task in tasks:
            start = perf_counter_ns()
            record = tally.evaluate(evaluate_point, task)
            end = perf_counter_ns()
            run.latencies.append(end - start)
            run.kernel.append(reference_ns())
            if pass_no == 0:
                run.first.append(record)
            elif repeats is not None:
                repeats.append(record)
        if repeats is not None:
            tally.check_equal("repeated-pass records", repeats, run.first)
        if end >= deadline:
            return run
    raise AssertionError("pass iterator ended")


def percentile(sorted_values, q: float):
    """Nearest-rank percentile; also returns how many samples lie beyond it."""
    rank = max(1, math.ceil(len(sorted_values) * q / 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def end_to_end(workload: str, seed: int, seconds: float, tally: Tally, detail: dict) -> dict:
    import workloads
    from wrightlab.verify import evaluate_point

    setup_s = setup_seconds(workload, seed)
    pass_iter = workloads.passes(workload, seed)
    first_tasks = next(pass_iter)
    tally.evaluate(evaluate_point, first_tasks[0])  # what set-up paid for; not timed

    run = run_passes(evaluate_point, itertools.chain([first_tasks], pass_iter), seconds, tally,
                     BLOCK[workload])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workload == "verify-default":
        pool_check(run.first, tally)
    blocks = run.blocks()
    latencies = sorted(run.latencies)
    costs = sorted(run.costs())
    tail_ms, beyond = percentile(latencies, TAIL_PERCENTILE)
    # Wall-clock figures, as a user saw them in this run; they drift with the
    # host's speed, so the gated figures below are in ref (hostspeed.py).
    wall = {
        "points_per_s": (statistics.median(run.block * 1e9 / ns for ns, _ in blocks), "1/s"),
        "point_p50_ms": (percentile(latencies, 50.0)[0] / 1e6, "ms"),
        "point_tail_ms": (tail_ms / 1e6, "ms"),
        "kernel_us": (statistics.median(run.kernel) / 1e3, "us"),
    }
    detail.update(samples=len(latencies), tail_percentile=TAIL_PERCENTILE,
                  tail_samples_beyond=beyond, status=dict(tally.status),
                  failed_fraction=tally.failed / tally.attempted,
                  skipped_domain=tally.status["skipped-domain"], wall=wall,
                  block_rates=[run.block * 1e9 / ns for ns, _ in blocks])
    return {
        "setup_s": (setup_s, "s"),
        "points_per_kref": (statistics.median(1000.0 * k / ns for ns, k in blocks), "1/kref"),
        "point_p50_ref": (percentile(costs, 50.0)[0], "ref"),
        "point_tail_ref": (percentile(costs, TAIL_PERCENTILE)[0], "ref"),
        "max_rel_err": (max_rel_err(run.first), "ratio"),
        "ok_fraction": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def pool_check(serial_records: list, tally: Tally) -> float:
    """Run the default grid through run_verification(jobs=2); return its wall time (s).

    Its records must equal the serial records of the same grid.
    """
    from wrightlab.verify import GridConfig, run_verification

    expected = sorted(serial_records, key=lambda r: (
        r["case_name"], json.dumps(r["params"], sort_keys=True)))
    start = perf_counter_ns()
    report = run_verification(GridConfig(jobs=2))
    wall = (perf_counter_ns() - start) / 1e9
    tally.check_equal("jobs=2 and serial records", report["records"], expected)
    return wall


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


def per_layer(workload: str, seed: int, seconds: float, tally: Tally, detail: dict) -> dict:
    import workloads
    from spans import INNER_NAMES, Tracer, layer_times
    from wrightlab import scalars, verify

    pass_iter = workloads.passes(workload, seed)
    first_tasks = next(pass_iter)
    tally.evaluate(verify.evaluate_point, first_tasks[0])  # fill the node cache untraced

    tracer = Tracer()
    traced_point = tracer.span("verify.evaluate_point", verify.evaluate_point)
    ids = itertools.count()
    counted = len(first_tasks)

    def point(*task):
        tracer.point = next(ids)
        tracer.counting = tracer.point < counted  # exact counts over the first pass
        return traced_point(*task)

    block = BLOCK[workload]
    tracer.install()
    try:
        run = run_passes(point, itertools.chain([first_tasks], pass_iter), seconds, tally,
                         block)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.tsv.gz")
    times = layer_times(tracer.spans)
    tracer.spans = []
    points = len(run.latencies)

    # Tracing overhead: each point of the first block untraced, then traced
    # right after it, so that both see the same machine speed.  Tracing must
    # not change a record.
    plain_ns = traced_ns = 0
    untraced = []
    for task in first_tasks[:block]:
        start = perf_counter_ns()
        untraced.append(tally.evaluate(verify.evaluate_point, task))
        plain_ns += perf_counter_ns() - start
        tracer.install()
        try:
            start = perf_counter_ns()
            tally.evaluate(point, task)
            traced_ns += perf_counter_ns() - start
        finally:
            tracer.uninstall()
    tally.check_equal("traced and untraced records", run.first[:block], untraced)

    args = tracer.log_gamma_args
    replay = []
    kernel = scalars.log_gamma_signed
    for _ in range(REPLAY_REPEATS):
        start = perf_counter_ns()
        for x in args:
            kernel(x)
        replay.append((perf_counter_ns() - start) / max(len(args), 1))

    total, own = times["total"], times["self"]
    inner_ns = sum(total.get(f"series.{name}", 0) for name in INNER_NAMES)
    oracle_ns = total.get("quadrature.oracle", 0)
    per_point = 1e6 * points  # ns total -> ms per point
    metrics = {
        "scalars.log_gamma_calls": (tracer.log_gamma_calls / counted, "calls/point"),
        "scalars.log_gamma_ns": (statistics.median(replay), "ns/call"),
        "series.inner_calls": (tracer.inner_calls / counted, "calls/point"),
        "series.inner_terms": (tracer.inner_terms / counted, "terms/point"),
        "series.inner_ms": (inner_ns / per_point, "ms/point"),
        "series.inner_repeat_share": (tracer.inner_repeats / max(tracer.inner_calls, 1),
                                      "ratio"),
        "series.outer_terms": (tracer.outer_terms / counted, "terms/point"),
        "identities.closed_form_ms": (total.get("identities.closed_form", 0) / per_point,
                                      "ms/point"),
        "identities.self_ms": (own.get("identities.closed_form", 0) / per_point, "ms/point"),
        "quadrature.oracle_ms": (oracle_ns / per_point, "ms/point"),
        "quadrature.node_evals": (tracer.node_evals / counted, "nodes/point"),
        "quadrature.ms_per_node": ((oracle_ns / per_point) / max(tracer.node_evals / counted, 1),
                                   "ms/node"),
        "catalog.build_ms": ((total.get("catalog.check", 0) + total.get("catalog.build", 0))
                             / per_point, "ms/point"),
    }
    metrics["trace.overhead_share"] = (traced_ns / plain_ns - 1.0, "ratio")
    metrics.update(verify_layer(seed, tally))
    detail.update(traced_points=points, counted_points=counted,
                  log_gamma_args_replayed=len(args), status=dict(tally.status))
    return metrics


def verify_layer(seed: int, tally: Tally) -> dict:
    """Per-family time of serial passes of the default grid, and the jobs=2 pool.

    Serial passes and pool runs alternate, so that both see the same spells
    of machine speed; each figure is the median over POOL_REPEATS.
    """
    import workloads
    from wrightlab.catalog import family_names
    from wrightlab.verify import evaluate_point

    tasks = workloads.verify_default_tasks(seed)
    family_ns = {name: [] for name in family_names()}
    busy_s, wall_s = [], []
    for _ in range(POOL_REPEATS):
        spent = Counter()
        records = []
        for task in tasks:
            start = perf_counter_ns()
            records.append(tally.evaluate(evaluate_point, task))
            spent[task[0]] += perf_counter_ns() - start
        for name, times in family_ns.items():
            times.append(spent[name])
        busy_s.append(sum(spent.values()) / 1e9)
        wall_s.append(pool_check(records, tally))
    busy = statistics.median(busy_s)
    wall = statistics.median(wall_s)
    metrics = {f"verify.family_ms.{name}": (statistics.median(times) / 1e6, "ms/pass")
               for name, times in family_ns.items()}
    metrics["verify.pool_overhead_s"] = (wall - busy / 2.0, "s")
    metrics["verify.parallel_efficiency"] = (busy / (2.0 * wall), "ratio")
    metrics["verify.jobs2_points_per_s"] = (len(records) / wall, "1/s")
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BLOCK))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    machine = machine_info()
    tally = Tally()
    detail: dict = {}
    measure = per_layer if args.trace else end_to_end
    metrics = measure(args.workload, args.seed, args.seconds, tally, detail)
    correct = tally.failed == 0 and not tally.problems

    for name, (value, unit) in metrics.items():
        note = ""
        if name == "point_tail_ref":
            note = (f"  (p{detail['tail_percentile']}: {detail['tail_samples_beyond']} of "
                    f"{detail['samples']} samples beyond)")
        print(f"{name} = {value!r} {unit}{note}")
    for name, (value, unit) in detail.get("wall", {}).items():
        print(f"{name} = {value!r} {unit}  (wall clock, not gated)")
    for key, value in detail.items():
        if key not in ("wall", "block_rates"):
            print(f"# {key}: {value}")
    print(f"# machine: {machine}")
    for problem in tally.problems:
        print(f"# CHECK FAILED: {problem}")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "machine": machine, "detail": detail,
                   "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                   **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
