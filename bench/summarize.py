"""Median and quartiles of benchmark results, per workload and metric.

    python3 bench/summarize.py [RESULT.json ...] [--out SUMMARY.json]

Reads the result files run.py writes (by default every
``.bench_out/*-trace*.json``) and prints, for each workload, trace mode and
metric (and the ungated wall-clock figures, as ``wall.*``), the run count,
median, first and third quartile and the spread (Q3 - Q1) / median that the
benchmark's bounds are compared against.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]


def summarize(paths) -> dict:
    values = defaultdict(list)
    units = {}
    machine = None
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        machine = machine or result["machine"]
        group = f"{result['workload']} trace={result['trace']}"
        for name, metric in result["metrics"].items():
            values[group, name].append(metric["value"])
            units[name] = metric["unit"]
        for name, (value, unit) in result["detail"].get("wall", {}).items():
            values[group, f"wall.{name}"].append(value)
            units[f"wall.{name}"] = unit
    summary: dict = {"machine": machine, "groups": {}}
    for (group, name), vals in sorted(values.items()):
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
        summary["groups"].setdefault(group, {})[name] = {
            "runs": len(vals), "unit": units[name], "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="*")
    parser.add_argument("--out")
    args = parser.parse_args()
    paths = args.results or sorted((ROOT / ".bench_out").glob("*-trace*.json"))
    summary = summarize(paths)
    for group, metrics in summary["groups"].items():
        print(group)
        for name, s in metrics.items():
            print(f"  {name:36s} n={s['runs']:2d} median={s['median']:.6g} {s['unit']}"
                  f"  q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
