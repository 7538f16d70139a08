"""Grid verification runner and report serialization.

A verification run crosses case families with parameter grids, dual
evaluates every point (closed-form series against the quadrature oracle),
and emits one record per point with an explicit status: pass, fail,
skipped-domain or error.  Reports serialize to a canonical JSON layout or
to CSV with a fixed column set; the two formats convert losslessly in both
directions at the record level.

Two runs with the same config and seed produce byte-identical reports;
the meta timestamp honors SOURCE_DATE_EPOCH, the standard reproducible-
build override.
"""

from __future__ import annotations

import csv
import fnmatch
import io
import json
import multiprocessing
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import __version__
from .catalog import FAMILIES, family_names, iter_default_points
from .errors import WrightLabError
from .quadrature import QuadraturePolicy
from .series import SeriesPolicy

__all__ = [
    "ConfigError",
    "GridConfig",
    "run_verification",
    "summarize",
    "report_to_csv",
    "csv_to_report",
    "write_report",
    "load_report",
]

REL_ERR_FLOOR = 1e-300
_FIXED_COLUMNS_TAIL = [
    "closed_form_re", "closed_form_im", "oracle_re", "oracle_im",
    "abs_err", "rel_err", "terms_used", "node_evals", "status",
]


class ConfigError(ValueError):
    """Malformed verification config; message names the offending field."""


@dataclass
class GridConfig:
    """Verification run description, loadable from a JSON file."""

    seed: int = 0
    fmt: str = "json"
    tolerance: float = 1e-8
    tolerances: dict = field(default_factory=dict)
    cases: list | None = None
    grids: dict = field(default_factory=dict)
    jobs: int = 1

    _KEYS = {"seed", "format", "tolerance", "tolerances", "cases", "grids", "jobs"}

    @classmethod
    def from_dict(cls, raw: dict) -> "GridConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(raw) - cls._KEYS
        if unknown:
            raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")
        cfg = cls()
        if "seed" in raw:
            if not isinstance(raw["seed"], int):
                raise ConfigError("field 'seed' must be an integer")
            cfg.seed = raw["seed"]
        if "format" in raw:
            if raw["format"] not in ("json", "csv"):
                raise ConfigError("field 'format' must be 'json' or 'csv'")
            cfg.fmt = raw["format"]
        if "tolerance" in raw:
            if not isinstance(raw["tolerance"], (int, float)) or raw["tolerance"] <= 0:
                raise ConfigError("field 'tolerance' must be a positive number")
            cfg.tolerance = float(raw["tolerance"])
        if "tolerances" in raw:
            if not isinstance(raw["tolerances"], dict):
                raise ConfigError("field 'tolerances' must be an object")
            for name, tol in raw["tolerances"].items():
                if name not in FAMILIES:
                    raise ConfigError(f"tolerances: unknown case {name!r}")
                if not isinstance(tol, (int, float)) or tol <= 0:
                    raise ConfigError(f"tolerances[{name!r}] must be a positive number")
            cfg.tolerances = {k: float(v) for k, v in raw["tolerances"].items()}
        if "cases" in raw:
            if not isinstance(raw["cases"], list) or not all(isinstance(c, str) for c in raw["cases"]):
                raise ConfigError("field 'cases' must be a list of name patterns")
            cfg.cases = list(raw["cases"])
        if "grids" in raw:
            if not isinstance(raw["grids"], dict):
                raise ConfigError("field 'grids' must be an object")
            for name, grid in raw["grids"].items():
                if name not in FAMILIES:
                    raise ConfigError(f"grids: unknown case {name!r}")
                if not isinstance(grid, dict):
                    raise ConfigError(f"grids[{name!r}] must be an object")
                for pname, values in grid.items():
                    if pname not in FAMILIES[name].param_names:
                        raise ConfigError(f"grids[{name!r}]: unknown parameter {pname!r}")
                    _check_grid_values(name, pname, values)
            cfg.grids = raw["grids"]
        if "jobs" in raw:
            if not isinstance(raw["jobs"], int) or raw["jobs"] < 1:
                raise ConfigError("field 'jobs' must be a positive integer")
            cfg.jobs = raw["jobs"]
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "GridConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: "
                              f"{exc.msg}") from exc
        return cls.from_dict(raw)


_COMPLEX_PARAMS = {"p", "t", "z"}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_grid_values(family: str, name: str, values):
    """Grid values are numbers; [re, im] pairs for p/t/z; lists of numbers for
    the list-valued parameters (alphas, xs)."""
    vector = isinstance(FAMILIES[family].defaults[name][0], list)
    if vector:
        what = "a list of numbers"
    elif name in _COMPLEX_PARAMS:
        what = "a number or an [re, im] pair"
    else:
        what = "a number"
    for value in values if isinstance(values, list) else [values]:
        if _is_number(value):
            ok = not vector
        elif isinstance(value, list) and all(_is_number(x) for x in value):
            ok = vector or (name in _COMPLEX_PARAMS and len(value) == 2)
        else:
            ok = False
        if not ok:
            raise ConfigError(f"grids[{family!r}][{name!r}]: value {value!r} is not {what}")


def _decode_value(name, value):
    """Config values: scalars pass through; for complex-typed parameters a
    two-element [re, im] list becomes a complex number."""
    if (name in _COMPLEX_PARAMS and isinstance(value, list) and len(value) == 2
            and all(isinstance(x, (int, float)) for x in value)):
        return complex(value[0], value[1])
    return value


def _encode_value(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def _selected_families(cfg: GridConfig) -> list[str]:
    names = family_names()
    if cfg.cases is None:
        return names
    chosen = [n for n in names if any(fnmatch.fnmatch(n, pat) for pat in cfg.cases)]
    return chosen


def _grid_points(cfg: GridConfig, family: str):
    override = dict(cfg.grids.get(family, {}))
    if family == "theorem1-random":
        # the draws follow the run seed unless the grid sets the seed itself
        override.setdefault("seed", cfg.seed)
    return iter_default_points(family, override)


def evaluate_point(family: str, raw_params: dict, tolerance: float) -> dict:
    """Dual evaluate one grid point and return its report record."""
    params = {k: _decode_value(k, v) for k, v in raw_params.items()}
    record = {
        "case_name": family,
        "params": {k: _encode_value(v) for k, v in params.items()},
        "closed_form": None,
        "oracle": None,
        "abs_err": None,
        "rel_err": None,
        "terms_used": None,
        "node_evals": None,
        "status": "error",
    }
    fam = FAMILIES[family]
    reason = fam.check(params)
    if reason is not None:
        record["status"] = "skipped-domain"
        return record
    try:
        case = fam.build(params)
        spolicy = SeriesPolicy.from_env()
        qpolicy = QuadraturePolicy()
        closed = case.closed_form(spolicy)
        oracle = case.oracle(qpolicy, spolicy)
        abs_err = abs(closed.value - oracle.value)
        rel_err = abs_err / max(abs(oracle.value), REL_ERR_FLOOR)
        record.update(
            closed_form=[closed.value.real, closed.value.imag],
            oracle=[oracle.value.real, oracle.value.imag],
            abs_err=abs_err,
            rel_err=rel_err,
            terms_used=closed.terms_used,
            node_evals=oracle.evaluations,
            status="pass" if rel_err <= tolerance else "fail",
        )
    except WrightLabError:
        record["status"] = "error"
    return record


def _point_key(record: dict) -> tuple:
    return (record["case_name"], json.dumps(record["params"], sort_keys=True))


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        moment = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    else:
        moment = datetime.now(tz=timezone.utc)
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


def _eval_star(args):
    return evaluate_point(*args)


def run_verification(cfg: GridConfig) -> dict:
    """Evaluate every configured grid point and assemble the report."""
    tasks = []
    for family in _selected_families(cfg):
        tol = cfg.tolerances.get(family, cfg.tolerance)
        for point in _grid_points(cfg, family):
            tasks.append((family, point, tol))
    if cfg.jobs > 1 and len(tasks) > 1:
        with multiprocessing.Pool(cfg.jobs) as pool:
            records = pool.map(_eval_star, tasks)
    else:
        records = [evaluate_point(*task) for task in tasks]
    records.sort(key=_point_key)
    return {
        "meta": {"seed": cfg.seed, "version": __version__, "timestamp": _timestamp()},
        "records": records,
    }


def summarize(report: dict) -> tuple[str, int]:
    """One summary line plus the process exit code the run deserves."""
    counts = {"pass": 0, "fail": 0, "skipped-domain": 0, "error": 0}
    for record in report["records"]:
        counts[record["status"]] = counts.get(record["status"], 0) + 1
    line = (f"points={len(report['records'])} pass={counts['pass']} fail={counts['fail']} "
            f"skipped={counts['skipped-domain']} error={counts['error']}")
    code = 0 if counts["fail"] == 0 and counts["error"] == 0 else 4
    return line, code


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def report_json_text(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_report(report: dict, path: str, fmt: str = "json"):
    text = report_json_text(report) if fmt == "json" else report_to_csv(report)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def load_report(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return json.loads(text)
    return csv_to_report(text)


def _param_columns(records: list) -> list[str]:
    names = set()
    for record in records:
        names.update(record["params"])
    return sorted(names)


def _cell(value) -> str:
    if value is None:
        return ""
    return json.dumps(value)


def report_to_csv(report: dict) -> str:
    """Fixed-column CSV: case_name, sorted param columns, then the value block."""
    records = report["records"]
    params = _param_columns(records)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["case_name"] + params + _FIXED_COLUMNS_TAIL)
    for record in records:
        row = [record["case_name"]]
        row += [_cell(record["params"].get(name)) for name in params]
        closed = record["closed_form"]
        oracle = record["oracle"]
        row += [
            _cell(closed[0] if closed else None), _cell(closed[1] if closed else None),
            _cell(oracle[0] if oracle else None), _cell(oracle[1] if oracle else None),
            _cell(record["abs_err"]), _cell(record["rel_err"]),
            _cell(record["terms_used"]), _cell(record["node_evals"]),
            record["status"],
        ]
        writer.writerow(row)
    return buf.getvalue()


def csv_to_report(text: str) -> dict:
    """Rebuild the record list from CSV output (meta is not carried by CSV)."""
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows:
        raise ValueError("empty CSV report")
    header = rows[0]
    if len(header) < 1 + len(_FIXED_COLUMNS_TAIL) or header[0] != "case_name":
        raise ValueError("unrecognized CSV report header")
    params = header[1:len(header) - len(_FIXED_COLUMNS_TAIL)]
    records = []
    for row in rows[1:]:
        tail = row[len(params) + 1:]
        pvals = {}
        for name, cell in zip(params, row[1:len(params) + 1]):
            if cell != "":
                pvals[name] = json.loads(cell)
        def num(cell):
            return None if cell == "" else json.loads(cell)
        closed_re, closed_im, oracle_re, oracle_im = (num(c) for c in tail[0:4])
        records.append({
            "case_name": row[0],
            "params": pvals,
            "closed_form": None if closed_re is None else [closed_re, closed_im],
            "oracle": None if oracle_re is None else [oracle_re, oracle_im],
            "abs_err": num(tail[4]),
            "rel_err": num(tail[5]),
            "terms_used": num(tail[6]),
            "node_evals": num(tail[7]),
            "status": tail[8],
        })
    return {"meta": {}, "records": records}
