"""Grid verification runner and report serialization.

A verification run crosses case families with parameter grids, builds
every point once and dual evaluates it (closed-form series against the
quadrature oracle), and emits one record per point with an explicit
status: pass, fail, skipped-domain (the spec refused the point when it was
built) or error (any other exception).  Reports serialize to a canonical
JSON layout or to CSV with a fixed column set; the two formats convert
losslessly in both directions at the record level.

Two runs with the same config and seed produce byte-identical reports;
the meta timestamp honors SOURCE_DATE_EPOCH, the standard reproducible-
build override.
"""

from __future__ import annotations

import csv
import fnmatch
import io
import json
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import __version__
from .catalog import FAMILIES, family_names, iter_default_points
from .errors import DomainError
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
# A record is its case_name, its params, then these fields in CSV column
# order, each of one shape (_SHAPES).  A pair takes the two columns
# <field>_re and <field>_im.
_RECORD_FIELDS = {
    "closed_form": "pair", "oracle": "pair", "abs_err": "number", "rel_err": "number",
    "terms_used": "number", "node_evals": "number", "status": "status",
}
_STATUSES = ("pass", "fail", "skipped-domain", "error")
_SHAPES = {
    "text": ("a string", lambda v: isinstance(v, str)),
    "object": ("an object", lambda v: isinstance(v, dict)),
    "pair": ("null or an [re, im] pair of numbers",
             lambda v: v is None or isinstance(v, list) and len(v) == 2
             and all(map(_is_number, v))),
    "number": ("null or a number", lambda v: v is None or _is_number(v)),
    "status": ("one of " + ", ".join(_STATUSES), lambda v: v in _STATUSES),
}


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
    def from_dict(cls, raw: dict, overrides: dict | None = None) -> "GridConfig":
        """Validate raw with the fields of overrides (the verify flags) put over it."""
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        raw = {**raw, **(overrides or {})}
        unknown = set(raw) - cls._KEYS
        if unknown:
            raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")
        cfg = cls()
        if "seed" in raw:
            if isinstance(raw["seed"], bool) or not isinstance(raw["seed"], int):
                raise ConfigError("field 'seed' must be an integer")
            cfg.seed = raw["seed"]
        if "format" in raw:
            if raw["format"] not in ("json", "csv"):
                raise ConfigError("field 'format' must be 'json' or 'csv'")
            cfg.fmt = raw["format"]
        if "tolerance" in raw:
            if not _is_tolerance(raw["tolerance"]):
                raise ConfigError("field 'tolerance' must be a positive finite number")
            cfg.tolerance = float(raw["tolerance"])
        if "tolerances" in raw:
            if not isinstance(raw["tolerances"], dict):
                raise ConfigError("field 'tolerances' must be an object")
            for name, tol in raw["tolerances"].items():
                if name not in FAMILIES:
                    raise ConfigError(f"tolerances: unknown case {name!r}")
                if not _is_tolerance(tol):
                    raise ConfigError(f"tolerances[{name!r}] must be a positive finite number")
            cfg.tolerances = {k: float(v) for k, v in raw["tolerances"].items()}
        if "cases" in raw:
            if not isinstance(raw["cases"], list) or not all(isinstance(c, str) for c in raw["cases"]):
                raise ConfigError("field 'cases' must be a list of name patterns")
            if not raw["cases"]:
                raise ConfigError("field 'cases' must name at least one pattern")
            for pattern in raw["cases"]:
                if not fnmatch.filter(FAMILIES, pattern):
                    raise ConfigError(f"cases: pattern {pattern!r} matches no case family")
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
            if isinstance(raw["jobs"], bool) or not isinstance(raw["jobs"], int) or raw["jobs"] < 1:
                raise ConfigError("field 'jobs' must be a positive integer")
            cfg.jobs = raw["jobs"]
        return cfg

    @classmethod
    def from_file(cls, path: str, overrides: dict | None = None) -> "GridConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: "
                              f"{exc.msg}") from exc
        return cls.from_dict(raw, overrides)


_COMPLEX_PARAMS = {"p", "t", "z"}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_tolerance(value) -> bool:
    # NaN compares false and inf would pass every record
    return _is_number(value) and 0.0 < value <= sys.float_info.max


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
    record = {"case_name": family, "params": {k: _encode_value(v) for k, v in params.items()},
              **dict.fromkeys(_RECORD_FIELDS), "status": "error"}
    policy = SeriesPolicy.from_env()
    try:
        try:
            case = FAMILIES[family].build(params)
        except DomainError:
            record["status"] = "skipped-domain"
            return record
        closed = case.closed_form(policy)
        oracle = case.oracle()
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
    except Exception:  # a bad point is an error record, never a crashed run
        pass
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
        import multiprocessing  # only a pool run pays for its import

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
    counts = dict.fromkeys(_STATUSES, 0)
    for record in report["records"]:
        counts[record["status"]] += 1
    line = " ".join([f"points={len(report['records'])}"] + [
        f"{status.removesuffix('-domain')}={n}" for status, n in counts.items()])
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
    """Read a JSON or CSV report; ValueError unless every record holds
    case_name, params and each declared field, each in its shape, and no
    params key is also a report column (its CSV would not read back)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    report = json.loads(text) if text.lstrip().startswith("{") else csv_to_report(text)
    records = report.get("records")
    if not isinstance(records, list):
        raise ValueError("report needs a 'records' list")
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            raise ValueError(f"record {i} is not an object")
        for name, shape in {"case_name": "text", "params": "object", **_RECORD_FIELDS}.items():
            what, fits = _SHAPES[shape]
            if name not in record:
                raise ValueError(f"record {i} lacks {name}")
            if not fits(record[name]):
                raise ValueError(f"record {i}: {name} must be {what}, not {record[name]!r}")
        if clash := sorted(record["params"].keys() & {"case_name", *_VALUE_COLUMNS}):
            raise ValueError(f"record {i}: params must be keyed by parameter names, "
                             f"not by the report column {clash[0]!r}")
    return report


def _columns(name: str, shape: str) -> tuple:
    return (f"{name}_re", f"{name}_im") if shape == "pair" else (name,)


_VALUE_COLUMNS = [column for name, shape in _RECORD_FIELDS.items()
                  for column in _columns(name, shape)]


def _cells(record: dict) -> dict:
    """The record's CSV cells by column: case_name and status as text, every
    other value as JSON, and no cell (an empty one) for a null."""
    cells = {name: json.dumps(value) for name, value in record["params"].items()
             if value is not None}
    cells["case_name"] = record["case_name"]
    for name, shape in _RECORD_FIELDS.items():
        value = record[name]
        if shape == "status":
            cells[name] = value
        elif value is not None:
            cells.update(zip(_columns(name, shape),
                             map(json.dumps, value if shape == "pair" else [value])))
    return cells


def _record(row: dict, params: list) -> dict:
    """The record whose cells _cells writes as row."""
    record = {"case_name": row["case_name"],
              "params": {name: json.loads(row[name]) for name in params if row[name] != ""}}
    for name, shape in _RECORD_FIELDS.items():
        values = [row[column] for column in _columns(name, shape)]
        if shape != "status":
            values = [None if cell == "" else json.loads(cell) for cell in values]
        record[name] = values if shape == "pair" and values[0] is not None else values[0]
    return record


def report_to_csv(report: dict) -> str:
    """Fixed-column CSV: case_name, sorted param columns, then the value columns."""
    records = report["records"]
    params = sorted({name for record in records for name in record["params"]})
    buf = io.StringIO()
    writer = csv.DictWriter(buf, ["case_name", *params, *_VALUE_COLUMNS], lineterminator="\n")
    writer.writeheader()
    writer.writerows(map(_cells, records))
    return buf.getvalue()


def csv_to_report(text: str) -> dict:
    """Rebuild the record list from CSV output (meta is not carried by CSV)."""
    reader = csv.DictReader(io.StringIO(text))  # blank lines are skipped
    try:
        header, rows = reader.fieldnames or [], list(reader)
    except csv.Error as exc:
        raise ValueError(f"CSV parse error: {exc}") from exc
    params = header[1:len(header) - len(_VALUE_COLUMNS)]
    if header[:1] != ["case_name"] or header[1 + len(params):] != _VALUE_COLUMNS:
        raise ValueError("a report must be a JSON object or a CSV with the record header")
    if clash := sorted(set(params) & {"case_name", *_VALUE_COLUMNS}):
        raise ValueError(f"CSV header: a parameter column is named {clash[0]!r}, a report column")
    for i, row in enumerate(rows):
        if None in row or None in row.values():
            raise ValueError(f"record {i}: its CSV row does not have the header's "
                             f"{len(header)} cells")
    return {"meta": {}, "records": [_record(row, params) for row in rows]}
