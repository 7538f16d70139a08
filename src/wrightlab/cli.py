"""Command-line front end: eval, verify and report subcommands.

Exit codes: 0 success; 1 usage or config problems; 2 domain/pole errors;
3 convergence errors; 4 verification runs containing failed or errored
records.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .catalog import build_case, family_names
from .errors import (
    DivergenceError,
    DomainError,
    EvaluationError,
    MaxTermsError,
    NonConvergenceError,
    PoleError,
)
from .identities import (
    BinomialGen,
    GegenbauerGen,
    HumbertGen,
    WrightSpec,
    closed_form_lauricella,
    closed_form_theorem1,
    closed_form_theorem2,
    closed_form_theorem3,
    closed_form_theorem4,
    generating_integral_closed_form,
    t1_spec,
    t2_spec,
    t3_spec,
    t4_spec,
    tn_spec,
)
from .multivar import appell_f1, appell_f3, gegenbauer, humbert_phi2, lauricella_fd
from .quadrature import QuadraturePolicy, evaluate_integral_direct, tanh_sinh_integrate
from .scalars import beta_fn, gamma_fn, log_gamma, pochhammer
from .series import SeriesPolicy, SeriesResult, hyper_pfq, mittag_leffler, wright_psi, \
    wright_psi_normalized
from .verify import ConfigError, GridConfig, load_report, report_json_text, \
    report_to_csv, run_verification, summarize, write_report

# Greek spellings accepted on the command line for convenience.
_KEY_ALIASES = {
    "α": "alpha", "β": "beta", "γ": "gamma", "λ": "lam",
    "lambda": "lam", "ν": "nu", "μ": "mu", "δ": "delta",
    "ω": "omega", "α₁": "alpha1", "α₂": "alpha2",
    "x₁": "x1", "x₂": "x2", "β₁": "beta1", "β₂": "beta2",
}


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    try:
        return complex(text.replace("i", "j"))
    except ValueError:
        return text


def _parse_kv(args: list[str]) -> dict:
    out = {}
    for item in args:
        if "=" not in item:
            raise DomainError(f"expected key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = _KEY_ALIASES.get(key.strip(), key.strip())
        out[key] = _parse_value(value.strip())
    return out


def _as_complex(value) -> complex:
    if isinstance(value, list) and len(value) == 2:
        return complex(value[0], value[1])
    return complex(value)


def _as_pairs(value) -> list[tuple[float, float]]:
    return [(float(a), float(w)) for a, w in value]


def _fmt_complex(z: complex) -> str:
    if z.imag == 0.0:
        return repr(z.real)
    return f"{z.real!r}{z.imag:+}j"


def _print_series(name: str, result: SeriesResult) -> None:
    print(f"{name} value={_fmt_complex(result.value)} "
          f"tail={result.tail_estimate:.3e} terms={result.terms_used}")


def _print_scalar(name: str, value: float) -> None:
    print(f"{name} value={value!r}")


def _print_quadrature(name: str, result) -> None:
    print(f"{name} value={_fmt_complex(result.value)} "
          f"err={result.err_estimate:.3e} evals={result.evaluations}")


def _make_generator(kv: dict):
    kind = kv.pop("gen", "binomial")
    if kind == "binomial":
        return BinomialGen(float(kv.pop("a")), float(kv.pop("x", 1.0)))
    if kind == "gegenbauer":
        return GegenbauerGen(float(kv.pop("a")), float(kv.pop("x", 1.0)))
    if kind == "humbert":
        return HumbertGen(float(kv.pop("a")), float(kv.pop("b")), float(kv.pop("x")))
    raise DomainError(f"unknown generator kind {kind!r}")


# Each integral family: its spec builder, its closed form, and the parameters
# both take before (lam, p), in their order; a and b default to (0, 1).
_FAMILIES = {
    "t1": (t1_spec, closed_form_theorem1, ("alpha", "beta", "alpha1", "alpha2", "x1", "x2")),
    "t2": (t2_spec, closed_form_theorem2, ("alpha", "beta", "alpha1", "alpha2", "x1", "x2")),
    "t3": (t3_spec, closed_form_theorem3, ("alpha", "beta", "gamma", "a", "b", "u", "v")),
    "t4": (t4_spec, closed_form_theorem4, ("alpha", "beta", "a", "b", "nu", "mu")),
    "tn": (tn_spec, closed_form_lauricella, ("alpha", "beta", "alphas", "xs")),
}
_UNIT_INTERVAL = {"a": 0.0, "b": 1.0}


def _family_args(kv: dict, family: str) -> list:
    return [kv.get(name, _UNIT_INTERVAL[name]) if name in _UNIT_INTERVAL else kv[name]
            for name in _FAMILIES[family][2]]


def _euler_spec_from_kv(kv: dict):
    family = kv.pop("family", "t1")
    lam = float(kv.pop("lam"))
    p = _as_complex(kv.pop("p", 0.0))
    if family not in _FAMILIES:
        raise DomainError(f"unknown integral family {family!r}")
    return _FAMILIES[family][0](*_family_args(kv, family), lam, p)


def _closed_form(family: str):
    closed = _FAMILIES[family][1]
    return lambda kv, pol: closed(*_family_args(kv, family), kv["lam"], _as_complex(kv["p"]), pol)


def _wright_spec(kv: dict) -> WrightSpec:
    return WrightSpec(_as_pairs(kv["upper"]), _as_pairs(kv.get("lower", [])))


def _generating(kv: dict, policy: SeriesPolicy) -> SeriesResult:
    gen = _make_generator(kv)
    factors = list(zip(kv.get("alphas", []), kv.get("xs", [])))
    return generating_integral_closed_form(
        gen, kv["r"], kv["s"], kv["delta"], kv["omega"], kv["lam"],
        _as_complex(kv.get("p", 0.0)), _as_complex(kv.get("t", 0.0)), factors, policy)


# name -> (evaluator(kv, policy), printer(name, result)); the order is the
# one "choose one of" lists.
_EVALUATORS = {
    "wright_psi": (
        lambda kv, pol: wright_psi(_wright_spec(kv), _as_complex(kv["z"]), pol),
        _print_series),
    "wright_psi_normalized": (
        lambda kv, pol: wright_psi_normalized(_wright_spec(kv), _as_complex(kv["z"]), pol),
        _print_series),
    "pfq": (
        lambda kv, pol: hyper_pfq([float(v) for v in kv.get("num", [])],
                                  [float(v) for v in kv.get("den", [])],
                                  _as_complex(kv["z"]), pol),
        _print_series),
    "mittag_leffler": (
        lambda kv, pol: mittag_leffler(float(kv["lam"]), _as_complex(kv["z"]), pol),
        _print_series),
    "appell_f1": (
        lambda kv, pol: appell_f1(kv["alpha"], kv["beta1"], kv["beta2"], kv["gamma"],
                                  _as_complex(kv["x"]), _as_complex(kv["y"]), pol),
        _print_series),
    "appell_f3": (
        lambda kv, pol: appell_f3(kv["alpha1"], kv["alpha2"], kv["beta1"], kv["beta2"],
                                  kv["gamma"], _as_complex(kv["x"]), _as_complex(kv["y"]), pol),
        _print_series),
    "humbert_phi2": (
        lambda kv, pol: humbert_phi2(kv["b1"], kv["b2"], kv["c"],
                                     _as_complex(kv["x"]), _as_complex(kv["y"]), pol),
        _print_series),
    "lauricella_fd": (
        lambda kv, pol: lauricella_fd(kv["alpha"], kv["alphas"], kv["gamma"],
                                      [_as_complex(x) for x in kv["xs"]], pol),
        _print_series),
    "gegenbauer": (
        lambda kv, pol: gegenbauer(int(kv["n"]), float(kv["a"]), float(kv["x"])),
        _print_scalar),
    "beta": (lambda kv, pol: beta_fn(float(kv["x"]), float(kv["y"])), _print_scalar),
    "gamma": (lambda kv, pol: gamma_fn(float(kv["x"])), _print_scalar),
    "log_gamma": (lambda kv, pol: log_gamma(float(kv["x"])), _print_scalar),
    "pochhammer": (lambda kv, pol: pochhammer(float(kv["a"]), int(kv["n"])), _print_scalar),
    "theorem1": (_closed_form("t1"), _print_series),
    "theorem2": (_closed_form("t2"), _print_series),
    "theorem3": (_closed_form("t3"), _print_series),
    "theorem4": (_closed_form("t4"), _print_series),
    "lauricella_closed": (_closed_form("tn"), _print_series),
    "generating": (_generating, _print_series),
    "integral_direct": (
        lambda kv, pol: evaluate_integral_direct(_euler_spec_from_kv(kv), QuadraturePolicy(),
                                                 pol),
        _print_quadrature),
}

EVAL_FUNCTIONS = list(_EVALUATORS)


def _cmd_eval(args) -> int:
    if args.function not in EVAL_FUNCTIONS:
        print(f"unknown function {args.function!r}; choose one of: "
              + ", ".join(EVAL_FUNCTIONS), file=sys.stderr)
        return 1
    try:
        kv = _parse_kv(args.params)
        evaluate, printer = _EVALUATORS[args.function]
        printer(args.function, evaluate(kv, SeriesPolicy.from_env()))
        return 0
    except (DomainError, PoleError, OverflowError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, MaxTermsError, NonConvergenceError, EvaluationError) as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 3
    except (KeyError, TypeError, ValueError) as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 1


def _cmd_verify(args) -> int:
    try:
        cfg = GridConfig.from_file(args.config) if args.config else GridConfig()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if args.seed is not None:
        cfg.seed = args.seed
    if args.tolerance is not None:
        cfg.tolerance = args.tolerance
    if args.case:
        cfg.cases = list(args.case)
    if args.jobs is not None:
        cfg.jobs = args.jobs
    if args.format is not None:
        cfg.fmt = args.format
    report = run_verification(cfg)
    write_report(report, args.out, cfg.fmt)
    line, code = summarize(report)
    print(f"{line} -> {args.out}")
    return code


def _cmd_report(args) -> int:
    try:
        report = load_report(args.report)
    except (OSError, ValueError) as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return 1
    text = report_json_text(report) if args.format == "json" else report_to_csv(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wrightlab",
        description="Evaluate special-function series and verify integral identities "
                    "against a quadrature oracle.")
    parser.add_argument("--version", action="version", version=f"wrightlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one registered function")
    p_eval.add_argument("function")
    p_eval.add_argument("params", nargs="*", metavar="key=value")
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", help="dual evaluate identity cases over a grid")
    p_verify.add_argument("--config", default=None, help="JSON grid config path")
    p_verify.add_argument("--out", default="wrightlab-report.json")
    p_verify.add_argument("--format", choices=["json", "csv"], default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--tolerance", type=float, default=None)
    p_verify.add_argument("--case", action="append", metavar="PATTERN",
                          help="case name pattern; repeatable")
    p_verify.add_argument("--jobs", type=int, default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_report = sub.add_parser("report", help="convert a report between json and csv")
    p_report.add_argument("report")
    p_report.add_argument("--format", choices=["json", "csv"], required=True)
    p_report.add_argument("--out", default=None)
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
