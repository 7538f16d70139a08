"""Golden outputs of `wrightlab eval`, and the eval examples of the README.

tests/data/eval_golden.json holds one call per eval function, plus domain
errors, with the stdout and exit code the CLI printed for it.  Calls that
exit 2 print nothing on stdout and one "domain error: ..." line on stderr,
whose wording is not pinned.
"""

import json
import math
import pathlib
import shlex

import pytest

from wrightlab.cli import EVAL_FUNCTIONS, _parse_value, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "data" / "eval_golden.json").read_text(encoding="utf-8"))


def run_eval(args, capsys):
    code = main(["eval"] + args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_golden_covers_every_function():
    assert {entry["args"][0] for entry in GOLDEN} == set(EVAL_FUNCTIONS)


@pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(e["args"]) for e in GOLDEN])
def test_eval_golden(entry, capsys):
    code, out, err = run_eval(entry["args"], capsys)
    assert (code, out) == (entry["exit"], entry["stdout"])
    if code == 2:
        assert err.startswith("domain error: ") and err.count("\n") == 1


def readme_examples():
    """(command words, expected stdout) of each `$ wrightlab eval` line in the README."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    examples = []
    i = 0
    while i < len(lines):
        if not lines[i].startswith("$ wrightlab eval "):
            i += 1
            continue
        command = lines[i][2:]
        while command.endswith("\\"):
            i += 1
            command = command[:-1] + lines[i]
        i += 1
        output = []
        while i < len(lines) and not lines[i].startswith(("$ ", "```")):
            output.append(lines[i] + "\n")
            i += 1
        examples.append((shlex.split(command)[2:], "".join(output)))
    return examples


def test_readme_has_eval_examples():
    assert len(readme_examples()) >= 2


@pytest.mark.parametrize("args, expected", readme_examples(),
                         ids=[" ".join(args) for args, _ in readme_examples()])
def test_readme_eval_example(args, expected, capsys):
    code, out, _ = run_eval(args, capsys)
    assert (code, out) == (0, expected)


# A NaN series argument used to take the z = 0 branch and print the z = 0
# value with exit 0; a NaN weight exited 1 on a float-to-integer conversion.
# An Euler-type spec refuses a NaN p by name (it exited 3 on its first term).
NAN_ARGUMENT = [
    ["mittag_leffler", "lam=1", "z=NaN"],
    ["pfq", "num=[0.5]", "den=[1.5]", "z=NaN"],
    ["wright_psi", "upper=[[1,1]]", "lower=[[1,0.5]]", "z=NaN"],
]
NAN_P = [
    ["theorem1", "alpha=1.2", "beta=0.8", "alpha1=0.5", "alpha2=0.9", "x1=0.3", "x2=-0.25",
     "lam=0.5", "p=NaN"],
    ["theorem2", "alpha=1.5", "beta=1.1", "alpha1=0.4", "alpha2=0.6", "x1=0.2", "x2=0.3",
     "lam=0.5", "p=NaN"],
    ["theorem3", "alpha=0.9", "beta=1.3", "gamma=-0.7", "a=-1", "b=1.5", "u=0.3", "v=1.4",
     "lam=1", "p=NaN"],
    ["theorem4", "alpha=1", "beta=1", "a=0", "b=1", "nu=0", "mu=0", "lam=1", "p=NaN"],
    ["generating", "gen=gegenbauer", "a=0.35", "r=1.5", "s=3", "delta=1", "omega=1", "lam=1",
     "p=NaN", "t=0.3"],
    ["generating", "a=0.5", "alphas=[0.4,0.7]", "xs=[0.3,-0.2]", "r=0.8", "s=2.1", "delta=1",
     "omega=1", "lam=1", "p=NaN", "t=0.25"],
]
NAN_WEIGHT = [
    ["mittag_leffler", "lam=NaN", "z=1"],
    ["theorem1", "alpha=1.2", "beta=0.8", "alpha1=0.5", "alpha2=0.9", "x1=0.3", "x2=-0.25",
     "lam=NaN", "p=1"],
    ["generating", "gen=gegenbauer", "a=0.35", "r=1.5", "s=3", "delta=1", "omega=1",
     "lam=NaN", "p=0.6", "t=0.3"],
    ["generating", "gen=gegenbauer", "a=0.35", "r=1.5", "s=3", "delta=NaN", "omega=1",
     "lam=1", "p=0.6", "t=0.3"],
    ["generating", "gen=gegenbauer", "a=0.35", "r=1.5", "s=3", "delta=1", "omega=NaN",
     "lam=1", "p=0.6", "t=0.3"],
]

# A non-finite field of the family is refused by name.  x1=nan and alpha1=inf
# exited 3 on their first term, nu=inf and v=inf printed value=0.0 with exit 0,
# and delta=inf, like an infinite Mittag-Leffler weight, exited 1 on a
# float-to-integer conversion.
NON_FINITE_FIELD = [
    (["mittag_leffler", "lam=inf", "z=1"], "mittag_leffler weight must be finite"),
    (["theorem1", "alpha=1.2", "beta=0.8", "alpha1=0.5", "alpha2=0.9", "x1=nan", "x2=-0.25",
      "lam=1", "p=0.5"], "x1 must be finite"),
    (["theorem1", "alpha=1.2", "beta=0.8", "alpha1=inf", "alpha2=0.9", "x1=0.3", "x2=-0.25",
      "lam=1", "p=0.5"], "alpha1 must be finite"),
    (["theorem4", "alpha=1", "beta=1", "a=0", "b=1", "nu=inf", "mu=0", "lam=1", "p=0.5"],
     "nu must be finite"),
    (["integral_direct", "family=t4", "alpha=1", "beta=1", "a=0", "b=1", "nu=inf", "mu=0",
      "lam=1", "p=0.5"], "nu must be finite"),
    (["theorem3", "alpha=0.9", "beta=1.3", "gamma=-0.7", "a=0", "b=1", "u=-0.4", "v=inf",
      "lam=1", "p=0.5"], "v must be finite"),
    (["generating", "gen=gegenbauer", "a=0.35", "r=1.5", "s=3", "delta=inf", "omega=1",
      "lam=1", "p=0.6", "t=0.3"], "delta must be finite"),
]


@pytest.mark.parametrize(
    "args, code, message",
    [(a, 3, "convergence error: term 1 is non-finite\n") for a in NAN_ARGUMENT]
    + [(a, 2, "domain error: p must be finite") for a in NAN_P]
    + [(a, 2, "domain error: ") for a in NAN_WEIGHT]
    + [(a, 2, f"domain error: {m}") for a, m in NON_FINITE_FIELD],
    ids=[" ".join(a) for a in NAN_ARGUMENT + NAN_P + NAN_WEIGHT]
    + [" ".join(a) for a, _ in NON_FINITE_FIELD])
def test_nan_is_refused(args, code, message, capsys):
    got, out, err = run_eval(args, capsys)
    assert (got, out) == (code, "")
    assert err.startswith(message)


# `inf` read as a string and `nan` as a complex once the i became a j, so
# these exited 1 on a type error; the spec's check now refuses them by name.
T1_POINT = ["alpha=1.2", "beta=0.8", "alpha1=0.5", "alpha2=0.9", "x1=0.3", "x2=-0.25"]


NON_FINITE = [
    (["theorem1", *T1_POINT, "lam=inf", "p=0.5"], "lam must be finite, got inf"),
    (["integral_direct", "family=t1", *T1_POINT, "lam=0.5", "p=nan"],
     "p must be finite, got (nan+0j)"),
    (["theorem1", *T1_POINT, "lam=1", "p=-inf"], "p must be finite, got (-inf+0j)"),
    (["theorem4", "alpha=Infinity", "beta=1", "a=0", "b=1", "nu=0", "mu=0", "lam=1", "p=0.5"],
     "alpha must be finite, got inf"),
    # a bare inf inside a list was read as the string '[0.4,inf]', 9 alphas long
    (["generating", "a=0.5", "alphas=[0.4,inf]", "xs=[0.3,-0.2]", "r=0.8", "s=2.1", "delta=1",
      "omega=1", "lam=1", "p=0.6", "t=0.25"], "alphas must be finite, got [0.4, inf]"),
]


@pytest.mark.parametrize("args, message", NON_FINITE, ids=[" ".join(a) for a, _ in NON_FINITE])
def test_non_finite_spellings_reach_the_domain_check(args, message, capsys):
    assert run_eval(args, capsys) == (2, "", f"domain error: {message}\n")


def test_value_spellings():
    assert _parse_value("inf") == math.inf and _parse_value("-Infinity") == -math.inf
    assert math.isnan(_parse_value("nan")) and isinstance(_parse_value("nan"), float)
    assert _parse_value("1+2i") == complex(1, 2) and _parse_value("t1") == "t1"
    inner = _parse_value("[[0.4,-inf],[nan,Infinity]]")
    assert inner[0] == [0.4, -math.inf] and math.isnan(inner[1][0]) and inner[1][1] == math.inf
    assert _parse_value("{inf: 1}") == "{inf: 1}" and _parse_value("[0.4,infinite]") == \
        "[0.4,infinite]"


def test_an_infinite_closed_form_is_an_error(capsys):
    # b - a = 5e-324 makes T4's prefactor inf; this printed value=inf+infj with exit 0
    args = ["theorem4", "alpha=1.2", "beta=0.8", "a=0", "b=5e-324", "nu=0.5", "mu=1.5", "lam=2",
            "p=[0.5,0.5]"]
    code, out, err = run_eval(args, capsys)
    assert (code, out) == (3, "")
    assert err == "convergence error: closed form scaled by inf is (inf+infj), tail inf\n"


def test_the_oracle_reports_a_non_finite_node_in_one_line(capsys):
    # the same collapsed interval on the oracle printed four numpy RuntimeWarnings
    # (an error under this suite's warning filter) before its one line
    args = ["integral_direct", "family=t4", "alpha=1.2", "beta=0.8", "a=0", "b=5e-324",
            "nu=0.5", "mu=1.5", "lam=2", "p=[0.5,0.5]"]
    assert run_eval(args, capsys) == (3, "", "convergence error: integrand non-finite at x=0.0\n")


# each printed value=nan or -inf with exit 0
NON_FINITE_SCALAR = [
    (["gegenbauer", "n=2", "a=nan", "x=0.3"], "gegenbauer needs finite a and x, got (nan, 0.3)"),
    (["gegenbauer", "n=0", "a=0.5", "x=-inf"], "gegenbauer needs finite a and x, got (0.5, -inf)"),
    (["beta", "x=inf", "y=1"], "beta needs finite arguments, got (inf, 1.0)"),
    (["beta", "x=1", "y=nan"], "beta needs finite arguments, got (1.0, nan)"),
    (["pochhammer", "a=nan", "n=3"], "pochhammer needs a finite a, got nan"),
    (["pochhammer", "a=-inf", "n=0"], "pochhammer needs a finite a, got -inf"),
]


@pytest.mark.parametrize("args, message", NON_FINITE_SCALAR,
                         ids=[" ".join(a) for a, _ in NON_FINITE_SCALAR])
def test_scalars_refuse_a_non_finite_argument(args, message, capsys):
    assert run_eval(args, capsys) == (2, "", f"domain error: {message}\n")


# a list item that is neither a number nor inf or nan left the whole list a string,
# whose characters the factor count then counted ("got 14 and 2")
BAD_LISTS = [
    (["generating", "a=0.5", "alphas=[0.4,infinity]", "xs=[0.3,-0.2]", "r=0.8", "s=2.1",
      "delta=1", "omega=1", "lam=1", "p=0.6", "t=0.25"],
     "alphas must be a list of numbers, got '[0.4,infinity]'"),
    (["generating", "a=0.5", "alphas=[0.4,0.7]", "xs=[0.3,Inf]", "r=0.8", "s=2.1",
      "delta=1", "omega=1", "lam=1", "p=0.6", "t=0.25"],
     "xs must be a list of numbers, got '[0.3,Inf]'"),
    (["theorem4", "alpha=1", "beta=1", "a=0", "b=1", "nu=0", "mu=0", "lam=1", "p=[0.5,1+2i]"],
     "p must be a list of numbers, got '[0.5,1+2i]'"),
]


@pytest.mark.parametrize("args, message", BAD_LISTS, ids=[" ".join(a) for a, _ in BAD_LISTS])
def test_a_list_that_does_not_parse_is_refused_by_name(args, message, capsys):
    assert run_eval(args, capsys) == (2, "", f"domain error: {message}\n")
