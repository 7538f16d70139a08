"""Golden outputs of `wrightlab eval`, and the eval examples of the README.

tests/data/eval_golden.json holds one call per eval function, plus domain
errors, with the stdout and exit code the CLI printed for it.  Calls that
exit 2 print nothing on stdout and one "domain error: ..." line on stderr,
whose wording is not pinned.
"""

import json
import pathlib
import shlex

import pytest

from wrightlab.cli import EVAL_FUNCTIONS, main

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
