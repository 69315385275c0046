"""``cli.parse_args`` against the argparse parser it replaced.

``conftest.build_parser`` is that parser, unchanged but for its int
options, which read ASCII decimals as the command line does.  On every
command line both must parse to the same attributes, or both must exit
with the same code: 2 for a usage error, 0 for help.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_parser
from powercrit.cli import COMMANDS, main, parse_args


def outcome(parse, argv):
    """The attributes `parse` gives `argv` (``func`` left out), or its exit
    code, with what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            attrs = vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    attrs.pop("func", None)
    return attrs, out.getvalue(), err.getvalue()


def assert_parsers_agree(argv):
    oracle, _, _ = outcome(lambda a: build_parser().parse_args(a), argv)
    got, out, err = outcome(parse_args, argv)
    assert got == oracle, argv
    if got == 2:
        usage, error = err.split("\n", 1)
        assert usage.startswith("usage: powercrit") and error.startswith("powercrit"), argv
        assert ": error: " in error and out == "", argv
    elif got == 0:
        assert out.startswith("usage: powercrit") and err == "", argv


@pytest.mark.parametrize(
    "argv",
    [
        # prefixes, `=` values, values that look like options, and `--`
        ["census", "--max", "30", "--js"],
        ["census", "--max=30"],
        ["analyze", "-x"],
        ["analyze", "D:3", "--dot", "--json"],
        ["analyze", "--", "-D:3"],
        ["verify", "--he"],
        ["analyze", "D:3", "--e", "(1)"],
        # `--` is dropped only next to the spec
        ["analyze", "D:3", "--"],
        ["analyze", "--json", "D:3", "--"],
        ["analyze", "D:3", "--json", "--"],
        ["analyze", "D:3", "--element", "x", "--"],
        ["analyze", "D:3", "--", "--"],
        ["analyze", "--", "--"],
        ["analyze", "--json", "--"],
        ["census", "--"],
        ["census", "--json", "--"],
        ["--", "analyze", "D:3"],
        # -h, alone, repeated, with a value, and after errors found late or early
        ["analyze", "-hh"],
        ["analyze", "-h=h"],
        ["analyze", "-hx"],
        ["analyze", "--help=1"],
        ["analyze", "-x", "-h"],
        ["analyze", "a", "b", "-h"],
        ["analyze", "--workers", "x", "-h"],
        ["analyze", "--=x", "-h"],
        ["analyze", "-h", "--=x"],
        ["-x", "-h"],
        ["-x", "analyze", "D:3"],
        ["--=x"],
        ["--he"],
        ["bogus", "-h"],
        [],
        # values that look like options, and ints as int() reads them
        ["census", "--verify-up-to", "-1"],
        ["analyze", "D:3", "--element", "-x y"],
        ["analyze", "D:3", "--element", "-.5"],
        ["analyze", "D:3", "--element", "-"],
        ["analyze", "D:3", "--element=--json"],
        ["analyze", "-1"],
        ["census", "--max-order", " 12 "],
        ["census", "--max-order", "1_0"],
        ["census", "--max-order", "1.5"],
        ["census", "--max-order="],
        ["verify", "--suite=bogus"],
        ["verify", "--suite", "closure", "--suite", "theorems"],
        ["export", "D:3", "--format", "json", "--json"],
        ["Analyze", "D:3"],
        ["analyz", "D:3"],
    ],
    ids=repr,
)
def test_parse_args_matches_argparse_on_fixed_cases(argv):
    assert_parsers_agree(argv)


OPTION_NAMES = sorted(
    {"-h", "--help", "-x", "--bogus"}
    | {"--" + name.replace("_", "-") for *_, options in COMMANDS.values() for name in options}
)
VALUES = st.sampled_from(
    ["D:3", "-D:3", "S:4", "(1 2)", "12", " 12 ", "1_0", "-1", "-.5", "1.5", "x", "", "-", "--",
     "-x", "-x y", "-h", "-hh", "dot", "json", "power", "enhanced", "all", "closure", "bogus"]
)
OPTIONS = st.builds(lambda name, k: name[:k], st.sampled_from(OPTION_NAMES), st.integers(2, 16))
# Left out: `--name=--`, whose value argparse read as [] (test below), and
# `-h=`, on which argparse releases without its explicit_arg != '' check
# raise IndexError (test_help_takes_no_value).
TOKENS = st.one_of(
    OPTIONS,
    VALUES,
    st.builds("{}={}".format, OPTIONS, VALUES.filter(lambda value: value != "--")).filter(lambda t: t != "-h="),
)
FIRST = st.sampled_from([*COMMANDS, "analyz", "bogus", "-h", "--he", "-x", "--", ""])


@settings(max_examples=600, deadline=None)
@given(FIRST, st.lists(TOKENS, max_size=6))
def test_parse_args_matches_argparse_on_generated_lines(first, tokens):
    assert_parsers_agree([first, *tokens])


@pytest.mark.parametrize(
    "argv,message",
    [
        (["census", "--max-order=--"], "argument --max-order: invalid int value: '--'"),
        (["verify", "--max=--"], "argument --max-order: invalid int value: '--'"),
        (["verify", "--suite=--"], "argument --suite: invalid choice: '--'"),
        (["export", "D:3", "--graph=--"], "argument --graph: invalid choice: '--'"),
        (["analyze", "D:3", "--workers=--"], "argument --workers: invalid int value: '--'"),
        (["analyze", "D:3", "--element=--"], "error: "),
        # lines with `--`, which argparse reads
        (["analyze", "--element=--", "--", "D:3"], "error: element descriptor '--'"),
        (["census", "--max-order=--", "--"], "invalid int value: '--'"),
        (["verify", "--suite=--", "--"], "invalid choice: '--'"),
    ],
)
def test_an_option_value_of_two_dashes_is_that_text(capsys, argv, message):
    # argparse dropped the "--" of `--name=--` and left the option the empty
    # list, on which census, verify and analyze --element then failed with a
    # traceback and exit 1
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err and "Traceback" not in err
    assert parse_args(["analyze", "D:3", "--dot=--"]).dot == "--"


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["--help"], *([command, flag] for command in COMMANDS for flag in ("--help", "--he"))],
    ids=" ".join,
)
def test_help_lists_every_command_and_visible_option(capsys, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: powercrit")
    if len(argv) == 1:
        for command, (_, line, _, _) in COMMANDS.items():
            assert command in out and line in out
    else:
        _, line, spec_help, options = COMMANDS[argv[0]]
        assert line in out and (spec_help is None or spec_help in out)
        for name, (_, text) in options.items():
            if text is not None:
                assert "--" + name.replace("_", "-") in out and text in out
    assert "--workers" not in out


@pytest.mark.parametrize("argv", [["-h="], ["analyze", "-h="], ["census", "-h=x"], ["verify", "--help="]])
def test_help_takes_no_value(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error: argument -h/--help: ignored explicit argument" in err


def test_cli_import_does_not_load_argparse():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, powercrit.cli; print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    ).stdout
    assert out == "[]\n"
