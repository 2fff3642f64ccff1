"""The command-line parser: cli.COMMANDS read by cmdline.CommandLine.

The argparse parser that the table replaced is kept below, verbatim, as the
reference: a seeded differential test draws a few thousand argument lists
over every subcommand and requires both parsers to accept, refuse or answer
with help the same ones, with equal fields on acceptance.  The only
difference allowed is the one the table makes on purpose, recognised by
`_explain`: --dz must be a positive integer (argparse took any int).

Not drawn, and tested directly: argparse 3.11 dropped a literal -- that
followed the first one, so morita fib -- -- handed the handler b=[] and
ended in a TypeError; the table reads b="--" (exit 2, not a file).

Help and usage text differ too and are tested on their own.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import random
import re
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

from fusionring import __version__
from fusionring.cli import (
    COMMANDS,
    MAX_PRECISION_BITS,
    SHARED_OPTIONS,
    ParseExit,
    _cmd_catalog,
    _cmd_center,
    _cmd_deligne,
    _cmd_fpdim,
    _cmd_integrality,
    _cmd_morita,
    _cmd_regular,
    _cmd_validate,
    parse_args,
    run_command,
)

# ---------------------------------------------------------------------------
# reference: the argparse parser, verbatim


def _precision_bits(text: str) -> int:
    try:
        bits = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= bits <= MAX_PRECISION_BITS:
        raise argparse.ArgumentTypeError(
            f"{bits} is outside 0..{MAX_PRECISION_BITS}"
        )
    return bits


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by later run_command
    calls in the process (parsing does not modify it)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--precision",
        type=_precision_bits,
        default=64,
        metavar="BITS",
        help=f"certified interval width 2^-BITS, 0..{MAX_PRECISION_BITS} (default 64)",
    )
    common.add_argument(
        "--format", choices=("json", "text"), default="text", help="output format"
    )
    common.add_argument(
        "--waive-transitivity",
        action="store_true",
        help="evaluate FPdims even on non-transitive data",
    )

    parser = argparse.ArgumentParser(
        prog="fusionring",
        description="Exact Frobenius-Perron arithmetic for fusion semirings.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="run all axiom checks")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("fpdim", parents=[common], help="Frobenius-Perron dimensions")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--element", metavar="LABEL", help="one simple element")
    group.add_argument(
        "--category", action="store_true", help="FPdim of the whole category"
    )
    p.set_defaults(handler=_cmd_fpdim)

    p = sub.add_parser(
        "regular", parents=[common], help="regular element and its eigenproperty"
    )
    p.add_argument("file")
    p.set_defaults(handler=_cmd_regular)

    p = sub.add_parser(
        "integrality", parents=[common], help="algebraic-integrality certificate"
    )
    p.add_argument("file")
    p.set_defaults(handler=_cmd_integrality)

    p = sub.add_parser(
        "center", parents=[common], help="Drinfeld-center FPdim prediction"
    )
    p.add_argument("file")
    p.add_argument("--dz", type=int, default=None, help="center endomorphism degree")
    p.set_defaults(handler=_cmd_center)

    p = sub.add_parser("morita", parents=[common], help="compare FPdim/d invariants")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(handler=_cmd_morita)

    p = sub.add_parser(
        "deligne", parents=[common], help="real division-type product of two inputs"
    )
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(handler=_cmd_deligne)

    p = sub.add_parser("catalog", parents=[common], help="builtin fixtures")
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("name", nargs="?", default=None)
    p.set_defaults(handler=_cmd_catalog)

    return parser


# ---------------------------------------------------------------------------
# the two parsers as ("ok", fields) or ("error", message)


def reference(argv: list[str]) -> tuple[str, object]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            namespace = _build_parser().parse_args(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2), argv
            return ("help", None) if exc.code == 0 else ("error", err.getvalue())
    fields = vars(namespace)
    del fields["handler"]
    return "ok", fields


def current(argv: list[str]) -> tuple[str, object]:
    try:
        return "ok", vars(parse_args(argv))
    except ParseExit as exc:
        return ("help", None) if exc.code == 0 else ("error", exc.text)


# ---------------------------------------------------------------------------
# argument lists drawn over every subcommand

#: option -> (good values, bad values)
OPTION_VALUES = {
    "precision": (("0", "32", "64", str(MAX_PRECISION_BITS)), ("-1", "1025", "many", "")),
    "format": (("json", "text"), ("xml",)),
    "element": (("x", "v", "1", "-1", "--a b"), ()),
    "dz": (("1", "2", "6"), ("0", "-3", "x")),
}
POSITIONAL_VALUES = ("fib", "vec_z2", "rings/su2_5.json", "-", "")
#: positionals that start with "-": negative numbers and words with a space
DASHED_POSITIONALS = ("-1", "-2.5", "-a b", "--x y")
HELP = ("-h", "--help", "--he")
#: options no subcommand has; the last four are refused where they stand
UNKNOWN = ("--bogus", "--bogus=1", "-x", "-hx", "-h b", "-hh=x", "--=x")


def _spellings(name: str, names: list[str]) -> list[str]:
    """--name and every unique prefix of it among names."""
    return [
        f"--{name[:cut]}"
        for cut in range(1, len(name) + 1)
        if [n for n in names if n.startswith(name[:cut])] == [name]
    ]


def _option_tokens(rng: random.Random, opt, names: list[str]) -> list[str]:
    if opt is None:  # an option no subcommand has, or help
        return [rng.choice(UNKNOWN + HELP)]
    spelled = rng.choice(_spellings(opt.name, names))
    if opt.metavar is None:
        return [spelled + "=1"] if rng.random() < 0.05 else [spelled]
    good, bad = OPTION_VALUES[opt.name]
    value = rng.choice(bad if bad and rng.random() < 0.2 else good)
    r = rng.random()
    if r < 0.06:
        return [spelled]  # value missing
    if r < 0.55:
        return [spelled, value]
    return [f"{spelled}={value}"]


def draw(rng: random.Random) -> list[str]:
    command = rng.choice(list(COMMANDS))
    cmd = COMMANDS[command]
    options = [*SHARED_OPTIONS, *cmd.options]
    names = ["help", *(opt.name for opt in options)]
    required = sum(not pos.optional for pos in cmd.positionals)
    total = len(cmd.positionals)
    count = max(0, rng.choice((required - 1, required, required, required, total, total + 1)))
    parts = [
        [rng.choice(("list", "emit", "emit", "bogus"))]
        if command == "catalog" and i == 0
        else [rng.choice(DASHED_POSITIONALS if rng.random() < 0.05 else POSITIONAL_VALUES)]
        for i in range(count)
    ]
    for _ in range(rng.randint(0, 4)):  # drawn with replacement: repeats happen
        opt = None if rng.random() < 0.04 else rng.choice(options)
        parts.insert(rng.randint(0, len(parts)), _option_tokens(rng, opt, names))
    if rng.random() < 0.25:
        parts.insert(rng.randint(0, len(parts)), ["--"])
    ahead = [rng.choice(("--version", *UNKNOWN, *HELP))] if rng.random() < 0.03 else []
    return [*ahead, command, *(token for part in parts for token in part)]


def _message(stderr: str) -> str:
    """The error line of a usage error, without the prog."""
    return stderr.split(": error: ", 1)[1]


def _explain(argv, ref, new) -> set[str]:
    """The listed differences that account for ref != new, error messages
    included; fails on any other difference."""
    if ref[0] == new[0] and (ref[0] == "help" or ref[1] == new[1]):
        return set()
    if ref[0] == new[0] == "error" and _message(ref[1]) == _message(new[1]):
        return set()
    if new[0] == "error" and re.match(r"argument --dz: -?\d+ is not a positive integer\n$",
                                      _message(new[1])):
        return {"dz"}
    pytest.fail(f"parsers differ on {argv}: reference {ref}, table {new}")


def test_table_parser_matches_reference(capsys):
    rng = random.Random(20260718)
    outcomes = {"ok": 0, "error": 0, "help": 0}
    differences: dict[str, int] = {}
    for _ in range(3000):
        argv = draw(rng)
        ref, new = reference(argv), current(argv)
        for reason in _explain(argv, ref, new):
            differences[reason] = differences.get(reason, 0) + 1
        outcomes[new[0]] += 1
        if new[0] == "error":
            code = run_command(argv)
            out, err = capsys.readouterr()
            assert (code, out) == (2, ""), argv
            assert err == new[1]
            prog = re.match(r"usage: (fusionring(?: \w+)?) ", err)[1]
            assert prog in ("fusionring", *(f"fusionring {c}" for c in COMMANDS))
            assert f"\n{prog}: error: " in err
    assert min(outcomes["ok"], outcomes["error"]) > 600 and outcomes["help"] > 30, outcomes
    assert set(differences) == {"dz"}, differences
    assert sum(differences.values()) < 100, differences


@pytest.mark.parametrize("command", list(COMMANDS))
def test_options_of_a_subcommand_share_no_prefix(command):
    """parse_args looks for ambiguous prefixes among the top-level options
    only; with distinct first letters a subcommand has none."""
    names = ["help", *(opt.name for opt in (*SHARED_OPTIONS, *COMMANDS[command].options))]
    assert len({name[0] for name in names}) == len(names)


def test_environment_does_not_change_parsing(monkeypatch):
    """getopt's GNU mode obeys POSIXLY_CORRECT; the table's parsing must not."""
    argvs = [draw(random.Random(seed)) for seed in range(300)]
    monkeypatch.delenv("POSIXLY_CORRECT", raising=False)
    without = [current(argv) for argv in argvs]
    monkeypatch.setenv("POSIXLY_CORRECT", "1")
    assert [current(argv) for argv in argvs] == without
    assert vars(parse_args(["validate", "fib", "--format", "json"]))["format"] == "json"


# ---------------------------------------------------------------------------
# spellings, messages, help and version


def test_abbreviated_and_equals_spellings():
    args = parse_args(["fpdim", "--prec", "32", "fib", "--form=json", "--cat", "--waive"])
    assert vars(args) == {
        "command": "fpdim",
        "file": "fib",
        "precision": 32,
        "format": "json",
        "waive_transitivity": True,
        "element": None,
        "category": True,
    }
    assert parse_args(["fpdim", "fib", "--element=--category"]).element == "--category"
    # a value with a space reads as a value, not as an option
    assert parse_args(["fpdim", "fib", "--element", "--a b"]).element == "--a b"
    assert parse_args(["fpdim", "--element", "-a b", "fib"]).element == "-a b"
    assert parse_args(["validate", "-1"]).file == "-1"
    assert parse_args(["validate", "--", "-1"]).file == "-1"
    assert parse_args(["catalog", "--format", "json", "emit", "fib"]).name == "fib"
    assert parse_args(["catalog", "emit", "--", "fib"]).name == "fib"
    assert parse_args(["center", "gal7", "--dz", "3", "--dz", "6"]).dz == 6
    # argparse 3.11 dropped a second --, so b was [] and the handler raised
    assert parse_args(["morita", "fib", "--", "--"]).b == "--"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fpdim", "fib", "--precision", "1025"], "argument --precision: 1025 is outside 0..1024"),
        (["fpdim", "fib", "--prec=many"], "argument --precision: invalid int value: 'many'"),
        (["fpdim", "fib", "--format", "xml"],
         "argument --format: invalid choice: 'xml' (choose from 'json', 'text')"),
        (["fpdim", "fib", "--element", "x", "--category"],
         "argument --category: not allowed with argument --element"),
        (["fpdim", "fib", "--element", "--category"], "argument --element: expected one argument"),
        (["fpdim", "fib", "--element"], "argument --element: expected one argument"),
        (["center", "gal7", "--dz", "0"], "argument --dz: 0 is not a positive integer"),
        (["center", "gal7", "--dz=-3"], "argument --dz: -3 is not a positive integer"),
        (["center", "gal7", "--dz", "x"], "argument --dz: invalid int value: 'x'"),
        (["catalog", "bogus"],
         "argument action: invalid choice: 'bogus' (choose from 'list', 'emit')"),
        (["catalog"], "the following arguments are required: action"),
        (["morita"], "the following arguments are required: a, b"),
        (["validate", "a", "b", "c"], "unrecognized arguments: b c"),
        (["validate", "a", "--bogus"], "unrecognized arguments: --bogus"),
        (["validate", "-x", "a", "--bogus=1"], "unrecognized arguments: -x --bogus=1"),
        (["fpdim", "fib", "--cat=yes"], "argument --category: ignored explicit argument 'yes'"),
        (["fpdim", "fib", "--help=1"], "argument -h/--help: ignored explicit argument '1'"),
        (["validate", "-h b"], "argument -h/--help: ignored explicit argument ' b'"),
        (["validate", "-h=x"], "argument -h/--help: ignored explicit argument 'x'"),
        (["validate", "-hhx"], "argument -h/--help: ignored explicit argument 'x'"),
        # argparse fills an optional positional from the first run of
        # positionals only, and takes -- only next to a positional
        (["catalog", "emit", "--format", "json", "fib"], "unrecognized arguments: fib"),
        (["validate", "fib", "--format", "json", "--"], "unrecognized arguments: --"),
        (["validate", "a", "b", "--", "c"], "unrecognized arguments: b -- c"),
        (["fpdim", "fib", "--element", "--", "x"], "argument --element: expected one argument"),
    ],
)
def test_usage_error_messages(capsys, argv, message):
    assert run_command(argv) == 2
    out, err = capsys.readouterr()
    usage, error = err.splitlines()
    assert out == ""
    assert usage.startswith(f"usage: fusionring {argv[0]} [-h] [--precision BITS] ")
    assert error == f"fusionring {argv[0]}: error: {message}"


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'validate', "
         "'fpdim', 'regular', 'integrality', 'center', 'morita', 'deligne', 'catalog')"),
        # argparse looks for an ambiguous prefix before it reads anything
        (["-h", "validate", "--=x"], "ambiguous option: --=x could match --help, --version"),
    ],
)
def test_top_level_usage_errors(capsys, argv, message):
    assert run_command(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "usage: fusionring [-h] [--version] {validate,fpdim,regular,integrality,"
        f"center,morita,deligne,catalog}} ...\nfusionring: error: {message}\n"
    )


@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_subcommand_help_names_every_option(capsys, command, flag):
    assert run_command([command, flag, "fib"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith(f"usage: fusionring {command} [-h] ")
    cmd = COMMANDS[command]
    for opt in (*SHARED_OPTIONS, *cmd.options):
        assert f"\n  --{opt.name}" in out
    for pos in cmd.positionals:
        assert f"\n  {pos.name} " in out


@pytest.mark.parametrize(
    "argv",
    [
        ["fpdim", "fib", "-h", "--bogus"],
        ["fpdim", "-h", "--element"],
        ["validate", "a", "b", "--he"],
        ["catalog", "-h", "bogus"],
        ["--bogus", "center", "-h"],
    ],
)
def test_help_comes_before_later_errors(capsys, argv):
    """As in argparse, -h answers with help unless an error came before it."""
    assert run_command(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: fusionring ") and err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["fpdim", "fib", "--element", "-h"],
        ["fpdim", "--precision", "many", "-h"],
        ["catalog", "bogus", "-h"],
        ["fpdim", "--cat", "--element=x", "-h"],
    ],
)
def test_errors_before_help_win(capsys, argv):
    assert run_command(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_top_level_help_names_every_command(capsys, flag):
    assert run_command([flag]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith("usage: fusionring [-h] [--version] ")
    for command, cmd in COMMANDS.items():
        assert f"\n  {command} " in out and cmd.help in out


def test_version(capsys):
    assert run_command(["--version"]) == 0
    assert capsys.readouterr() == (f"fusionring {__version__}\n", "")


def test_job_imports_neither_argparse_nor_locale():
    """A CLI job must not pay for argparse or for the locale import that
    gettext makes on first use; checked in a fresh interpreter."""
    code = (
        "import sys\n"
        "from fusionring.cli import run_command\n"
        "assert run_command(['validate', 'vec_z2']) == 0\n"
        "sys.stderr.write(' '.join(m for m in ('argparse', 'locale') if m in sys.modules))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert "passed: true" in result.stdout
    assert result.stderr == ""
