"""The command-line parser: cli.COMMANDS read by cmdline.CommandLine.

The argparse parser that the table replaced is kept below, verbatim, as the
reference: a seeded differential test draws a few thousand argument lists
over every subcommand.  Where argparse accepts, the table accepts with equal
fields; where argparse answers with help, so does the table; where both
refuse, the messages are equal.  The differences allowed are those the
table's grammar makes on purpose, each recognised by `_explain` from the
argument list:

- dz: --dz must be a positive integer (argparse took any int);
- (a) a positional after an option fills the next slot, so
  catalog emit --format json fib emits fib (argparse filled the optional
  name only from the positionals right after the action);
- (b) the first -- is dropped wherever it stands (argparse dropped it only
  next to a positional it filled and reported it otherwise);
- (c) an argument starting with - that has a space before any "=" is a
  positional, so "-h b" is a file name (argparse read -h given " b");
- (d) an ambiguous prefix is refused where it stands, among the options of
  the command being read (argparse refused --=x before reading anything).

Under (a)-(c) the table may accept what argparse refused, under (c)-(d)
answer help where argparse refused, and under (a)-(d) refuse in other words.

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
#: options no subcommand has, -hx and -hh=x refused where they stand; "-h b"
#: is a positional to the table and --=x an ambiguous prefix
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


def _ahead_of_separator(argv: list[str]) -> list[str]:
    return argv[: argv.index("--")] if "--" in argv else argv


def _option_after_action(argv: list[str]) -> bool:
    """(a) An option follows catalog's action: argparse filled the optional
    name only from the positionals right after the action, so a later one
    was surplus; the table fills the name with it."""
    words = _ahead_of_separator(argv)
    for arg, following in zip(words, words[1:]):
        if "catalog" in words and arg in ("list", "emit"):
            return following[:1] == "-" and following not in ("-", *DASHED_POSITIONALS)
    return False


def _separator_left(argv: list[str]) -> bool:
    """(b) argparse names -- among the unrecognized arguments: it dropped
    -- only next to a positional it filled, where the table drops the first
    -- wherever it stands."""
    ref = reference(argv)
    message = _message(ref[1]) if ref[0] == "error" else ""
    prefix = "unrecognized arguments: "
    return message.startswith(prefix) and "--" in message[len(prefix) :].split()


def _help_with_space(argv: list[str]) -> bool:
    """(c) An argument -h... with a space before any "=": argparse read it
    as -h given a value and refused it; the table reads a positional."""
    return any(
        arg[:2] == "-h" and " " in arg.partition("=")[0] for arg in _ahead_of_separator(argv)
    )


def _ambiguous_ahead(argv: list[str]) -> bool:
    """(d) An ambiguous prefix of --help and --version (--=x): argparse
    refused it before reading any argument; the table refuses it where it
    stands, among the options of the command it reads."""
    return any(
        arg[:2] == "--" and arg[2:].partition("=")[0] == "" for arg in _ahead_of_separator(argv)
    )


def _explain(argv, ref, new) -> set[str]:
    """The listed differences that account for ref != new, error messages
    included; fails on any other difference.  A difference is allowed only
    where a class that can cause it holds: argparse's acceptance and help
    are kept but for the --dz refusal, and a refusal becomes an acceptance
    under (a)-(c), help under (c)-(d), or another refusal under (a)-(d)."""
    if ref[0] == new[0] and (ref[0] == "help" or ref[1] == new[1]):
        return set()
    if ref[0] == new[0] == "error" and _message(ref[1]) == _message(new[1]):
        return set()
    if new[0] == "error" and re.match(r"argument --dz: -?\d+ is not a positive integer\n$",
                                      _message(new[1])):
        return {"dz"}
    holds = {
        "a": _option_after_action(argv),
        "b": _separator_left(argv),
        "c": _help_with_space(argv),
        "d": _ambiguous_ahead(argv),
    }
    allowed = {"ok": "abc", "help": "cd", "error": "abcd"}[new[0]] if ref[0] == "error" else ""
    reasons = {reason for reason in allowed if holds[reason]}
    if not reasons:
        pytest.fail(f"parsers differ on {argv}: reference {ref}, table {new}")
    return reasons


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
    assert set(differences) == {"dz", "a", "b", "c", "d"}, differences
    assert sum(differences.values()) < 250, differences


@pytest.mark.parametrize("command", list(COMMANDS))
def test_options_of_a_subcommand_share_no_prefix(command):
    """With distinct first letters every option of a subcommand may be cut
    to one letter; only --=x, a prefix of all of them, is ambiguous."""
    names = ["help", *(opt.name for opt in (*SHARED_OPTIONS, *COMMANDS[command].options))]
    assert len({name[0] for name in names}) == len(names)


def test_environment_does_not_change_parsing(monkeypatch):
    """POSIXLY_CORRECT, which getopt's GNU mode obeys, changes nothing."""
    argvs = [draw(random.Random(seed)) for seed in range(300)]
    monkeypatch.delenv("POSIXLY_CORRECT", raising=False)
    without = [current(argv) for argv in argvs]
    monkeypatch.setenv("POSIXLY_CORRECT", "1")
    assert [current(argv) for argv in argvs] == without
    assert vars(parse_args(["validate", "fib", "--format", "json"]))["format"] == "json"


# ---------------------------------------------------------------------------
# spellings, messages, help and version


def test_abbreviated_and_equals_spellings():
    args = parse_args(["fpdim", "--prec", "32", "fib", "--form=json", "--cat"])
    assert vars(args) == {
        "command": "fpdim",
        "file": "fib",
        "precision": 32,
        "format": "json",
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
    # (a) a positional after an option fills the next slot
    assert parse_args(["catalog", "emit", "--format", "json", "fib"]).name == "fib"
    # (b) -- is dropped wherever the options end
    assert parse_args(["validate", "fib", "--format", "json", "--"]).file == "fib"
    # (c) a space before any "=" makes a positional, also after -h
    assert parse_args(["validate", "-h b"]).file == "-h b"
    assert parse_args(["validate", "--x y=z"]).file == "--x y=z"
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
        (["validate", "-h= b"], "argument -h/--help: ignored explicit argument ' b'"),
        (["validate", "-h=x"], "argument -h/--help: ignored explicit argument 'x'"),
        (["validate", "-hhx"], "argument -h/--help: ignored explicit argument 'x'"),
        # surplus positionals fill no later slot; after the first -- every
        # argument is a positional, another -- too
        (["catalog", "emit", "--format", "json", "vec_z2", "fib"], "unrecognized arguments: fib"),
        (["validate", "fib", "--", "--"], "unrecognized arguments: --"),
        (["validate", "a", "--", "b", "--", "c"], "unrecognized arguments: b -- c"),
        (["fpdim", "fib", "--element", "--", "x"], "argument --element: expected one argument"),
        (["validate", "a", "b", "--", "c"], "unrecognized arguments: b c"),
        (["validate", "-x", "a", "--=x", "b"],
         "ambiguous option: --=x could match --help, --precision, --format"),
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
        (["--=x", "validate"], "ambiguous option: --=x could match --help, --version"),
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
        ["-h", "validate", "--=x"],
        ["validate", "-h", "--=x"],
    ],
)
def test_help_comes_before_later_errors(capsys, argv):
    """-h answers with help unless an error came before it."""
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
    """A CLI job must not pay for argparse, getopt, gettext (which getopt
    imports) or the locale import that gettext makes on first use; checked
    in a fresh interpreter."""
    code = (
        "import sys\n"
        "from fusionring.cli import run_command\n"
        "assert run_command(['validate', 'vec_z2']) == 0\n"
        "modules = ('argparse', 'getopt', 'gettext', 'locale')\n"
        "sys.stderr.write(' '.join(m for m in modules if m in sys.modules))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert "passed: true" in result.stdout
    assert result.stderr == ""
