"""Digest of the CLI's observable behaviour, for byte-identity checks.

Runs fusionring.cli.run_command in-process and prints one line per run: the
exit code, the sha256 of stdout, the sha256 of stderr, and the arguments.
The runs, on every builtin fixture and on every fusion file named on the
command line:

- validate, fpdim (all simples, --category, and --element for each simple),
  regular and integrality, in json and text format, at --precision 0, 64
  and 1024;
- center on inputs with a Galois annotation, without --dz and with --dz 1,
  2 and 6, in json and text format;
- deligne on each such input paired with every builtin that carries
  division types (both orders), in json and text format;

and once each: morita on every ordered pair of builtins in json and text
format, catalog list, catalog emit for every builtin, and USAGE_RUNS, a
fixed list of help, version, usage-error and abbreviated-option argument
lists.  Python standard library only.

    PYTHONPATH=src python tools/cli_digest.py [FILE ...] > digest.txt

Run it against two checkouts (point PYTHONPATH at each one's src) with the
same files and compare the outputs line by line: the stdout column and the
exit code show the output, the stderr column the messages, so a change to
usage or help text shows only on the lines of USAGE_RUNS.  A run that
escapes run_command with an exception prints "raised" and the exception type
in place of the exit code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path
from typing import Iterator, Optional

from fusionring.catalog import FixtureEntry, get_builtin, list_builtins
from fusionring.cli import run_command
from fusionring.errors import FusionError
from fusionring.fileformat import parse_fusion_file

FORMATS = ("json", "text")
PRECISIONS = ("0", "64", "1024")
# spelled out rather than read from fusionring.cli, so that the same
# digest runs against checkouts whose cli has no command table
COMMANDS = (
    "validate", "fpdim", "regular", "integrality", "center", "morita", "deligne", "catalog"
)

USAGE_RUNS = (
    [],
    ["bogus"],
    ["-h"],
    ["--help"],
    ["--version"],
    *([command, "-h"] for command in COMMANDS),
    ["fpdim", "fib", "--help"],
    ["validate"],
    ["validate", "fib", "extra"],
    ["validate", "fib", "--bogus"],
    ["validate", "fib", "--category"],
    ["fpdim", "fib", "--precision", "-1"],
    ["fpdim", "fib", "--precision", "1025"],
    ["fpdim", "fib", "--precision", "many"],
    ["fpdim", "fib", "--format", "xml"],
    ["fpdim", "fib", "--element", "x", "--category"],
    ["fpdim", "fib", "--element", "--category"],
    ["fpdim", "fib", "--element"],
    ["fpdim", "fib", "--category=yes"],
    ["center", "gal7", "--dz", "0"],
    ["center", "gal7", "--dz", "-3"],
    ["center", "gal7", "--dz", "x"],
    ["morita", "fib"],
    ["catalog"],
    ["catalog", "bogus"],
    ["catalog", "emit"],
    ["catalog", "emit", "nope"],
    # where the grammar departs from argparse's: (a) a positional after an
    # option fills the next slot, (b) the first -- is dropped wherever it
    # stands, (c) a space before any "=" makes a positional, (d) an
    # ambiguous prefix is refused where it stands; and catalog list refuses
    # a name
    ["catalog", "emit", "--format", "json", "fib"],
    ["catalog", "emit", "--waive-transitivity", "vec_z2"],
    ["validate", "fib", "--format", "json", "--"],
    ["validate", "a", "b", "--", "c"],
    ["validate", "-h b"],
    ["-h", "validate", "--=x"],
    ["catalog", "list", "fib"],
    # read in order: errors and help where they stand
    ["validate", "fib", "-x", "--bogus=1"],
    ["validate", "-hx"],
    ["fpdim", "fib", "-h", "--bogus"],
    ["fpdim", "-h", "--element"],
    ["fpdim", "fib", "--element", "-h"],
    ["morita", "fib", "--", "--"],
    # accepted spellings: the output of the full form
    ["fpdim", "fib", "--prec", "32", "--form=json"],
    ["fpdim", "--cat", "rep_f2_z3"],
    ["fpdim", "--format", "json", "fib", "--element=x", "--precision=8"],
    ["center", "gal7", "--dz=6", "--format", "json"],
    ["integrality", "--waive", "--", "fib"],
    ["catalog", "--format", "json", "list"],
    ["fpdim", "fib", "--element", "--a b"],
    ["validate", "-1"],
)


def _entry(arg: str) -> Optional[FixtureEntry]:
    """Entry of a builtin name or a fusion file; None if unreadable.  Only
    its data, annotation and desc are read, which parse_fusion_file's
    result has in every version."""
    if arg in list_builtins() and not Path(arg).exists():
        return get_builtin(arg)
    try:
        return parse_fusion_file(Path(arg).read_bytes())
    except (OSError, FusionError):
        return None


def _runs(arg: str, partners: list[str]) -> Iterator[list[str]]:
    entry = _entry(arg)
    labels = entry.data.labels if entry else ()
    variants = [["validate"], ["fpdim"], ["fpdim", "--category"]]
    variants += [["fpdim", "--element", label] for label in labels]
    variants += [["regular"], ["integrality"]]
    for fmt in FORMATS:
        for bits in PRECISIONS:
            for variant in variants:
                yield [*variant, arg, "--format", fmt, "--precision", bits]
        if entry and entry.annotation is not None:
            for dz in ((), ("--dz", "1"), ("--dz", "2"), ("--dz", "6")):
                yield ["center", arg, *dz, "--format", fmt]
        if entry and entry.desc is not None:
            for partner in partners:
                yield ["deligne", arg, partner, "--format", fmt]
                yield ["deligne", partner, arg, "--format", fmt]


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            outcome = str(run_command(argv))
        except Exception as exc:  # a traceback at the CLI: record, keep going
            outcome = f"raised {type(exc).__name__}"
    hashes = (hashlib.sha256(s.getvalue().encode("utf-8")).hexdigest() for s in (out, err))
    return f"{outcome} {' '.join(hashes)} {' '.join(argv)}"


def main(files: list[str]) -> None:
    builtins = list_builtins()
    divided = [name for name in builtins if get_builtin(name).desc is not None]
    runs = [argv for arg in (*builtins, *files) for argv in _runs(arg, divided)]
    runs += [
        ["morita", a, b, "--format", fmt]
        for a in builtins
        for b in builtins
        for fmt in FORMATS
    ]
    runs += [["catalog", "list", "--format", fmt] for fmt in FORMATS]
    runs += [["catalog", "emit", name] for name in builtins]
    runs += USAGE_RUNS
    for argv in dict.fromkeys(map(tuple, runs)):  # deligne pairs come twice
        print(digest(list(argv)), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
