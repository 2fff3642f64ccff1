"""Digest of the CLI's observable behaviour, for byte-identity checks.

Runs fusionring.cli.run_command in-process for validate, fpdim (all
simples, --category, and --element for each simple), regular and
integrality, in json and text format, at --precision 0, 64 and 1024, on
every builtin fixture and on every fusion file named on the command line.
Prints one line per run: the exit code, the sha256 of stdout followed by
stderr, and the arguments.  Python standard library only.

    PYTHONPATH=src python tools/cli_digest.py [FILE ...] > digest.txt

Run it against two checkouts (point PYTHONPATH at each one's src) with the
same files; equal outputs mean equal stdout, stderr and exit codes on every
run.  A run that escapes run_command with an exception prints "raised" and
the exception type in place of the exit code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

from fusionring.catalog import get_builtin, list_builtins
from fusionring.cli import run_command
from fusionring.errors import FusionError
from fusionring.fileformat import parse_fusion_file

FORMATS = ("json", "text")
PRECISIONS = ("0", "64", "1024")


def _labels(arg: str) -> tuple[str, ...]:
    """Simple labels of a builtin name or a fusion file; none if unreadable."""
    if arg in list_builtins() and not Path(arg).exists():
        return get_builtin(arg).data.labels
    try:
        return parse_fusion_file(Path(arg).read_bytes()).data.labels
    except (OSError, FusionError):
        return ()


def _runs(arg: str):
    variants = [["validate"], ["fpdim"], ["fpdim", "--category"]]
    variants += [["fpdim", "--element", label] for label in _labels(arg)]
    variants += [["regular"], ["integrality"]]
    for fmt in FORMATS:
        for bits in PRECISIONS:
            for variant in variants:
                yield [*variant, arg, "--format", fmt, "--precision", bits]


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            outcome = str(run_command(argv))
        except Exception as exc:  # a traceback at the CLI: record, keep going
            outcome = f"raised {type(exc).__name__}"
    blob = (out.getvalue() + "\0" + err.getvalue()).encode("utf-8")
    return f"{outcome} {hashlib.sha256(blob).hexdigest()} {' '.join(argv)}"


def main(files: list[str]) -> None:
    for arg in (*list_builtins(), *files):
        for argv in _runs(arg):
            print(digest(argv), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
