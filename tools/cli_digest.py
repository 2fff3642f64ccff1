"""Digest of the CLI's observable behaviour, for byte-identity checks.

Runs fusionring.cli.run_command in-process and prints one line per run: the
exit code, the sha256 of stdout, the sha256 of stderr, and the arguments.
The runs, on every builtin fixture and on every fusion file named on the
command line:

- validate, fpdim (all simples, --category, and --element for each simple),
  regular and integrality, in json and text format, at --precision 0, 64,
  256 and 1024;
- center on inputs with a Galois annotation, without --dz and with --dz 1,
  2 and 6, in json and text format, at --precision 0, 64, 256 and 1024;
- deligne on each such input paired with every builtin that carries
  division types (both orders), in json and text format;

and once each: morita on every ordered pair of builtins in json and text
format at --precision 0, 64, 256 and 1024, catalog list, catalog emit for
every builtin, and USAGE_RUNS, a fixed list of help, version, usage-error
and abbreviated-option argument lists.  Last come the invalid inputs of
invalid_inputs(), each read from standard input by validate (json and text),
fpdim, regular and integrality: seeded single-entry perturbations of every
builtin, so that the checks' full violation lists show, and MALFORMED, files
that break the schema, so that the parser's messages show.  The same five
runs then read each path of MALFORMED_PATHS, from a scratch working
directory, so that the messages of unreadable paths show, and so do
spellings of one path and the files of MALFORMED_FILES, whose line ends,
byte order mark and bytes the reader must decode as a text-mode open does.
Python standard library only.

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
import os
import random
import sys
import tempfile
from pathlib import Path
from typing import Iterator, Optional

from fusionring.catalog import FixtureEntry, get_builtin, list_builtins
from fusionring.cli import run_command
from fusionring.core import FusionData
from fusionring.errors import FusionError
from fusionring.fileformat import emit_fusion_file, parse_fusion_file

FORMATS = ("json", "text")
PRECISIONS = ("0", "64", "256", "1024")
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


_SIMPLES = '[{"label": "1", "dual": "1"}, {"label": "g", "dual": "g"}]'
_FUSION = '{"1|1": {"1": 1}, "1|g": {"g": 1}, "g|1": {"g": 1}, "g|g": {"1": 1}}'
#: (name, text) of fusion files that break the schema, one way each
MALFORMED = tuple(
    (f"malformed-{i}", text)
    for i, text in enumerate(
        (
            "",
            "[]",
            '{"simples": [',
            '{"simples": []}',
            '{"simples": [{"label": ""}]}',
            '{"simples": [{"label": "1"}, {"label": "1"}]}',
            '{"simples": [{"label": "1", "endo_dim": 0}]}',
            '{"simples": [{"label": "1", "dual": "x"}]}',
            '{"simples": [{"label": "1"}], "unit": ["u"]}',
            '{"simples": [{"label": "1"}], "endo_degree": true}',
            f'{{"simples": {_SIMPLES}, "fusion": {{"1g": {{"g": 1}}}}}}',
            f'{{"simples": {_SIMPLES}, "fusion": {{"1|h": {{"g": 1}}}}}}',
            f'{{"simples": {_SIMPLES}, "fusion": {{"1|g": {{"h": 1}}}}}}',
            f'{{"simples": {_SIMPLES}, "fusion": {{"1|g": {{"g": -1}}}}}}',
            f'{{"simples": {_SIMPLES}, "fusion": {{"1|g": {{"g": true}}}}}}',
            f'{{"simples": {_SIMPLES}, "fusion": {{"1|g": [1]}}}}',
            f'{{"simples": {_SIMPLES}, "fusion": {_FUSION}, "group": {{"elements": [1]}}}}',
            f'{{"simples": {_SIMPLES}, "fusion": {_FUSION}, "division_types": {{"1": "R"}}}}',
            '{"simples": [{"label": "1", "galois": {"group_element": "e"}}]}',
            '{"simples": [{"label": "1", "galois": 3}]}',
            f'{{"simples": {_SIMPLES}, "fusion": {_FUSION}, '
            '"group": {"elements": ["e", "c"], "table": [[0, true], [true, 0]]}}',
            '{"simples": [{"label": "1"}], "endo_degree": null}',
        )
    )
)


#: (file name, bytes) of files that the reader must decode as a text-mode
#: open does: a JSON syntax error on line 3 after CRLF and after lone-CR
#: line ends, a UTF-8 byte order mark before a valid file, and a 0xff byte
MALFORMED_FILES = (
    ("crlf.json", b'{\r\n  "name": "x",\r\n  "simples": [,]\r\n}\r\n'),
    ("cr.json", b'{\r  "name": "x",\r  "simples": [,]\r}\r'),
    ("bom.json", b"\xef\xbb\xbf" + emit_fusion_file(get_builtin("vec_z2").data).encode()),
    ("ff.json", b'{\n  "name": "\xff"\n}\n'),
)

#: (name, path) of arguments that name no readable fusion file, a file
#: named like a builtin, which wins over the builtin, spellings of that
#: file's path, and the files of MALFORMED_FILES; _path_cases makes them
MALFORMED_PATHS = (
    ("path-empty", ""),
    ("path-directory", "dir"),
    ("path-symlink-loop", "loop"),
    ("path-dangling-symlink", "dangling"),
    ("path-missing-parent", "missing/ring.json"),
    ("path-nul-byte", "ring\0.json"),
    ("path-named-like-builtin", "fib"),
    ("path-trailing-slash", "fib/"),
    ("path-trailing-dot", "fib/."),
    ("path-leading-dot", "./fib"),
    ("path-dot-dot", "dir/../fib"),
    *((f"file-{name}", name) for name, _ in MALFORMED_FILES),
)


@contextlib.contextmanager
def _path_cases() -> Iterator[None]:
    """Run the body in a scratch working directory holding the paths of
    MALFORMED_PATHS: a directory, a symlink to itself, a symlink to nothing,
    a file fib holding the Z/2 group ring, and the files of
    MALFORMED_FILES."""
    with tempfile.TemporaryDirectory() as scratch, contextlib.chdir(scratch):
        os.mkdir("dir")
        os.symlink("loop", "loop")
        os.symlink("nowhere", "dangling")
        Path("fib").write_text(
            emit_fusion_file(get_builtin("vec_z2").data, name="fib-file"), encoding="utf-8"
        )
        for name, data in MALFORMED_FILES:
            Path(name).write_bytes(data)
        yield


def _perturbed(data: FusionData, i: int, j: int, k: int, delta: int) -> FusionData:
    tensor = [[list(row) for row in plane] for plane in data.n_tensor]
    tensor[i][j][k] += delta
    return FusionData(
        labels=data.labels,
        n_tensor=tensor,
        dual=data.dual,
        eps=data.eps,
        endo_degree=data.endo_degree,
        unit=data.unit,
    )


def invalid_inputs() -> list[tuple[str, str]]:
    """(name, fusion file) of the invalid inputs: for every builtin, four
    seeded single-entry +-1 perturbations, the first two away from the unit
    summands so that the unit law still holds, then MALFORMED."""
    out = []
    for name in list_builtins():
        data = get_builtin(name).data
        rng = random.Random(f"cli_digest:{name}")
        others = [i for i in range(data.rank) if i not in data.unit] or list(range(data.rank))
        for n in range(4):
            pool = others if n < 2 else range(data.rank)
            i, j = rng.choice(pool), rng.choice(pool)
            k = rng.randrange(data.rank)
            delta = -1 if data.n_tensor[i][j][k] and rng.random() < 0.5 else 1
            text = emit_fusion_file(_perturbed(data, i, j, k, delta), name=f"{name}~{n}")
            out.append((f"{name}~{n}", text))
    return out + list(MALFORMED)


INVALID_VARIANTS = (
    ["validate", "-", "--format", "json"],
    ["validate", "-", "--format", "text"],
    ["fpdim", "-"],
    ["regular", "-"],
    ["integrality", "-"],
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
                for bits in PRECISIONS:
                    yield ["center", arg, *dz, "--format", fmt, "--precision", bits]
        if entry and entry.desc is not None:
            for partner in partners:
                yield ["deligne", arg, partner, "--format", fmt]
                yield ["deligne", partner, arg, "--format", fmt]


def digest(
    argv: list[str], stdin: Optional[tuple[str, str]] = None, shown: Optional[list[str]] = None
) -> str:
    """The digest line of one run; stdin is (name, text) of what the run
    reads from standard input, and the name ends the line.  shown, when
    given, is printed in place of argv."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin[1] if stdin else "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                outcome = str(run_command(argv))
            except Exception as exc:  # a traceback at the CLI: record, keep going
                outcome = f"raised {type(exc).__name__}"
    finally:
        sys.stdin = saved
    hashes = (hashlib.sha256(s.getvalue().encode("utf-8")).hexdigest() for s in (out, err))
    line = f"{outcome} {' '.join(hashes)} {' '.join(shown or argv)}"
    return f"{line} < {stdin[0]}" if stdin else line


def main(files: list[str]) -> None:
    builtins = list_builtins()
    divided = [name for name in builtins if get_builtin(name).desc is not None]
    runs = [argv for arg in (*builtins, *files) for argv in _runs(arg, divided)]
    runs += [
        ["morita", a, b, "--format", fmt, "--precision", bits]
        for a in builtins
        for b in builtins
        for fmt in FORMATS
        for bits in PRECISIONS
    ]
    runs += [["catalog", "list", "--format", fmt] for fmt in FORMATS]
    runs += [["catalog", "emit", name] for name in builtins]
    runs += USAGE_RUNS
    for argv in dict.fromkeys(map(tuple, runs)):  # deligne pairs come twice
        print(digest(list(argv)), flush=True)
    for stdin in invalid_inputs():
        for argv in INVALID_VARIANTS:
            print(digest(argv, stdin), flush=True)
    with _path_cases():
        for name, path in MALFORMED_PATHS:
            for argv in INVALID_VARIANTS:
                run = [path if a == "-" else a for a in argv]
                shown = [name if a == "-" else a for a in argv]
                print(digest(run, shown=shown), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
