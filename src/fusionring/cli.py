"""Command-line front end.

Commands: validate, fpdim, regular, integrality, center, morita, deligne,
catalog.  File arguments take a path, "-" for stdin, or a builtin fixture
name.  Exit codes: 0 success/pass, 1 validation or property failure, 2
usage or schema error.

Arguments are read against the COMMANDS table by cmdline.CommandLine in
one left-to-right pass (its module docstring gives the grammar); usage
errors keep the words of the argparse front end it replaced.  Each
subcommand's handler returns its payload and its exit code, and writes
nothing: run_command renders the payload in --format (catalog emit's is
already the file's text) and writes it to stdout.  Nothing is built at
import: a job pays only for parsing its own arguments.  The heap left by
import holds no garbage, so run_command freezes it (gc.freeze) for the
length of the command, unless the caller has frozen objects itself.

A file argument is read as bytes and decoded as UTF-8 with universal
newlines ("\r\n" and a lone "\r" become "\n"), as a text-mode open reads
it; the path is named as pathlib would name it (_path_name), so the
messages of unreadable paths quote the same name.

All output is byte-deterministic: exact rationals are serialized as decimal
strings "p/q", decimal approximations are truncated (never rounded through
floats), and JSON keys are sorted.  --format json is written by
fileformat.dumps, byte for byte the standard json module's text with sorted
keys and a two-space indent.  --precision only changes interval widths,
never minimal polynomials or exact values.
"""

from __future__ import annotations

import errno
import gc
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, Optional

from . import __version__
from .catalog import FixtureEntry, get_builtin, list_builtins
from .cmdline import Command, CommandLine, Option, ParseExit, Positional
from .deligne import deligne_product
from .errors import FusionError, SchemaError
from .fileformat import dumps, emit_entry, parse_fusion_file
from .fpengine import (
    AlgebraicNumber,
    ExactValue,
    char_poly,
    fpdim_element,
    left_mult_matrix,
    min_poly,
    normalize_value,
    refine,
)
from .galois import center_fpdim_prediction
from .morphisms import morita_ratio_equal
from .poly import RationalPolynomial
from .regular import (
    fpdim_category,
    regular_element,
    verify_regular_eigenproperty,
)
from .report import ValidationReport
from .validate import check_eps_consistency, check_structural, check_transitivity


# ---------------------------------------------------------------------------
# serialization helpers


def _decimal_str(q: Fraction, places: int = 15) -> str:
    sign = "-" if q < 0 else ""
    q = abs(q)
    digits = q.numerator * 10**places // q.denominator
    int_part, frac_part = divmod(digits, 10**places)
    tail = str(frac_part).zfill(places).rstrip("0")
    return f"{sign}{int_part}.{tail}" if tail else f"{sign}{int_part}"


def _poly_json(p: RationalPolynomial) -> list:
    return [int(c) if c.denominator == 1 else str(c) for c in p.coeffs]


def _value_payload(value: ExactValue | AlgebraicNumber, width: Fraction) -> dict[str, Any]:
    """The exact value, its decimal approximation, min poly and interval.  A
    rational prints as its point; any other AlgebraicNumber is irrational
    and prints as its interval refined to `width`."""
    value = normalize_value(value)
    if isinstance(value, AlgebraicNumber):
        refined = refine(value, width)
        return {
            "value": None,
            "approx": _decimal_str(refined.midpoint()),
            "min_poly": _poly_json(min_poly(value)),
            "interval": [str(refined.lo), str(refined.hi)],
        }
    return {
        "value": str(value),
        "approx": _decimal_str(value),
        "min_poly": _poly_json(RationalPolynomial((-value, 1))),
        "interval": [str(value), str(value)],
    }


def _report_json(report: ValidationReport) -> list[dict[str, Any]]:
    return [
        {"rule": v.rule, "witness": list(v.witness), "message": v.message}
        for v in report.violations
    ]


def _render(payload: dict[str, Any], fmt: str) -> str:
    if fmt == "json":
        return dumps(payload) + "\n"
    lines: list[str] = []

    def emit(path: str, value: Any) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                emit(f"{path}.{key}" if path else key, value[key])
        elif isinstance(value, list):
            if not value:
                lines.append(f"{path}: []")
            for i, item in enumerate(value):
                emit(f"{path}[{i}]", item)
        else:
            lines.append(f"{path}: {_text_scalar(value)}")

    emit("", payload)
    return "\n".join(lines) + "\n"


def _text_scalar(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# ---------------------------------------------------------------------------
# input loading


#: errnos of a path that names no file, at which Path.exists() reads False
_NO_FILE = (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP)


def _path_name(arg: str) -> str:
    """str(Path(arg)) without pathlib: empty and "." segments dropped, ".."
    kept, a root of exactly two slashes kept, and "." when nothing is left."""
    rel = arg.lstrip("/")
    root = "//" if len(arg) - len(rel) == 2 else "/" if rel != arg else ""
    return root + "/".join(part for part in rel.split("/") if part and part != ".") or "."


def _read(arg: str) -> Optional[str]:
    """The text of the file at arg, read as bytes and decoded as UTF-8 with
    universal newlines, or None when the path names no file (where
    Path.exists() reads False); any other error propagates."""
    try:
        handle = open(_path_name(arg), "rb")
    except ValueError:  # a NUL byte: no file has that name
        return None
    except OSError as exc:
        if exc.errno in _NO_FILE:
            return None
        raise
    with handle:
        data = handle.read()
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def _load(arg: str) -> FixtureEntry:
    """The entry of standard input ("-"), of the file at arg, or of the
    builtin named arg when no file is there (a file wins over a builtin)."""
    try:
        text = sys.stdin.read() if arg == "-" else _read(arg)
    except (UnicodeDecodeError, OSError) as exc:
        raise SchemaError(f"cannot read {arg!r}: {exc}") from None
    if text is not None:
        return parse_fusion_file(text)
    if arg in list_builtins():
        return get_builtin(arg)
    raise SchemaError(f"{arg!r} is neither a file, '-', nor a builtin fixture name")


def _gated(*entries: FixtureEntry) -> None:
    """Refuse the first of entries whose data fails the structural checks."""
    for entry in entries:
        report = entry.data._fact("structural", check_structural)
        if not report.passed:
            messages = "; ".join(v.message for v in report.violations[:5])
            raise FusionError(
                f"input fails structural checks ({len(report.violations)} violations): "
                f"{messages}"
            )


def _identify(entry: FixtureEntry) -> dict[str, Any]:
    out: dict[str, Any] = {}
    if entry.name:
        out["name"] = entry.name
    if entry.description:
        out["description"] = entry.description
    return out


def _pair(args: SimpleNamespace) -> tuple[FixtureEntry, FixtureEntry, dict[str, Any]]:
    """The entries of args.a and args.b, both loaded before either is
    checked, and the payload naming them (by their argument when unnamed)."""
    entry_a, entry_b = _load(args.a), _load(args.b)
    names = {
        "a": _identify(entry_a) or {"name": args.a},
        "b": _identify(entry_b) or {"name": args.b},
    }
    return entry_a, entry_b, names


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its payload (a dict, rendered in
# --format, or a str written as it is) and its exit code


def _cmd_validate(args: SimpleNamespace) -> tuple[dict[str, Any], int]:
    """Structural checks, and on fusion data eps consistency and
    transitivity.  A fusion ring that passes the structural checks is
    transitive (x*.x contains the unit, so y <= (y.x*).x and
    y <= x.(x*.y)), so check_transitivity runs only when they fail."""
    entry = _load(args.file)
    data = entry.data
    structural = report = data._fact("structural", check_structural)
    checks = ["structural"]
    if data.is_fusion:
        report = report.merged(check_eps_consistency(data))
        if not structural.passed:
            report = report.merged(check_transitivity(data))
        checks += ["eps_consistency", "transitivity"]
    return {
        **_identify(entry),
        "checks": checks,
        "passed": report.passed,
        "violations": _report_json(report),
    }, 0 if report.passed else 1


def _with_integrality(payload: dict[str, Any]) -> dict[str, Any]:
    """payload with "algebraic_integer": whether its (monic) min poly has
    integer coefficients."""
    payload["algebraic_integer"] = all(isinstance(c, int) for c in payload["min_poly"])
    return payload


def _category_payload(args: SimpleNamespace) -> dict[str, Any]:
    """What fpdim --category prints, and integrality too: FPdim of the
    category, its min poly and whether that is integral."""
    entry = _load(args.file)
    _gated(entry)
    width = Fraction(1, 2**args.precision)
    value = fpdim_category(entry.data)
    return _with_integrality({**_identify(entry), **_value_payload(value, width)})


def _cmd_fpdim(args: SimpleNamespace) -> tuple[dict[str, Any], int]:
    if args.category:
        return _category_payload(args), 0
    entry = _load(args.file)
    _gated(entry)
    data = entry.data
    width = Fraction(1, 2**args.precision)
    if args.element is None:
        elements = {
            label: _value_payload(fpdim_element(data.basis(label)), width)
            for label in data.labels
        }
        return {**_identify(entry), "elements": elements}, 0
    x = data.basis(args.element)
    return _with_integrality({
        **_identify(entry),
        "element": args.element,
        **_value_payload(fpdim_element(x), width),
        "char_poly": _poly_json(char_poly(left_mult_matrix(x))),
    }), 0


def _cmd_regular(args: SimpleNamespace) -> tuple[dict[str, Any], int]:
    entry = _load(args.file)
    _gated(entry)
    width = Fraction(1, 2**args.precision)
    reg = regular_element(entry.data)
    verification = verify_regular_eigenproperty(entry.data)
    return {
        **_identify(entry),
        # refined to width / eps_x, FPdim(x)/eps_x prints FPdim(x)'s cell at
        # width divided by eps_x
        "coefficients": {
            label: _value_payload(c, width / e)
            for label, c, e in zip(entry.data.labels, reg.coeffs, entry.data.eps)
        },
        "eigenproperty_passed": verification.passed,
        "violations": _report_json(verification),
    }, 0 if verification.passed else 1


def _cmd_integrality(args: SimpleNamespace) -> tuple[dict[str, Any], int]:
    payload = _category_payload(args)
    return payload, 0 if payload["algebraic_integer"] else 1


def _cmd_center(args: SimpleNamespace) -> tuple[dict[str, Any], int]:
    entry = _load(args.file)
    _gated(entry)
    if entry.annotation is None:
        raise FusionError(
            "input has no Galois annotation: per-simple Galois marks are required "
            "to compute the image of the forgetful functor"
        )
    width = Fraction(1, 2**args.precision)
    prediction = center_fpdim_prediction(entry.data, entry.annotation, user_center_degree=args.dz)
    predicted = _value_payload(prediction.predicted, width)
    return {
        **_identify(entry),
        # a rational prediction prints as its value alone
        "predicted": predicted["value"] or predicted,
        "bound": "violated"
        if not prediction.bound_ok
        else ("equal" if not prediction.strict else "strict"),
        "equality_iff_all_trivial": prediction.equality,
        "consistent": prediction.consistent,
        "center_degree": prediction.center_degree,
        "image_rank": prediction.image.rank,
        "image_simples": list(prediction.image.labels),
    }, 0 if prediction.bound_ok and prediction.consistent else 1


def _cmd_morita(args: SimpleNamespace) -> tuple[dict[str, Any], int]:
    entry_a, entry_b, names = _pair(args)
    _gated(entry_a, entry_b)
    width = Fraction(1, 2**args.precision)
    result = morita_ratio_equal(entry_a.data, entry_b.data)
    return {
        **names,
        "ratio_a": _value_payload(result.ratio_a, width),
        "ratio_b": _value_payload(result.ratio_b, width),
        "equal": result.equal,
    }, 0 if result.equal else 1


def _cmd_deligne(args: SimpleNamespace) -> tuple[dict[str, Any], int]:
    entry_a, entry_b, names = _pair(args)
    for arg, entry in ((args.a, entry_a), (args.b, entry_b)):
        if entry.desc is None:
            raise SchemaError(
                f"{arg!r} carries no division types; add a \"division_types\" "
                "section to use it in products"
            )
    simples = deligne_product(entry_a.desc, entry_b.desc)
    return {
        **names,
        "count": len(simples),
        "simples": [
            {
                "label": s.label,
                "division_type": s.division_type.value,
                "multiplicity": s.multiplicity,
            }
            for s in simples
        ],
    }, 0


def _cmd_catalog(args: SimpleNamespace) -> tuple[dict[str, Any] | str, int]:
    if args.action == "list":
        if args.name is not None:
            raise SchemaError(f"catalog list takes no name, got {args.name!r}")
        return {"builtins": list(list_builtins())}, 0
    if args.name is None:
        raise SchemaError("catalog emit needs a fixture name")
    # an unknown name raises KeyError, which run_command reports with exit 2
    return emit_entry(get_builtin(args.name)), 0


# ---------------------------------------------------------------------------
# command table

#: largest accepted --precision; quadratic refinement to 2^-BITS takes
#: O(log BITS) steps, but each evaluates a polynomial of degree up to the rank
#: at rationals of about BITS bits, and every printed interval end carries
#: about BITS bits, so unbounded values could still stall a call
MAX_PRECISION_BITS = 1024

PROG = "fusionring"


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _precision_bits(text: str) -> int:
    bits = _int(text)
    if not 0 <= bits <= MAX_PRECISION_BITS:
        raise ValueError(f"{bits} is outside 0..{MAX_PRECISION_BITS}")
    return bits


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise ValueError(f"{value} is not a positive integer")
    return value


#: options every subcommand takes, listed ahead of its own
SHARED_OPTIONS = (
    Option(
        "precision",
        "BITS",
        f"certified interval width 2^-BITS, 0..{MAX_PRECISION_BITS} (default 64)",
        _precision_bits,
        64,
    ),
    Option(
        "format",
        "{json,text}",
        "output format (default text)",
        default="text",
        choices=("json", "text"),
    ),
)

_FILE = Positional("file", "fusion file path, '-' for stdin, or a builtin name")
_PAIR = (
    Positional("a", "first input: path, '-' or builtin name"),
    Positional("b", "second input: path, '-' or builtin name"),
)

COMMANDS: dict[str, Command] = {
    "validate": Command(_cmd_validate, "run all axiom checks", (_FILE,)),
    "fpdim": Command(
        _cmd_fpdim,
        "Frobenius-Perron dimensions",
        (_FILE,),
        (
            Option("element", "LABEL", "one simple element (not with --category)"),
            Option(
                "category",
                None,
                "FPdim of the whole category (not with --element)",
                default=False,
            ),
        ),
        exclusive=("element", "category"),
    ),
    "regular": Command(
        _cmd_regular, "regular element and its eigenproperty", (_FILE,)
    ),
    "integrality": Command(
        _cmd_integrality, "algebraic-integrality certificate", (_FILE,)
    ),
    "center": Command(
        _cmd_center,
        "Drinfeld-center FPdim prediction",
        (_FILE,),
        (Option("dz", "N", "center endomorphism degree, positive", _positive_int),),
    ),
    "morita": Command(_cmd_morita, "compare FPdim/d invariants", _PAIR),
    "deligne": Command(_cmd_deligne, "real division-type product of two inputs", _PAIR),
    "catalog": Command(
        _cmd_catalog,
        "builtin fixtures",
        (
            Positional("action", "list the builtin names or emit one", ("list", "emit")),
            Positional("name", "builtin to emit", optional=True),
        ),
    ),
}


COMMAND_LINE = CommandLine(
    PROG,
    "Exact Frobenius-Perron arithmetic for fusion semirings.",
    __version__,
    COMMANDS,
    SHARED_OPTIONS,
)
#: the arguments of one invocation; see CommandLine.parse
parse_args = COMMAND_LINE.parse


def run_command(argv: list[str]) -> int:
    # frozen, the import-time heap is skipped by the command's collections
    freeze = gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
    try:
        args = parse_args(argv)
        payload, code = COMMANDS[args.command].handler(args)
        sys.stdout.write(payload if isinstance(payload, str) else _render(payload, args.format))
        return code
    except ParseExit as exc:
        (sys.stdout if exc.code == 0 else sys.stderr).write(exc.text)
        return exc.code
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    except FusionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if freeze:
            gc.unfreeze()


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
