"""JSON interchange format for fusion data.

Schema (canonical form: sorted keys, simples sorted by label, two-space
indent, no floats anywhere):

    {
      "name": "rep_f2_z3",
      "description": "...",                      # optional
      "endo_degree": 1,
      "unit": ["1"],                             # defaults to ["1"]
      "simples": [
        {"label": "1", "endo_dim": 1, "dual": "1", "galois": "trivial"},
        {"label": "v", "endo_dim": 2, "dual": "v", "galois": null}
      ],
      "fusion": {"v|v": {"1": 2, "v": 1}},       # omitted entries are zero
      "group": {"elements": [...], "table": [[...]]},   # optional
      "center_degree": 1,                        # optional
      "division_types": {"1": "R", "v": "R"}     # optional
    }

A "galois" value of "trivial" marks a Galois-trivial simple, an object
{"group_element": "c"} attaches a Galois group element, and null marks a
Galois-nontrivial simple with no group datum.  A file whose galois values
are all null and which carries neither "group" nor "center_degree" has no
annotation at all.

Parsing enforces the schema only; semiring axioms are the validator's job so
that broken data can be loaded and reported on.  The schema covers every
check of the FusionData constructor, so the parser builds the stored form of
the tensor itself, each entry checked once, and hands it over unchecked.

Every JSON document the package writes, these files and the CLI's --format
json output, goes through dumps: one direct writer whose output is byte for
byte what the standard json module writes with sort_keys=True and indent=2
(whose encoder runs in pure Python whenever an indent is given).
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Optional

from .catalog import FixtureEntry
from .core import FusionData, MultisetElement, is_int
from .deligne import DivisionType, SemisimpleDesc
from .errors import SchemaError
from .galois import FiniteGroup, GaloisAnnotation, GaloisMark
from .morphisms import SemiringMorphism

__all__ = [
    "parse_fusion_file",
    "emit_fusion_file",
    "emit_entry",
    "emit_morphism_file",
    "parse_morphism_file",
    "dumps",
]


def _expect(condition: Any, message: str, *args: Any) -> None:
    """Raise SchemaError(message.format(*args)) unless condition holds; the
    message is formatted only then."""
    if not condition:
        raise SchemaError(message.format(*args))


def dumps(value: Any) -> str:
    """The standard json module's text of value with sort_keys=True and
    indent=2, for a value built from str, int, bool, None, lists, tuples
    and dicts with str keys; any other type raises TypeError."""
    out: list[str] = []
    _dump(value, "\n", out)
    return "".join(out)


def _dump(value: Any, newline: str, out: list[str]) -> None:
    """Append the JSON of value to out; newline is the line break and the
    indent of value's own level."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _dump(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            out += (sep, _quote(key), ": ")  # _quote refuses a key that is no str
            _dump(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _get_str(doc: dict, key: str, default: Optional[str] = None) -> Optional[str]:
    value = doc.get(key, default)
    _expect(value is None or isinstance(value, str), '"{}" must be a string', key)
    return value


def _get_positive_int(doc: dict, key: str, default: Optional[int]) -> Optional[int]:
    value = doc.get(key, default)
    if value is None and default is None:  # only an optional field may be null
        return None
    _expect(
        is_int(value) and value >= 1,
        '"{}" must be a positive integer, got {!r}',
        key,
        value,
    )
    return value


def _decode(source: str | bytes) -> str:
    if isinstance(source, bytes):
        try:
            return source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"not valid UTF-8: {exc}") from exc
    return source


def _loads(source: str | bytes) -> Any:
    """json.loads with every decoding error as SchemaError: malformed JSON
    at its line and column, nesting deeper than the recursion limit, and
    integers longer than Python's integer-string digit limit."""
    try:
        return json.loads(_decode(source))
    except RecursionError:
        raise SchemaError("invalid JSON: arrays or objects nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except ValueError:  # the only other one: int() past sys.get_int_max_str_digits()
        raise SchemaError(
            f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits"
        ) from None


def parse_fusion_file(source: str | bytes) -> FixtureEntry:
    return _parse_fusion_doc(_loads(source))


def _parse_fusion_doc(doc: Any) -> FixtureEntry:
    _expect(isinstance(doc, dict), "top level must be a JSON object")

    name = _get_str(doc, "name", "") or ""
    description = _get_str(doc, "description", "") or ""
    endo_degree = _get_positive_int(doc, "endo_degree", 1)

    simples = doc.get("simples")
    _expect(
        isinstance(simples, list) and simples, '"simples" must be a nonempty array'
    )
    labels: list[str] = []
    endo_dims: list[int] = []
    dual_labels: list[str] = []
    galois_raw: list[Any] = []
    for pos, simple in enumerate(simples):
        _expect(isinstance(simple, dict), "simples[{}] must be an object", pos)
        label = simple.get("label")
        _expect(
            isinstance(label, str) and label, 'simples[{}] needs a nonempty "label"', pos
        )
        _expect(label not in labels, "duplicate simple label {!r}", label)
        labels.append(label)
        dim = simple.get("endo_dim", 1)
        _expect(
            is_int(dim) and dim >= 1,
            'simple {!r}: "endo_dim" must be a positive integer, got {!r}',
            label,
            dim,
        )
        endo_dims.append(dim)
        dual = simple.get("dual", label)
        _expect(isinstance(dual, str), 'simple {!r}: "dual" must be a label', label)
        dual_labels.append(dual)
        galois_raw.append(simple.get("galois"))

    index = {label: i for i, label in enumerate(labels)}
    rank = len(labels)
    for label, dual in zip(labels, dual_labels):
        _expect(dual in index, 'simple {!r}: unknown dual label {!r}', label, dual)

    unit_labels = doc.get("unit", ["1"])
    _expect(
        isinstance(unit_labels, list) and unit_labels,
        '"unit" must be a nonempty array of labels',
    )
    for u in unit_labels:
        _expect(isinstance(u, str) and u in index, "unknown unit label {!r}", u)

    products = [[()] * rank for _ in range(rank)]
    pairs: dict[tuple[int, int], tuple[int, int]] = {}
    fusion = doc.get("fusion", {})
    _expect(isinstance(fusion, dict), '"fusion" must be an object')
    for key, row in fusion.items():
        parts = key.split("|")
        if len(parts) != 2:
            raise SchemaError(f'fusion key {key!r} must look like "left|right"')
        left, right = parts
        for label in parts:
            if label not in index:
                raise SchemaError(f"fusion key {key!r}: unknown label {label!r}")
        if not isinstance(row, dict):
            raise SchemaError(f"fusion[{key!r}] must be an object")
        entries = []
        for result, mult in row.items():
            k = index.get(result)
            if k is None:
                raise SchemaError(f"fusion[{key!r}]: unknown label {result!r}")
            # JSON gives no int subclass but bool
            if type(mult) is not int or mult < 0:
                raise SchemaError(
                    f"fusion[{key!r}][{result!r}] must be a nonnegative integer, got {mult!r}"
                )
            if mult:
                pair = (k, mult)
                entries.append(pairs.setdefault(pair, pair))
        entries.sort()
        products[index[left]][index[right]] = tuple(entries)

    group: Optional[FiniteGroup] = None
    if "group" in doc:
        raw = doc["group"]
        _expect(isinstance(raw, dict), '"group" must be an object')
        elements = raw.get("elements")
        table = raw.get("table")
        _expect(
            isinstance(elements, list) and all(isinstance(e, str) for e in elements),
            '"group.elements" must be an array of labels',
        )
        _expect(
            isinstance(table, list)
            and all(isinstance(row, list) for row in table)
            and all(is_int(v) for row in table for v in row),
            '"group.table" must be an array of arrays of element indices',
        )
        try:
            group = FiniteGroup(tuple(elements), tuple(tuple(row) for row in table))
        except ValueError as exc:
            raise SchemaError(f'"group" is not a valid group: {exc}') from exc

    center_degree = _get_positive_int(doc, "center_degree", None)

    marks: list[GaloisMark] = []
    annotated = group is not None or center_degree is not None
    for label, raw in zip(labels, galois_raw):
        if raw is None:
            marks.append(GaloisMark.nontrivial())
        elif raw == "trivial":
            marks.append(GaloisMark.trivial())
            annotated = True
        elif isinstance(raw, dict) and set(raw) == {"group_element"}:
            element = raw["group_element"]
            _expect(
                isinstance(element, str),
                'simple {!r}: "group_element" must be a label',
                label,
            )
            _expect(
                group is not None,
                'simple {!r} names a group element but the file has no "group"',
                label,
            )
            _expect(
                element in group.labels,
                'simple {!r}: unknown group element {!r}',
                label,
                element,
            )
            marks.append(GaloisMark.of(element))
            annotated = True
        else:
            raise SchemaError(
                f'simple {label!r}: "galois" must be null, "trivial" or '
                f'{{"group_element": ...}}, got {raw!r}'
            )
    annotation = (
        GaloisAnnotation(tuple(marks), group=group, center_degree=center_degree)
        if annotated
        else None
    )

    desc: Optional[SemisimpleDesc] = None
    if "division_types" in doc:
        raw = doc["division_types"]
        _expect(isinstance(raw, dict), '"division_types" must be an object')
        _expect(
            set(raw) == set(labels),
            '"division_types" must assign a type to every simple',
        )
        kinds = []
        for label in labels:
            value = raw[label]
            _expect(
                value in ("R", "C", "H"),
                'division type of {!r} must be "R", "C" or "H", got {!r}',
                label,
                value,
            )
            kinds.append((label, DivisionType(value)))
        desc = SemisimpleDesc(tuple(kinds))

    data = FusionData._certified(
        tuple(labels),
        tuple(map(tuple, products)),
        tuple(index[d] for d in dual_labels),
        tuple(endo_dims),
        endo_degree,
        tuple(index[u] for u in unit_labels),
    )

    return FixtureEntry(
        name=name, data=data, annotation=annotation, desc=desc, description=description
    )


def _mark_to_json(mark: Optional[GaloisMark]) -> Any:
    if mark is None or mark.kind == "nontrivial":
        return None
    if mark.kind == "trivial":
        return "trivial"
    return {"group_element": mark.element}


def emit_fusion_file(
    data: FusionData,
    *,
    name: str = "",
    annotation: Optional[GaloisAnnotation] = None,
    desc: Optional[SemisimpleDesc] = None,
    description: str = "",
) -> str:
    """Canonical byte-deterministic JSON form.  Simples are listed sorted by
    label, fusion rows keep only nonzero results, keys are sorted."""
    return dumps(_fusion_doc(data, name, annotation, desc, description)) + "\n"


def _fusion_doc(
    data: FusionData,
    name: str = "",
    annotation: Optional[GaloisAnnotation] = None,
    desc: Optional[SemisimpleDesc] = None,
    description: str = "",
) -> dict[str, Any]:
    """The document emit_fusion_file writes, also embedded as it is in
    morphism files."""
    order = sorted(range(data.rank), key=lambda i: data.labels[i])
    doc: dict[str, Any] = {
        "name": name,
        "endo_degree": data.endo_degree,
        "unit": sorted(data.labels[u] for u in data.unit),
    }
    if description:
        doc["description"] = description
    simples = []
    for i in order:
        mark = annotation.marks[i] if annotation is not None else None
        simples.append(
            {
                "label": data.labels[i],
                "endo_dim": data.eps[i],
                "dual": data.labels[data.dual[i]],
                "galois": _mark_to_json(mark),
            }
        )
    doc["simples"] = simples
    fusion: dict[str, dict[str, int]] = {}
    for i in order:
        for j in order:
            row = {data.labels[k]: m for k, m in data.products[i][j]}
            if row:
                fusion[f"{data.labels[i]}|{data.labels[j]}"] = dict(sorted(row.items()))
    doc["fusion"] = fusion
    if annotation is not None and annotation.group is not None:
        doc["group"] = {
            "elements": list(annotation.group.labels),
            "table": [list(row) for row in annotation.group.table],
        }
    if annotation is not None and annotation.center_degree is not None:
        doc["center_degree"] = annotation.center_degree
    if desc is not None:
        doc["division_types"] = {
            label: kind.value for label, kind in sorted(desc.simples)
        }
    return doc


def emit_entry(entry: FixtureEntry) -> str:
    return emit_fusion_file(
        entry.data,
        name=entry.name,
        annotation=entry.annotation,
        desc=entry.desc,
        description=entry.description,
    )


# ---------------------------------------------------------------------------
# morphism files: embedded source/target documents plus label-keyed images


def emit_morphism_file(f: SemiringMorphism, *, name: str = "") -> str:
    """Canonical JSON form of a semiring morphism.  The image of each source
    simple is keyed by labels, so it survives the label-sorted canonical
    ordering of the embedded fusion documents."""
    if not isinstance(f, SemiringMorphism):
        raise TypeError(f"expected a SemiringMorphism, not {type(f).__name__}")
    images: dict[str, dict[str, int]] = {}
    for s in range(f.source.rank):
        column = {
            f.target.labels[t]: f.matrix[t][s]
            for t in range(f.target.rank)
            if f.matrix[t][s]
        }
        if column:
            images[f.source.labels[s]] = dict(sorted(column.items()))
    doc: dict[str, Any] = {
        "kind": "morphism",
        "name": name,
        "source": _fusion_doc(f.source),
        "target": _fusion_doc(f.target),
        "images": images,
        "twist": None
        if f.twist is None
        else {
            f.source.labels[i]: c for i, c in enumerate(f.twist.coeffs) if c
        },
    }
    return dumps(doc) + "\n"


def parse_morphism_file(source: str | bytes) -> SemiringMorphism:
    doc = _loads(source)
    _expect(isinstance(doc, dict), "top level must be a JSON object")
    _expect(doc.get("kind") == "morphism", 'morphism files carry "kind": "morphism"')
    for key in ("source", "target"):
        _expect(isinstance(doc.get(key), dict), '"{}" must be an embedded fusion document', key)
    src = _parse_fusion_doc(doc["source"]).data
    tgt = _parse_fusion_doc(doc["target"]).data
    images = doc.get("images", {})
    _expect(isinstance(images, dict), '"images" must be an object')
    matrix = [[0] * src.rank for _ in range(tgt.rank)]
    for s_label, column in images.items():
        _expect(s_label in src.labels, "unknown source label {!r}", s_label)
        _expect(isinstance(column, dict), "images[{!r}] must be an object", s_label)
        for t_label, mult in column.items():
            _expect(t_label in tgt.labels, "unknown target label {!r}", t_label)
            _expect(
                is_int(mult) and mult >= 0,
                "images[{!r}][{!r}] must be a nonnegative integer",
                s_label,
                t_label,
            )
            matrix[tgt.index(t_label)][src.index(s_label)] = mult
    twist = None
    raw_twist = doc.get("twist")
    if raw_twist is not None:
        _expect(isinstance(raw_twist, dict), '"twist" must be an object or null')
        coeffs = [0] * src.rank
        for label, c in raw_twist.items():
            _expect(label in src.labels, "unknown twist label {!r}", label)
            _expect(
                is_int(c) and c >= 0,
                "twist[{!r}] must be a nonnegative integer",
                label,
            )
            coeffs[src.index(label)] = c
        twist = MultisetElement(src, tuple(coeffs))
    return SemiringMorphism(
        source=src, target=tgt, matrix=tuple(tuple(row) for row in matrix), twist=twist
    )
