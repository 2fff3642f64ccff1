from __future__ import annotations

import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fusionring as fr
from fusionring.cli import run_command
from fusionring.fileformat import dumps
from conftest import ALL_NAMES, relabelled, su2, tambara_yamagami, tensor_product


@pytest.mark.parametrize("name", ALL_NAMES)
def test_round_trip_builtins(name):
    entry = fr.get_builtin(name)
    text = fr.emit_entry(entry)
    parsed = fr.parse_fusion_file(text)
    assert type(parsed) is fr.FixtureEntry
    assert parsed == entry


@pytest.mark.parametrize("name", ALL_NAMES)
def test_emit_parse_emit_byte_identical(name):
    entry = fr.get_builtin(name)
    once = fr.emit_entry(entry)
    twice = fr.emit_entry(fr.parse_fusion_file(once))
    assert once == twice


def test_emit_is_canonical_json():
    text = fr.emit_entry(fr.get_builtin("rep_f2_z3"))
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    labels = [s["label"] for s in doc["simples"]]
    assert labels == sorted(labels)


def _minimal(label_v_endo=2):
    return {
        "name": "tiny",
        "endo_degree": 1,
        "unit": ["1"],
        "simples": [
            {"label": "1", "endo_dim": 1, "dual": "1", "galois": None},
            {"label": "v", "endo_dim": label_v_endo, "dual": "v", "galois": None},
        ],
        "fusion": {"1|1": {"1": 1}, "1|v": {"v": 1}, "v|1": {"v": 1}, "v|v": {"1": 2, "v": 1}},
    }


def test_parse_minimal_document():
    parsed = fr.parse_fusion_file(json.dumps(_minimal()))
    assert parsed.data == fr.get_builtin("rep_f2_z3").data
    assert parsed.annotation is None


def test_parse_defaults():
    doc = {"simples": [{"label": "1"}], "fusion": {"1|1": {"1": 1}}}
    parsed = fr.parse_fusion_file(json.dumps(doc))
    assert parsed.data.endo_degree == 1
    assert parsed.data.unit == (0,)
    assert parsed.data.eps == (1,)


def test_schema_error_endo_dim_zero():
    doc = _minimal(label_v_endo=0)
    with pytest.raises(fr.SchemaError):
        fr.parse_fusion_file(json.dumps(doc))


def test_schema_error_duplicate_labels():
    doc = _minimal()
    doc["simples"].append({"label": "v", "endo_dim": 1, "dual": "v"})
    with pytest.raises(fr.SchemaError):
        fr.parse_fusion_file(json.dumps(doc))


def test_schema_error_negative_multiplicity():
    doc = _minimal()
    doc["fusion"]["v|v"]["1"] = -2
    with pytest.raises(fr.SchemaError):
        fr.parse_fusion_file(json.dumps(doc))


def test_schema_error_unknown_dual():
    doc = _minimal()
    doc["simples"][1]["dual"] = "w"
    with pytest.raises(fr.SchemaError):
        fr.parse_fusion_file(json.dumps(doc))


def test_schema_error_bad_fusion_key():
    doc = _minimal()
    doc["fusion"]["v"] = {"1": 1}
    with pytest.raises(fr.SchemaError):
        fr.parse_fusion_file(json.dumps(doc))


def test_schema_error_invalid_json():
    with pytest.raises(fr.SchemaError) as info:
        fr.parse_fusion_file("{not json")
    assert "line" in str(info.value)


@pytest.mark.parametrize("parse", [fr.parse_fusion_file, fr.parse_morphism_file])
def test_invalid_json_reports_line_and_column_in_both_formats(parse):
    with pytest.raises(fr.SchemaError) as info:
        parse('{\n  "kind": }')
    assert str(info.value) == "invalid JSON at line 2, column 11: Expecting value"


DEEP_JSON = "[" * 200_000
HUGE_INT_JSON = '{"endo_degree": ' + "9" * 5000 + ', "simples": []}'


@pytest.mark.parametrize("text", [DEEP_JSON, HUGE_INT_JSON], ids=["deep", "huge-int"])
def test_schema_error_on_decoder_limits(text):
    # json.loads raises RecursionError and a plain ValueError here, not
    # JSONDecodeError; both parsers turn them into SchemaError
    with pytest.raises(fr.SchemaError, match="invalid JSON"):
        fr.parse_fusion_file(text)
    with pytest.raises(fr.SchemaError, match="invalid JSON"):
        fr.parse_morphism_file(text)
    embedded = '{"kind": "morphism", "source": ' + text + "}"
    with pytest.raises(fr.SchemaError, match="invalid JSON"):
        fr.parse_morphism_file(embedded)


def test_schema_error_bad_galois():
    doc = _minimal()
    doc["simples"][1]["galois"] = {"group_element": "c"}  # file has no group
    with pytest.raises(fr.SchemaError):
        fr.parse_fusion_file(json.dumps(doc))
    doc["simples"][1]["galois"] = 42
    with pytest.raises(fr.SchemaError):
        fr.parse_fusion_file(json.dumps(doc))


def test_schema_error_incomplete_division_types():
    doc = _minimal()
    doc["division_types"] = {"1": "R"}
    with pytest.raises(fr.SchemaError):
        fr.parse_fusion_file(json.dumps(doc))


def test_non_involutive_dual_is_structural_not_schema():
    doc = {
        "simples": [
            {"label": "1", "dual": "1"},
            {"label": "a", "dual": "b"},
            {"label": "b", "dual": "b"},
        ],
        "fusion": {"1|1": {"1": 1}, "1|a": {"a": 1}, "a|1": {"a": 1},
                   "1|b": {"b": 1}, "b|1": {"b": 1},
                   "a|b": {"1": 1}, "b|a": {"1": 1},
                   "a|a": {"b": 1}, "b|b": {"a": 1}},
    }
    parsed = fr.parse_fusion_file(json.dumps(doc))  # schema-valid
    report = fr.check_structural(parsed.data)
    assert not report.passed
    assert any(v.rule == "dual_involution" and "a" in v.message for v in report.violations)


def test_duplicate_unit_labels_parse_and_fail_validation():
    doc = _minimal()
    doc["unit"] = ["1", "1"]
    parsed = fr.parse_fusion_file(json.dumps(doc))
    _, report = fr.unit_decomposition(parsed.data)
    assert not report.passed


def test_trivial_annotation_round_trip():
    doc = _minimal()
    doc["simples"][0]["galois"] = "trivial"
    parsed = fr.parse_fusion_file(json.dumps(doc))
    assert parsed.annotation is not None
    assert parsed.annotation.is_trivial(0)
    assert not parsed.annotation.is_trivial(1)


def test_parse_accepts_bytes_and_rejects_bad_utf8():
    entry = fr.get_builtin("fib")
    assert fr.parse_fusion_file(fr.emit_entry(entry).encode()).data == entry.data
    with pytest.raises(fr.SchemaError):
        fr.parse_fusion_file(b"\xff\xfe{}")


# ---------------------------------------------------------------------------
# the parser hands FusionData its fields unchecked: it must build exactly what
# the public constructor builds, and refuse every file the constructor would

FIELDS = ("labels", "products", "dual", "eps", "endo_degree", "unit")


def _assert_as_public_constructor_builds(data):
    public = fr.FusionData(**{name: getattr(data, name) for name in FIELDS})
    for name in FIELDS:
        ours, theirs = getattr(data, name), getattr(public, name)
        assert ours == theirs and type(ours) is type(theirs), name
    assert all(type(row) is tuple for plane in data.products for row in plane)
    assert all(type(plane) is tuple for plane in data.products)
    pairs = [pair for plane in data.products for row in plane for pair in row]
    assert len({id(pair) for pair in pairs}) == len(set(pairs))  # one tuple per pair
    assert data == public and hash(data) == hash(public)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_parsed_builtin_equals_public_constructor(capsys, name):
    assert run_command(["catalog", "emit", name]) == 0
    _assert_as_public_constructor_builds(fr.parse_fusion_file(capsys.readouterr().out).data)


@pytest.mark.parametrize(
    "make",
    [
        lambda: su2(5),
        lambda: su2(9),
        lambda: tambara_yamagami(5),
        lambda: tensor_product(su2(2), tambara_yamagami(3)),
        lambda: tensor_product(fr.get_builtin("rep_f2_z3").data, fr.get_builtin("fib").data),
    ],
    ids=["su2_5", "su2_9", "ty_5", "su2_2xty_3", "rep_f2_z3xfib"],
)
@pytest.mark.parametrize("seed", [1, 2])
def test_parsed_generated_ring_equals_public_constructor(make, seed):
    text = fr.emit_fusion_file(relabelled(make(), seed))
    _assert_as_public_constructor_builds(fr.parse_fusion_file(text).data)


def _set(doc, **changes):
    doc.update(changes)


def _simple(doc, pos, **changes):
    doc["simples"][pos].update(changes)


def _fusion(doc, key, row):
    doc["fusion"][key] = row


#: (constructor fields that raise ValueError, the same defect in a file).  A
#: file cannot list a product's results out of order: the parser sorts them.
CONSTRUCTOR_REFUSALS = {
    "empty-basis": (
        dict(labels=(), products=(), dual=(), eps=()),
        lambda d: _set(d, simples=[], fusion={}),
    ),
    "duplicate-labels": (dict(labels=("1", "1")), lambda d: _simple(d, 1, label="1")),
    "shape": (
        dict(products=(((), ()),)),
        lambda d: _fusion(d, "1|w", {"v": 1}),
    ),
    "index-out-of-range": (
        dict(products=((((0, 1),), ((2, 1),)), (((1, 1),), ((0, 2), (1, 1))))),
        lambda d: _fusion(d, "1|v", {"w": 1}),
    ),
    "negative-multiplicity": (
        dict(products=((((0, 1),), ((1, -1),)), (((1, 1),), ((0, 2), (1, 1))))),
        lambda d: _fusion(d, "1|v", {"v": -1}),
    ),
    "float-multiplicity": (
        dict(products=((((0, 1),), ((1, 1.0),)), (((1, 1),), ((0, 2), (1, 1))))),
        lambda d: _fusion(d, "1|v", {"v": 1.0}),
    ),
    "bool-multiplicity": (
        dict(products=((((0, 1),), ((1, True),)), (((1, 1),), ((0, 2), (1, 1))))),
        lambda d: _fusion(d, "1|v", {"v": True}),
    ),
    "bool-index": (
        dict(products=((((0, 1),), ((True, 1),)), (((1, 1),), ((0, 2), (1, 1))))),
        lambda d: _fusion(d, "1|v", {"true": 1}),
    ),
    "unknown-dual": (dict(dual=(0, 2)), lambda d: _simple(d, 1, dual="w")),
    "int-dual": (dict(dual=(0, True)), lambda d: _simple(d, 1, dual=1)),
    "null-dual": (dict(dual=(0, None)), lambda d: _simple(d, 1, dual=None)),
    "zero-eps": (dict(eps=(1, 0)), lambda d: _simple(d, 1, endo_dim=0)),
    "bool-eps": (dict(eps=(1, True)), lambda d: _simple(d, 1, endo_dim=True)),
    "float-eps": (dict(eps=(1, 2.0)), lambda d: _simple(d, 1, endo_dim=2.0)),
    "null-eps": (dict(eps=(1, None)), lambda d: _simple(d, 1, endo_dim=None)),
    "zero-endo-degree": (dict(endo_degree=0), lambda d: _set(d, endo_degree=0)),
    "bool-endo-degree": (dict(endo_degree=True), lambda d: _set(d, endo_degree=True)),
    "float-endo-degree": (dict(endo_degree=1.0), lambda d: _set(d, endo_degree=1.0)),
    "string-endo-degree": (dict(endo_degree="1"), lambda d: _set(d, endo_degree="1")),
    "empty-unit": (dict(unit=()), lambda d: _set(d, unit=[])),
    "unknown-unit": (dict(unit=(2,)), lambda d: _set(d, unit=["w"])),
    "bool-unit": (dict(unit=(True,)), lambda d: _set(d, unit=[True])),
}


@pytest.mark.parametrize("fields, spoil", CONSTRUCTOR_REFUSALS.values(), ids=CONSTRUCTOR_REFUSALS)
def test_every_constructor_refusal_is_a_schema_error(capsys, monkeypatch, fields, spoil):
    data = fr.get_builtin("rep_f2_z3").data
    with pytest.raises(ValueError):
        fr.FusionData(**{**{name: getattr(data, name) for name in FIELDS}, **fields})
    doc = _minimal()
    assert fr.parse_fusion_file(json.dumps(doc)).data == data
    spoil(doc)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert run_command(["validate", "-"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_null_endo_degree_is_a_schema_error():
    # the constructor raises TypeError on a missing field, which escaped the
    # parser as a traceback; an optional field may be null, endo_degree not
    doc = _minimal()
    doc["endo_degree"] = None
    with pytest.raises(fr.SchemaError, match='"endo_degree" must be a positive integer, got None'):
        fr.parse_fusion_file(json.dumps(doc))
    doc["endo_degree"] = 1
    doc["center_degree"] = None
    assert fr.parse_fusion_file(json.dumps(doc)).annotation is None


def test_parser_sorts_results_listed_out_of_order():
    doc = _minimal()
    doc["fusion"]["v|v"] = {"v": 1, "1": 2}
    data = fr.parse_fusion_file(json.dumps(doc)).data
    assert data.products[1][1] == ((0, 2), (1, 1))
    _assert_as_public_constructor_builds(data)


@pytest.mark.parametrize("mult", [True, False, 1.0, "1"], ids=["true", "false", "float", "str"])
def test_parser_alone_refuses_non_int_multiplicities(mult):
    # the parser's own message, which names the file's key; the constructor
    # refuses the same multiplicities (CONSTRUCTOR_REFUSALS)
    doc = _minimal()
    doc["fusion"]["v|v"]["v"] = mult
    with pytest.raises(fr.SchemaError, match=r"fusion\['v\|v'\]\['v'\] must be a nonnegative integer"):
        fr.parse_fusion_file(json.dumps(doc))


# ---------------------------------------------------------------------------
# dumps, the package's one JSON writer, against the standard json module

#: characters that the writer must escape as the json module does: quotes,
#: backslashes, control characters, non-ASCII, astral and a lone surrogate
AWKWARD = ('"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "☃", "\U0001f600", "\ud800", "|")
JSON_STRINGS = st.text(st.one_of(st.sampled_from(AWKWARD), st.characters()), max_size=6)
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([0, 1, -1, 2**63, 2**64 + 1, -(2**70), 10**40]),
    JSON_STRINGS,
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(JSON_STRINGS, children, max_size=4),
    ),
    max_leaves=24,
)


def _json_module(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(JSON_TREES)
def test_dumps_writes_what_the_json_module_writes(value):
    assert dumps(value) == _json_module(value)


class Forty(int):
    """An int whose str and repr are not its digits."""

    __str__ = __repr__ = lambda self: "forty"


def test_dumps_on_awkward_payloads():
    payloads = [
        [Forty(40), {"n": Forty(-40)}],
        {"a": [True, 1, False, 0, None], "b": {"x": True, "y": 1}, "c": (False, 0)},
        [[], {}, (), [[]], {"": {}}, [(), {"k": []}]],
        {"é\n\"": "\x00\ud800☃", "\\": -(2**100), "Z": 2**64, "a": ""},
        {"z": 1, "Z": 2, "é": 3, "e": 4, "": 5, " ": 6},
        "", 0, -1, True, False, None, (), [], {},
    ]
    for value in payloads:
        assert dumps(value) == _json_module(value)


@pytest.mark.parametrize(
    "value", [0.5, [1, 2.0], {"a": {"b": float("nan")}}, {1: "a"}, {"a": {None: 1}}, {"a": b"x"}]
)
def test_dumps_refuses_floats_and_non_str_keys(value):
    with pytest.raises(TypeError):
        dumps(value)
