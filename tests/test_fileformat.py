from __future__ import annotations

import json

import pytest

import fusionring as fr
from conftest import ALL_NAMES


@pytest.mark.parametrize("name", ALL_NAMES)
def test_round_trip_builtins(name):
    entry = fr.get_builtin(name)
    text = fr.emit_entry(entry)
    parsed = fr.parse_fusion_file(text)
    assert type(parsed) is fr.FixtureEntry is fr.ParsedFile
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
