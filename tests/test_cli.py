from __future__ import annotations

import gc
import importlib.util
import io
import itertools
import json
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import fusionring as fr
from fusionring import cli
from fusionring.cli import MAX_PRECISION_BITS, run_command
from fusionring.cmdline import Command
from fusionring.poly import RationalPolynomial
from conftest import (
    center_prediction_oracle,
    galois_product,
    su2,
    tambara_yamagami,
    tensor_product,
    text_mode_load_oracle,
)

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "tools" / "cli_digest.py")
cli_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digest)


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out) if out else None, err


def builtin_benchmark_goldens():
    """(job id, golden) for every benchmark CLI job run on a builtin by name."""
    golden = json.loads((Path(__file__).parents[1] / "perfbench" / "golden.json").read_text())
    return [
        pytest.param(job_id, entry, id=job_id)
        for workload in ("cli-irrational", "cli-pointed")
        for job_id, entry in sorted(golden[workload].items())
        if job_id.partition(":")[2] in fr.list_builtins()
    ]


@pytest.mark.parametrize("job_id, golden", builtin_benchmark_goldens())
def test_builtin_cli_jobs_match_benchmark_goldens(capsys, job_id, golden):
    cmd, _, name = job_id.partition(":")
    code, doc, _ = run_json(capsys, cmd, name)
    assert code == golden["code"]
    assert doc == golden["output"]


def test_fpdim_category_payload(capsys, tmp_path):
    path = tmp_path / "rep_f2_z3.json"
    path.write_text(fr.emit_entry(fr.get_builtin("rep_f2_z3")))
    code, doc, _ = run_json(capsys, "fpdim", str(path), "--category")
    assert code == 0
    assert doc["value"] == "3"
    assert doc["min_poly"] == [-3, 1]
    assert doc["algebraic_integer"] is True


def test_fpdim_element_payload(capsys):
    code, doc, _ = run_json(capsys, "fpdim", "rep_f2_z3", "--element", "v")
    assert code == 0
    assert doc["value"] == "2"
    assert doc["char_poly"] == [-2, -1, 1]
    assert doc["min_poly"] == [-2, 1]


def test_fpdim_all_elements(capsys):
    code, doc, _ = run_json(capsys, "fpdim", "rep_r_q8")
    assert code == 0
    values = {label: payload["value"] for label, payload in doc["elements"].items()}
    assert values == {"1": "1", "a": "1", "b": "1", "c": "1", "h": "4"}


def test_fpdim_irrational_interval(capsys):
    code, doc, _ = run_json(capsys, "fpdim", "fib", "--element", "x")
    assert code == 0
    assert doc["value"] is None
    assert doc["min_poly"] == [-1, -1, 1]
    assert doc["approx"].startswith("1.6180339887")


def test_center_gal7(capsys):
    code, doc, _ = run_json(capsys, "center", "gal7")
    assert code == 0
    assert doc["predicted"] == "1"
    assert doc["bound"] == "strict"
    assert doc["equality_iff_all_trivial"] is False
    assert doc["center_degree"] == 2


@pytest.mark.parametrize("k", [9, 11, 15])
def test_center_forms_predictions_of_degree_past_16(capsys, tmp_path, k):
    # FPdim(C) of gal7 (x) SU(2)_k has degree 5, 6 or 8, so the predicted
    # product is a root of a composed product of degree 25, 36 or 64
    data, annotation = galois_product(fr.get_builtin("gal7"), su2(k))
    path = tmp_path / f"gal7xsu2_{k}.json"
    path.write_text(fr.emit_fusion_file(data, name=path.stem, annotation=annotation))
    code, doc, _ = run_json(capsys, "center", str(path))
    assert (code, doc["bound"], doc["consistent"]) == (0, "strict", True)
    predicted, bound_ok, strict, equality, consistent = center_prediction_oracle(data, annotation)
    assert (bound_ok, strict, equality, consistent) == (True, True, False, True)
    assert doc["equality_iff_all_trivial"] is False
    payload = doc["predicted"]
    printed = fr.AlgebraicNumber(
        RationalPolynomial(payload["min_poly"]), *map(Fraction, payload["interval"])
    )
    assert fr.min_poly(predicted) == printed.poly
    assert fr.exact_cmp(printed, predicted) == 0


def test_center_requires_annotation(capsys):
    # --dz cannot stand in for the per-simple Galois marks, and the message
    # does not suggest it
    messages = set()
    for argv in (["center", "fib"], ["center", "fib", "--dz", "1"]):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "annotation" in err and "--dz" not in err
        messages.add(err)
    assert len(messages) == 1


def test_center_dz_flag(capsys):
    code, doc, _ = run_json(capsys, "center", "gal7", "--dz", "6")
    assert code == 0
    assert doc["predicted"] == "3"


def test_validate_pass(capsys):
    code, doc, _ = run_json(capsys, "validate", "rep_r_q8")
    assert code == 0
    assert doc["passed"] is True
    assert doc["violations"] == []


@pytest.mark.parametrize("command", ["validate", "integrality", "fpdim", "regular"])
def test_commands_on_a_file_never_build_the_dense_tensor(capsys, tmp_path, monkeypatch, command):
    built = []
    dense = fr.FusionData.n_tensor

    def n_tensor(self):
        built.append(self.labels)
        return dense.func(self)

    monkeypatch.setattr(fr.FusionData, "n_tensor", property(n_tensor))
    for name in fr.list_builtins():
        path = tmp_path / f"{name}.json"
        path.write_text(fr.emit_entry(fr.get_builtin(name)))
        assert run_command([command, str(path)]) in (0, 1)
    assert built == []


def test_validate_corrupted_file(capsys, tmp_path):
    doc = json.loads(fr.emit_entry(fr.get_builtin("rep_f2_z3")))
    doc["fusion"]["v|v"] = {"v": 1}  # unit dropped from v*v
    path = tmp_path / "corrupted.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_json(capsys, "validate", str(path))
    assert code == 1
    assert out["passed"] is False
    assert any(v["rule"] == "duality" for v in out["violations"])


def test_validate_schema_error_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"simples": []}')
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("[" * 200_000, "nested too deeply"),
        ('{"endo_degree": ' + "9" * 5000 + "}", "more than"),
    ],
    ids=["deep", "huge-int"],
)
def test_decoder_limits_exit_2(capsys, tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid JSON") and message in err


def test_regular_command(capsys):
    code, doc, _ = run_json(capsys, "regular", "rep_f2_z3")
    assert code == 0
    assert doc["coefficients"]["1"]["value"] == "1"
    assert doc["coefficients"]["v"]["value"] == "1"
    assert doc["eigenproperty_passed"] is True


def test_regular_prints_the_fpdim_interval_divided_by_eps(capsys, tmp_path):
    # rep_f2_z3 x Fib has eps (1, 1, 2, 2) and FPdims 1, phi, 2, 2 phi; the
    # coefficient FPdim(x)/eps_x prints FPdim(x)'s cell at the precision,
    # divided by eps_x, also for v.x, where a cell at the precision itself
    # would be coarser
    data = tensor_product(fr.get_builtin("rep_f2_z3").data, fr.get_builtin("fib").data)
    assert data.eps == (1, 1, 2, 2)
    path = tmp_path / "rep_f2_z3xfib.json"
    path.write_text(fr.emit_fusion_file(data, name="rep_f2_z3xfib"))
    for bits in ("0", "8", "64"):
        _, regular, _ = run_json(capsys, "regular", str(path), "--precision", bits)
        _, fpdim, _ = run_json(capsys, "fpdim", str(path), "--precision", bits)
        irrational_halves = []
        for label, e in zip(data.labels, data.eps):
            got = [Fraction(v) for v in regular["coefficients"][label]["interval"]]
            dim = [Fraction(v) for v in fpdim["elements"][label]["interval"]]
            assert got == [v / e for v in dim], (label, bits)
            if e == 2 and dim[0] < dim[1]:
                irrational_halves.append(label)
        assert irrational_halves == ["v.x"]


def test_integrality_command(capsys):
    code, doc, _ = run_json(capsys, "integrality", "fib")
    assert code == 0
    assert doc["min_poly"] == [5, -5, 1]
    assert doc["algebraic_integer"] is True


def test_morita_command(capsys):
    code, doc, _ = run_json(capsys, "morita", "cc_bim", "vec_r")
    assert code == 0
    assert doc["equal"] is True
    assert doc["ratio_a"]["value"] == "1"
    code, doc, _ = run_json(capsys, "morita", "fib", "vec_r")
    assert code == 1
    assert doc["equal"] is False


def test_deligne_command(capsys):
    code, doc, _ = run_json(capsys, "deligne", "vec_c", "vec_c")
    assert code == 0
    assert doc["count"] == 2
    assert all(s["division_type"] == "C" for s in doc["simples"])


def test_deligne_needs_division_types(capsys):
    code, _, err = run(capsys, "deligne", "fib", "vec_c")
    assert code == 2
    assert "division" in err


def test_catalog_list(capsys):
    code, doc, _ = run_json(capsys, "catalog", "list")
    assert code == 0
    assert "rep_r_q8" in doc["builtins"] and "gal7" in doc["builtins"]


def test_catalog_list_refuses_a_name(capsys):
    assert run(capsys, "catalog", "list", "fib") == (
        2, "", "error: catalog list takes no name, got 'fib'\n"
    )


def test_catalog_emit_round_trip(capsys):
    code, out, _ = run(capsys, "catalog", "emit", "jj_bim")
    assert code == 0
    parsed = fr.parse_fusion_file(out)
    assert parsed.data == fr.get_builtin("jj_bim").data
    assert parsed.annotation == fr.get_builtin("jj_bim").annotation


def test_catalog_emit_needs_a_name(capsys):
    assert run(capsys, "catalog", "emit") == (2, "", "error: catalog emit needs a fixture name\n")


def test_catalog_emit_unknown(capsys):
    code, _, err = run(capsys, "catalog", "emit", "nope")
    assert code == 2
    assert err == f"error: unknown builtin 'nope'; available: {', '.join(fr.list_builtins())}\n"


def test_stdin_input(capsys, monkeypatch):
    text = fr.emit_entry(fr.get_builtin("rep_f2_z3"))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, doc, _ = run_json(capsys, "fpdim", "-", "--category")
    assert code == 0
    assert doc["value"] == "3"


def test_non_utf8_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"name": "caf\xe9"}'.encode("latin-1"))
    code, out, err = run(capsys, "fpdim", str(path), "--category")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {str(path)!r}: 'utf-8' codec can't decode")


def test_directory_input_is_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "validate", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {str(tmp_path)!r}: ")


def test_non_utf8_stdin_is_usage_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe{}"), encoding="utf-8"))
    code, out, err = run(capsys, "fpdim", "-", "--category")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read '-': 'utf-8' codec can't decode")


def test_path_name_is_the_name_pathlib_gives():
    for size in range(7):
        for parts in itertools.product(("/", ".", "..", "a", "b c"), repeat=size):
            arg = "".join(parts)
            assert cli._path_name(arg) == str(Path(arg)), arg


#: what the digest's path cases print on stderr, beyond matching the
#: text-mode reader: the line of a JSON error after CRLF or CR line ends,
#: the refused byte order mark and the undecodable byte
READER_MESSAGES = {
    "crlf.json": "invalid JSON at line 3, column 15: Expecting value",
    "cr.json": "invalid JSON at line 3, column 15: Expecting value",
    "bom.json": "Unexpected UTF-8 BOM",
    "ff.json": "cannot read 'ff.json': 'utf-8' codec can't decode byte 0xff in position 13",
}


@pytest.mark.parametrize("name, path", cli_digest.MALFORMED_PATHS)
def test_reader_prints_what_the_text_mode_reader_printed(capsys, monkeypatch, name, path):
    def runs():
        out = []
        for argv in cli_digest.INVALID_VARIANTS:
            code = run_command([path if a == "-" else a for a in argv])
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    with cli_digest._path_cases():
        got = runs()
        monkeypatch.setattr(cli, "_load", text_mode_load_oracle)
        assert got == runs()
    if path in READER_MESSAGES:
        assert all(code == 2 and READER_MESSAGES[path] in err for code, _, err in got)
    if path.endswith("fib") or path.startswith("fib/"):  # the file wins over the builtin
        assert got[0][0] == 0 and '"name": "fib-file"' in got[0][1]


def test_unknown_input_is_usage_error(capsys):
    code, _, err = run(capsys, "fpdim", "no_such_thing.json", "--category")
    assert code == 2


def test_unknown_element_is_usage_error(capsys):
    code, _, err = run(capsys, "fpdim", "fib", "--element", "zz")
    assert code == 2


def test_nontransitive_refusal_and_waiver(capsys, tmp_path):
    doc = {
        "name": "idem",
        "simples": [{"label": "1", "dual": "1"}, {"label": "e", "dual": "e"}],
        "fusion": {"1|1": {"1": 1}, "1|e": {"e": 1}, "e|1": {"e": 1}, "e|e": {"e": 1}},
    }
    path = tmp_path / "idem.json"
    path.write_text(json.dumps(doc))
    # structural gate trips first: this data also fails the duality axiom
    code, _, err = run(capsys, "fpdim", str(path), "--category")
    assert code == 1


def test_output_determinism(capsys):
    outputs = []
    for _ in range(2):
        _, out, _ = run(capsys, "fpdim", "fib", "--element", "x", "--format", "json")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    emits = []
    for _ in range(2):
        _, out, _ = run(capsys, "catalog", "emit", "rep_r_q8")
        emits.append(out)
    assert emits[0] == emits[1]


def test_precision_changes_only_intervals(capsys):
    _, low, _ = run_json(capsys, "fpdim", "fib", "--element", "x", "--precision", "32")
    _, high, _ = run_json(capsys, "fpdim", "fib", "--element", "x", "--precision", "96")
    assert low["min_poly"] == high["min_poly"]
    assert low["value"] == high["value"]
    assert low["interval"] != high["interval"]
    _, a, _ = run_json(capsys, "fpdim", "rep_f2_z3", "--category", "--precision", "32")
    _, b, _ = run_json(capsys, "fpdim", "rep_f2_z3", "--category", "--precision", "96")
    assert a == b  # exact rationals are untouched by precision


def _without_intervals(doc):
    """doc with every "interval" and "approx" entry dropped, at any depth."""
    if isinstance(doc, dict):
        return {k: _without_intervals(v) for k, v in doc.items() if k not in ("interval", "approx")}
    if isinstance(doc, list):
        return [_without_intervals(v) for v in doc]
    return doc


def _irrational_payloads(doc):
    """Every value payload in doc printed with "value": null, at any depth."""
    if isinstance(doc, dict):
        if "value" in doc and doc["value"] is None:
            yield doc
        else:
            for v in doc.values():
                yield from _irrational_payloads(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from _irrational_payloads(v)


def _assert_certified_at(payload, bits):
    """The printed interval is at most 2^-bits wide, and the printed min poly
    changes sign across it."""
    lo, hi = (Fraction(v) for v in payload["interval"])
    assert 0 < hi - lo <= Fraction(1, 2 ** int(bits)), (payload, bits)
    coeffs = [Fraction(c) for c in payload["min_poly"]]

    def value(x):
        return sum(c * x**k for k, c in enumerate(coeffs))

    assert value(lo) * value(hi) < 0, (payload, bits)


def test_precision_moves_only_intervals(capsys, tmp_path):
    # every exact decision is taken at the width certification needs, so a
    # coarse --precision changes no exit code and no value but the intervals,
    # and every irrational value prints an interval certified at the
    # precision; FPdim(C) = 35/24 of z3_eps138 prints as the rational it is
    fib, gal7 = fr.get_builtin("fib").data, fr.get_builtin("gal7")
    z3 = fr.get_builtin("vec_z3").data
    generated = {
        "su2_3": (su2(3), None),
        "ty_z5": (tambara_yamagami(5), None),
        "fib2": (tensor_product(fib, fib), None),
        "gal7xfib": galois_product(gal7, fib),
        "z3_eps138": (
            fr.FusionData(
                z3.labels,
                dual=z3.dual,
                eps=(1, 3, 8),
                endo_degree=z3.endo_degree,
                unit=z3.unit,
                products=z3.products,
            ),
            None,
        ),
    }
    inputs = [(name, fr.get_builtin(name).annotation) for name in fr.list_builtins()]
    for name, (data, annotation) in generated.items():
        path = tmp_path / f"{name}.json"
        path.write_text(fr.emit_fusion_file(data, name=name, annotation=annotation))
        inputs.append((str(path), annotation))
    centers = irrational_predictions = 0
    for arg, annotation in inputs:
        variants = [["fpdim"], ["fpdim", "--category"], ["regular"], ["integrality"]]
        if annotation is not None:
            variants.append(["center"])
            centers += 1
        for variant in variants:
            code, doc, _ = run_json(capsys, *variant, arg, "--precision", "64")
            for payload in _irrational_payloads(doc):
                _assert_certified_at(payload, "64")
            if variant == ["center"]:
                irrational_predictions += isinstance(doc["predicted"], dict)
            for bits in ("0", "3", "8"):
                got_code, got, _ = run_json(capsys, *variant, arg, "--precision", bits)
                assert got_code == code, (variant, arg, bits)
                assert _without_intervals(got) == _without_intervals(doc), (variant, arg, bits)
                for payload in _irrational_payloads(got):
                    _assert_certified_at(payload, bits)
    assert centers == 4  # the annotated builtins and gal7xfib
    assert irrational_predictions == 1  # gal7xfib


@pytest.mark.parametrize("bits", ["-1", str(MAX_PRECISION_BITS + 1), "many"])
def test_precision_out_of_range_is_usage_error(capsys, bits):
    code, out, err = run(capsys, "fpdim", "fib", "--element", "x", "--precision", bits)
    assert code == 2
    assert out == ""
    assert "--precision" in err and "Traceback" not in err


def test_precision_zero_is_accepted(capsys):
    code, doc, _ = run_json(capsys, "fpdim", "fib", "--element", "x", "--precision", "0")
    assert code == 0
    assert doc["min_poly"] == [-1, -1, 1]
    lo, hi = (Fraction(v) for v in doc["interval"])
    assert 0 < hi - lo <= 1


def test_text_format_renders(capsys):
    code, out, _ = run(capsys, "fpdim", "rep_f2_z3", "--category")
    assert code == 0
    assert "value: 3" in out


def test_fpdim_refuses_multifusion(capsys):
    code, _, err = run(capsys, "fpdim", "m2_vec", "--category")
    assert code == 1
    assert "unit" in err or "fusion" in err


@pytest.mark.parametrize("bad", [True, 1.0], ids=["bool", "float"])
@pytest.mark.parametrize("command", ["validate", "center"])
def test_group_table_entries_must_be_ints(capsys, tmp_path, command, bad):
    doc = json.loads(fr.emit_entry(fr.get_builtin("gal7")))
    assert doc["group"]["table"][0][1] == 1
    doc["group"]["table"][0][1] = bad
    path = tmp_path / "gal7.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, command, str(path)) == (
        2,
        "",
        'error: "group.table" must be an array of arrays of element indices\n',
    )


# ---------------------------------------------------------------------------
# run_command freezes the heap it finds for the length of the command


def _gc_state():
    return gc.isenabled(), gc.get_freeze_count()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["validate", "fib"], 0),
        (["morita", "fib", "vec_z2"], 1),
        (["validate", "no_such_file.json"], 2),
        (["validate", "fib", "--bogus"], 2),
        (["--version"], 0),
    ],
    ids=["pass", "fail", "schema-error", "usage-error", "version"],
)
def test_run_command_leaves_gc_state_as_found(capsys, argv, code):
    before = _gc_state()
    assert before == (True, 0)
    assert run(capsys, *argv)[0] == code
    assert _gc_state() == before


def test_run_command_freezes_only_during_the_command(capsys, monkeypatch):
    seen = []
    handler = cli.COMMANDS["validate"].handler

    def spy(args):
        seen.append(_gc_state())
        return handler(args)

    monkeypatch.setitem(cli.COMMANDS, "validate", Command(spy, "", (cli._FILE,)))
    assert run(capsys, "validate", "fib")[0] == 0
    assert seen[0][0] is True and seen[0][1] > 0
    assert _gc_state() == (True, 0)


def test_run_command_restores_gc_state_when_a_handler_raises(monkeypatch):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.COMMANDS, "validate", Command(boom, "", (cli._FILE,)))
    before = _gc_state()
    with pytest.raises(RuntimeError, match="boom"):
        run_command(["validate", "fib"])
    assert _gc_state() == before


def test_run_command_keeps_a_callers_freeze(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(gc, "unfreeze", lambda: calls.append("unfreeze"))
    monkeypatch.setattr(gc, "get_freeze_count", lambda: 17)
    assert run(capsys, "validate", "fib")[0] == 0
    assert calls == []
    monkeypatch.undo()
    gc.freeze()
    try:
        assert gc.get_freeze_count() > 0
        assert run(capsys, "validate", "fib")[0] == 0
        assert gc.get_freeze_count() > 0 and gc.isenabled()
    finally:
        gc.unfreeze()
    assert _gc_state() == (True, 0)


class _Node:
    pass


def test_cycles_made_during_a_command_are_collected(capsys, monkeypatch):
    refs = {}

    def make_cycles(args):
        for name in ("inside", "after"):
            node = _Node()
            node.self = node
            refs[name] = weakref.ref(node)
            del node
            if name == "inside":
                gc.collect()
                refs["dead inside"] = refs["inside"]() is None
        return {}, 0

    monkeypatch.setitem(cli.COMMANDS, "validate", Command(make_cycles, "", (cli._FILE,)))
    assert run(capsys, "validate", "fib")[0] == 0
    assert refs["dead inside"]
    gc.collect()
    assert refs["after"]() is None


def test_library_calls_leave_the_collector_alone(monkeypatch):
    def refuse():
        raise AssertionError("the library touched the collector")

    for name in ("freeze", "unfreeze", "disable", "collect"):
        monkeypatch.setattr(gc, name, refuse)
    entry = fr.parse_fusion_file(fr.emit_entry(fr.get_builtin("rep_f2_z3")))
    assert fr.fpdim_category(entry.data).value == 3
    assert fr.check_structural(entry.data).passed


@pytest.mark.parametrize("bits", [0, 64])
def test_value_payload_prints_a_rational_root_as_its_point(bits):
    # an isolated interval whose defining polynomial is linear prints the
    # point, as an exact rational would
    value = fr.AlgebraicNumber(RationalPolynomial((-5, 1)), 4, 6)
    payload = cli._value_payload(value, Fraction(1, 2**bits))
    assert payload == {"value": "5", "approx": "5", "min_poly": [-5, 1], "interval": ["5", "5"]}
    assert payload == cli._value_payload(Fraction(5), Fraction(1, 2**bits))
