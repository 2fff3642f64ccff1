"""tools/bench_pairs.py refuses to pair a checkout that has bytecode under
src/ with one that has none, checkouts whose paths differ in length, or a
control whose src/ differs from the parent's; it calls a bound unresolved
when the parent's runs spread wider than it, and shows no gain that the
A/A control's gap matches."""

from __future__ import annotations

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _checkout(path: Path, bytecode: bool) -> Path:
    path.mkdir(exist_ok=True)
    shutil.copy(ROOT / "BENCHMARK.json", path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    (path / "src" / "pkg").mkdir(parents=True)
    (path / "src" / "pkg" / "mod.py").write_text("")
    if bytecode:
        (path / "src" / "pkg" / "__pycache__").mkdir()
        (path / "src" / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"")
    return path


def test_has_bytecode(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert not bench_pairs.has_bytecode(_checkout(tmp_path / "a", bytecode=False))
    assert bench_pairs.has_bytecode(_checkout(tmp_path / "b", bytecode=True))


def _refused(tmp_path, parent, control, message):
    out = tmp_path / "o.json"
    argv = ["--parent", str(parent), "--control", str(control), "--pairs", "1", "--out", str(out)]
    with pytest.raises(SystemExit, match=message):
        bench_pairs.main(argv)
    assert not out.exists()


def test_refuses_checkouts_that_differ_in_bytecode(tmp_path, monkeypatch):
    # the other side is this checkout, whichever state its src/ is in
    bytecode = not bench_pairs.has_bytecode(ROOT)
    parent = _checkout(tmp_path / "base", bytecode=bytecode)
    control = _checkout(tmp_path / "ctrl", bytecode=bytecode)
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("ran a benchmark"))
    _refused(tmp_path, parent, control, "has .pyc files under src/")


def test_refuses_checkout_paths_of_different_lengths(tmp_path, monkeypatch):
    parent = _checkout(tmp_path / "base", bytecode=False)
    control = _checkout(tmp_path / "ctrl", bytecode=False)
    monkeypatch.setattr(bench_pairs, "ROOT", _checkout(tmp_path / "work2", bytecode=False))
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("ran a benchmark"))
    _refused(tmp_path, parent, control, "differ in length")


def test_refuses_a_control_that_is_not_a_copy_of_the_parent(tmp_path, monkeypatch):
    parent = _checkout(tmp_path / "base", bytecode=False)
    control = _checkout(tmp_path / "ctrl", bytecode=False)
    monkeypatch.setattr(bench_pairs, "ROOT", _checkout(tmp_path / "work", bytecode=False))
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("ran a benchmark"))
    _refused(tmp_path, parent, parent, "three checkouts")
    (control / "src" / "pkg" / "mod.py").write_text("x = 1\n")
    _refused(tmp_path, parent, control, "control's src/ differs")


def test_records_the_bytecode_state(tmp_path, monkeypatch):
    # sibling checkouts whose names have equal length, as the tool requires
    parent = _checkout(tmp_path / "base", bytecode=True)
    control = _checkout(tmp_path / "ctrl", bytecode=True)
    change = _checkout(tmp_path / "work", bytecode=True)
    monkeypatch.setattr(bench_pairs, "ROOT", change)
    result = {"correct": True, "failed": 0, "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: result)
    out = tmp_path / "o.json"
    argv = ["--parent", str(parent), "--control", str(control), "--pairs", "2",
            "--workload", "cli-pointed", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    settings = json.loads(out.read_text())["settings"]
    assert settings["bytecode_under_src"] == {"parent": True, "change": True, "control": True}
    assert settings["checkouts"] == {
        "parent": str(parent.resolve()), "change": str(change), "control": str(control.resolve())
    }


def test_runs_every_side_in_rotation(tmp_path, monkeypatch):
    parent = _checkout(tmp_path / "base", bytecode=False)
    control = _checkout(tmp_path / "ctrl", bytecode=False)
    change = _checkout(tmp_path / "work", bytecode=False)
    monkeypatch.setattr(bench_pairs, "ROOT", change)
    calls = []

    def run_once(checkout, workload, seed, seconds, trace):
        calls.append((checkout.name, seed))
        value = {"base": 1.0, "work": 0.5, "ctrl": 1.01}[checkout.name]
        return {"correct": True, "failed": 0, "metrics": {"wall_s": {"value": value, "unit": "s"}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "o.json"
    argv = ["--parent", str(parent), "--control", str(control), "--pairs", "3", "--seed", "5",
            "--workload", "cli-pointed", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert calls == [("base", 5), ("work", 5), ("ctrl", 5), ("work", 6), ("ctrl", 6),
                     ("base", 6), ("ctrl", 7), ("base", 7), ("work", 7)]
    entry = json.loads(out.read_text())["workloads"]["cli-pointed"]
    assert entry["failed"] == {"parent": 0, "change": 0, "control": 0}
    assert entry["metrics"]["wall_s"]["control"]["runs"] == [1.01] * 3


def _pairs(parent, change, control=None):
    return [
        tuple({"metrics": {"wall_s": {"value": v, "unit": "s"}}} for v in triple)
        for triple in zip(parent, change, parent if control is None else control)
    ]


@pytest.mark.parametrize("parent, change, verdict", [
    # quartile distance 0.4 against an allowed 0.25 * 1.0: too wide to tell
    ([0.6, 0.8, 1.0, 1.2, 1.4], [0.7, 0.9, 1.0, 1.3, 1.5], "unresolved"),
    # quartile distance 1.0 against 0.25 * 2.0, but every change run reads
    # better than every parent run
    ([1.0, 1.5, 2.0, 2.5, 3.0], [0.5, 0.6, 0.7, 0.8, 0.9], True),
    # narrow spread: the bound decides, both ways
    ([0.98, 0.99, 1.0, 1.01, 1.02], [1.08, 1.09, 1.1, 1.11, 1.12], True),
    ([0.98, 0.99, 1.0, 1.01, 1.02], [1.28, 1.29, 1.3, 1.31, 1.32], False),
])
def test_within_bound_is_unresolved_when_the_parent_spreads_wider(parent, change, verdict):
    summary = bench_pairs.summarize(_pairs(parent, change), {"wall_s": "lower"}, {"wall_s": 0.25})
    entry = summary["wall_s"]
    assert entry["within_bound"] == verdict and type(entry["within_bound"]) is type(verdict)
    assert f"within_bound {verdict}" in bench_pairs.summary_line("cli-pointed", "wall_s", entry)


@pytest.mark.parametrize("control, shown", [
    # A/A: the control reads 0.12 below the parent, more than the change
    ([0.86, 0.87, 0.88, 0.89, 0.88, 0.87, 0.88, 0.89, 0.87, 0.88], False),
    # the control matches the parent: the change's gap stands
    ([1.00, 0.99, 1.01, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00], True),
])
def test_gain_shown_needs_a_gap_beyond_the_control(control, shown):
    parent = [1.00, 0.99, 1.01, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    change = [0.89, 0.88, 0.90, 0.89, 0.91, 0.87, 0.89, 0.90, 0.88, 0.89]
    entry = bench_pairs.summarize(_pairs(parent, change, control), {"wall_s": "lower"}, {})["wall_s"]
    assert entry["wins"] == 10 and entry["aa_gap"] == pytest.approx(abs(entry["control"]["median"] - 1.0))
    assert entry["gain_shown"] is shown
