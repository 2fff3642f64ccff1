"""tools/bench_pairs.py refuses to pair a checkout that has bytecode under
src/ with one that has none, or checkouts whose paths differ in length, and
calls a bound unresolved when the parent's runs spread wider than it."""

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


def test_refuses_checkouts_that_differ_in_bytecode(tmp_path, monkeypatch):
    # the other side is this checkout, whichever state its src/ is in
    parent = _checkout(tmp_path, bytecode=not bench_pairs.has_bytecode(ROOT))
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("ran a benchmark"))
    with pytest.raises(SystemExit, match="has .pyc files under src/"):
        bench_pairs.main(["--parent", str(parent), "--pairs", "1", "--out", str(tmp_path / "o.json")])
    assert not (tmp_path / "o.json").exists()


def test_refuses_checkout_paths_of_different_lengths(tmp_path, monkeypatch):
    parent = _checkout(tmp_path / "base", bytecode=False)
    monkeypatch.setattr(bench_pairs, "ROOT", _checkout(tmp_path / "work2", bytecode=False))
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: pytest.fail("ran a benchmark"))
    with pytest.raises(SystemExit, match="differ in length"):
        bench_pairs.main(["--parent", str(parent), "--pairs", "1", "--out", str(tmp_path / "o.json")])
    assert not (tmp_path / "o.json").exists()


def test_records_the_bytecode_state(tmp_path, monkeypatch):
    # sibling checkouts whose names have equal length, as the tool requires
    parent = _checkout(tmp_path / "base", bytecode=True)
    change = _checkout(tmp_path / "work", bytecode=True)
    monkeypatch.setattr(bench_pairs, "ROOT", change)
    result = {"correct": True, "failed": 0, "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: result)
    out = tmp_path / "o.json"
    argv = ["--parent", str(parent), "--pairs", "2", "--workload", "cli-pointed", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    settings = json.loads(out.read_text())["settings"]
    assert settings["bytecode_under_src"] == {"parent": True, "change": True}
    assert settings["checkouts"] == {"parent": str(parent.resolve()), "change": str(change)}


def _pairs(parent, change):
    return [
        ({"metrics": {"wall_s": {"value": p, "unit": "s"}}},
         {"metrics": {"wall_s": {"value": c, "unit": "s"}}})
        for p, c in zip(parent, change)
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
