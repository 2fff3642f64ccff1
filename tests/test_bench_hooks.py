"""The names perfbench/spans.py hooks into still exist in fusionring.

The benchmark's tracer wraps every TRACED function and TRACED_METHODS
method by name, and reads the memo counters of every CACHED function
through `__wrapped__`.  A renamed or removed target would otherwise show
only as a failed job inside the benchmark's child process.  spans.py is
loaded by path and only read; it imports the standard library alone.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import fusionring  # noqa: F401  (imports every module the tracer rebinds in)

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def _module(name: str):
    return importlib.import_module(f"fusionring.{name}")


def test_traced_functions_resolve():
    for mod_name, attr in spans.TRACED:
        assert callable(getattr(_module(mod_name), attr, None)), f"{mod_name}.{attr}"


def test_traced_methods_resolve():
    for mod_name, cls_name, attr in spans.TRACED_METHODS:
        cls = getattr(_module(mod_name), cls_name)
        assert callable(cls.__dict__.get(attr)), f"{mod_name}.{cls_name}.{attr}"


def test_cached_functions_report_through_the_installed_tracer():
    originals = {(m, a): getattr(_module(m), a) for m, a in spans.CACHED}
    tracer = spans.Tracer()
    try:
        tracer.install()
        for (mod_name, attr), original in originals.items():
            assert getattr(_module(mod_name), attr).__wrapped__ is original, attr
        counts = spans.cache_counts()
    finally:
        tracer.uninstall()
    assert set(counts) == {f"{m}.{a}" for m, a in spans.CACHED}
    for (mod_name, attr), original in originals.items():
        assert getattr(_module(mod_name), attr) is original, attr
