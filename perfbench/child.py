"""Job processes for the benchmark, started by run.py from the checkout root:

    python3 perfbench/child.py

reads one JSON request per line and forks a fresh process for each:

    {"mode": "cli", ...}      one CLI job: fusionring.cli.run_command(argv)
    {"mode": "session", ...}  one library session: several calls in sequence

fusionring is imported before any request is read, so a job's time excludes
interpreter start and import (run.py measures that cost as setup_s).  With
"trace" set, the tracer of spans.py is installed before the first job and
its spans are returned with the result.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fusionring  # noqa: E402
import fusionring.cli  # noqa: E402
from fusionring.poly import cauchy_root_bound, count_real_roots, sturm_chain  # noqa: E402

import corpus  # noqa: E402
import spans  # noqa: E402


def _rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _trace_report(tracer: spans.Tracer) -> dict:
    return {
        "summary": tracer.summary(),
        "distinct": {name: len(keys) for name, keys in tracer.keys.items()},
        "spans": tracer.spans,
    }


# ---------------------------------------------------------------------------
# CLI job


def run_cli(request: dict) -> dict:
    tracer = spans.Tracer()
    run_command = fusionring.cli.run_command
    if request["trace"]:
        tracer.install()
        tracer.job = request["job"]
        run_command = tracer.wrap("job", fusionring.cli.run_command)
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = run_command(request["argv"])
        except Exception as exc:  # a traceback is a failed job, not a crash of the benchmark
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    result = {
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "error": error,
        "seconds": seconds,
        "rss_kib": _rss_kib(),
        "cache": spans.cache_counts(),
    }
    if request["trace"]:
        tracer.enabled = False
        result["trace"] = _trace_report(tracer)
    return result


# ---------------------------------------------------------------------------
# library session


def canonical_value(v) -> object:
    """Representation-independent form of an exact value: "p/q" for a
    rational, else the minimal polynomial and the number of its real roots
    below the value."""
    v = fusionring.fpengine.normalize_value(v)
    if isinstance(v, Fraction):
        return str(v)
    m = fusionring.min_poly(v)
    below = count_real_roots(sturm_chain(m), -cauchy_root_bound(m), v.lo)
    return {"min_poly": [str(c) for c in m.coeffs], "root": below}


# library stages on one ring, timed alone by report.py
REPORT_STAGES = (
    "check_structural",
    "regular_element",
    "verify_regular_eigenproperty",
    "fpdim_category",
)


def _report(report) -> dict:
    return {"passed": report.passed, "rules": sorted({v.rule for v in report.violations})}


class Session:
    """Builds the rings once, then runs the requested calls in sequence in
    this one process, keeping fusionring's caches between calls."""

    def __init__(self, rings: dict) -> None:
        # JSON lists stand in for the tuples; fusionring's constructors convert them
        self.rings = {key: corpus.Ring(**doc) for key, doc in rings.items()}
        self.data = {key: corpus.to_fusion_data(ring) for key, ring in self.rings.items()}

    def morphism(self, job: dict):
        source, target = self.data[job["source"]][0], self.data[job["target"]][0]
        return fusionring.SemiringMorphism(source, target, tuple(map(tuple, job["matrix"])))

    def call(self, job: dict):
        """The timed library call for one job; returns its raw result."""
        op = job["op"]
        if op == "center":
            data, annotation = self.data[job["ring"]]
            return fusionring.center_fpdim_prediction(data, annotation)
        if op == "morita":
            return fusionring.morita_ratio_equal(self.data[job["a"]][0], self.data[job["b"]][0])
        if op == "transport":
            return fusionring.verify_fpdim_transport(self.morphism(job))
        if op == "adjoint":
            return fusionring.check_adjoint_matrix(self.morphism(job), job["fpdim_d"])
        data = self.data[job["ring"]][0] if "ring" in job else None
        if op == "refine":
            width = Fraction(1, 2 ** job["bits"])
            return [fusionring.refine(fusionring.fpdim_element(x), width) for x in data.simples()]
        if op == "minpoly":
            return [fusionring.min_poly(fusionring.fpdim_element(x)) for x in data.simples()]
        if op == "idempotents":
            return fusionring.search_idempotents_above_unit(data, job["bound"])
        if op in REPORT_STAGES:
            return getattr(fusionring, op)(data)
        if op == "char_poly":
            return fusionring.char_poly(fusionring.left_mult_matrix(data.basis(job["element"])))
        raise ValueError(f"unknown session op {op!r}")

    def canonical(self, job: dict, raw) -> object:
        """Exact, label-keyed form of a raw result (labels as in the ring)."""
        op = job["op"]
        if op == "center":
            return {
                "predicted": canonical_value(raw.predicted),
                "bound_ok": raw.bound_ok,
                "strict": raw.strict,
                "equality": raw.equality,
                "consistent": raw.consistent,
                "center_degree": raw.center_degree,
                "image": {label: 1 for label in raw.image.labels},
            }
        if op == "morita":
            return {
                "ratio_a": canonical_value(raw.ratio_a),
                "ratio_b": canonical_value(raw.ratio_b),
                "equal": raw.equal,
            }
        if op in ("transport", "adjoint"):
            return _report(raw)
        labels = self.rings[job["ring"]].labels
        if op == "refine":
            return {
                label: {
                    "value": canonical_value(v),
                    "width_ok": v.width <= Fraction(1, 2 ** job["bits"]),
                }
                for label, v in zip(labels, raw)
            }
        if op == "minpoly":
            return {label: [str(c) for c in p.coeffs] for label, p in zip(labels, raw)}
        if op == "idempotents":
            return [{labels[i]: c for i, c in enumerate(p.coeffs) if c} for p in raw]
        return None


def run_session(request: dict) -> dict:
    session = Session(request["rings"])
    tracer = spans.Tracer()
    call = session.call
    if request["trace"]:
        tracer.install()
        call = tracer.wrap("job", session.call)
    results = []
    for job in request["jobs"]:
        tracer.job = job["id"]
        start = time.perf_counter()
        try:
            raw, error = call(job), None
        except Exception as exc:  # recorded as a failed job
            raw, error = None, f"{type(exc).__name__}: {exc}"
        results.append((job, raw, error, time.perf_counter() - start))
    tracer.enabled = False
    out = {"rss_kib": _rss_kib(), "cache": spans.cache_counts(), "jobs": []}
    if request["trace"]:
        out["trace"] = _trace_report(tracer)
    tracer.uninstall()
    for job, raw, error, seconds in results:
        output = None if error else session.canonical(job, raw)
        out["jobs"].append(
            {"id": job["id"], "seconds": seconds, "error": error, "output": output}
        )
    return out


def serve() -> None:
    """Fork one fresh child per request line on stdin.  This process only
    imports fusionring and never runs a job, so every job starts from a
    pristine just-imported interpreter: no memo cache survives between jobs.
    Each result (or an error object) is written as one line to stdout."""
    for line in sys.stdin:
        request = json.loads(line)
        handler = run_cli if request["mode"] == "cli" else run_session
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                with os.fdopen(write_fd, "w") as pipe:
                    pipe.write(json.dumps(handler(request)))
                status = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(status)
        os.close(write_fd)
        with os.fdopen(read_fd) as pipe:
            payload = pipe.read()
        _, status = os.waitpid(pid, 0)
        if status != 0 or not payload:
            payload = json.dumps({"failed": f"job process ended with wait status {status}"})
        sys.stdout.write(payload + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
