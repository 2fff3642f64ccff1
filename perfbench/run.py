"""fusionring benchmark.  Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-irrational --seed 1 --seconds 40 --trace 0

Workloads are defined in workloads.py.  A run is a closed loop with one
client: one job at a time, no threads.  Each CLI job runs in a fresh process
forked from an interpreter that has only imported fusionring (child.py); the
session workload runs all its calls in one such process, which keeps
fusionring's caches.  Passes over the fixed job list repeat while
another pass fits in --seconds; a job's time is its mean over passes.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(spans.py), running each job untraced and traced and requiring identical
outputs.  Every output is checked by gate.py; the last stdout line is the
JSON result.  There is no wait-time metric: nothing queues, the program runs
on one thread.

--record writes golden outputs for the workload (one pass) instead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import corpus
import gate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
RUN_LIMIT_S = 170  # every run ends well inside the 180 s a run may take
SETUP_SPACING_S = 1.5
SETUP_MIN_SAMPLES = 7

END_TO_END = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
# Per-layer metrics and the end-to-end metric each should move, on which
# workload (None: no target).  <module>.<function>.self_s is span time minus
# child spans.
BOTH = "wall_s on cli-irrational and session-exact"
LAYER_METRICS = (
    ("cli.run_command.self_s", "s", "job_p50_s on cli-pointed"),
    ("cli.run_command.rank_slope", "slope", None),
    ("fileformat.parse_fusion_file.self_s", "s", "job_p50_s on cli-pointed"),
    ("validate.check_structural.self_s", "s", "wall_s on cli-pointed"),
    ("validate.check_structural.rank_slope", "slope", "wall_s on cli-pointed"),
    ("validate.check_eps_consistency.self_s", "s", "wall_s on cli-pointed"),
    ("validate.check_transitivity.self_s", "s", "wall_s on cli-pointed"),
    ("core.multiply.self_s", "s", "wall_s on session-exact"),
    ("core.multiply.calls", "count", "wall_s on session-exact"),
    ("fpengine.left_mult_matrix.self_s", "s", BOTH),
    ("fpengine.left_mult_matrix_from_coeffs.self_s", "s", BOTH),
    ("fpengine.char_poly.self_s", "s", BOTH),
    ("fpengine.char_poly.calls", "count", BOTH),
    ("fpengine.char_poly.rank_slope", "slope", BOTH),
    ("fpengine.isolate_max_real_root.self_s", "s", BOTH),
    ("fpengine.refine.self_s", "s", BOTH),
    ("fpengine.refine.calls", "count", BOTH),
    ("poly.sturm_chain.self_s", "s", "job_p50_s on cli-irrational"),
    ("poly.sturm_chain.calls", "count", "job_p50_s on cli-irrational"),
    ("poly.sturm_chain.distinct_ratio", "ratio", "job_p50_s on cli-irrational"),
    ("poly.count_real_roots.calls", "count", "job_p50_s on cli-irrational"),
    ("poly.RationalPolynomial.squarefree_part.self_s", "s", "job_p50_s on cli-irrational"),
    ("factor.factor_squarefree_rational.self_s", "s", BOTH),
    ("factor.factor_squarefree_rational.calls", "count", BOTH),
    ("factor.rational_roots_between.self_s", "s", "wall_s on cli-irrational"),
    ("fpengine.min_poly.hit_ratio", "ratio", "wall_s on session-exact"),
    ("fpengine._is_transitive.hit_ratio", "ratio", "wall_s on session-exact"),
    ("fpengine.mul_algebraic.self_s", "s", "wall_s on session-exact"),
    ("fpengine.exact_cmp.self_s", "s", "wall_s on session-exact"),
    ("regular.regular_element.self_s", "s", "wall_s on cli-irrational"),
    ("regular.verify_regular_eigenproperty.self_s", "s", "wall_s on cli-irrational"),
    ("regular.fpdim_category.self_s", "s", "wall_s on cli-irrational"),
    ("morphisms.verify_fpdim_transport.self_s", "s", "wall_s on session-exact"),
    ("morphisms.check_adjoint_matrix.self_s", "s", "wall_s on session-exact"),
    ("morphisms.morita_ratio_equal.self_s", "s", "wall_s on session-exact"),
    ("galois.center_fpdim_prediction.self_s", "s", "wall_s on session-exact"),
    ("trace.overhead_ratio", "ratio", None),  # traced over untraced wall_s
)
# the ring family along which rank slopes are fitted, per workload
SLOPE_FAMILY = {"cli-irrational": "su2", "cli-pointed": "cyclic", "session-exact": "gal7_su2"}
SETUP_CODE = (
    "import io, contextlib, sys; sys.path.insert(0, sys.argv[1]); "
    "from fusionring.cli import run_command\n"
    "with contextlib.redirect_stdout(io.StringIO()): run_command(['catalog', 'list'])"
)


class Deadline:
    def __init__(self, limit: float = RUN_LIMIT_S) -> None:
        self.end = time.perf_counter() + limit

    def left(self) -> float:
        return self.end - time.perf_counter()


class Children:
    """The job server of child.py: one fresh forked process per request.
    Started once per run; its own start and import are not timed."""

    def __init__(self, deadline: Deadline) -> None:
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            # one fixed string-hash seed, so dict and set layouts do not
            # differ from run to run
            env={**os.environ, "PYTHONHASHSEED": "0"},
            start_new_session=True,
        )

    def run(self, mode: str, request: dict) -> tuple[dict | None, str | None]:
        """One job process to completion: (result, None) or (None, error)."""
        deadline = self.deadline
        if self.proc.poll() is not None or deadline.left() <= 1:
            return None, "run time limit reached"
        self.proc.stdin.write(json.dumps({"mode": mode, **request}) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], deadline.left())
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.close()
            return None, "job timed out" if not ready else "job server ended"
        result = json.loads(line)
        if "failed" in result:
            return None, result["failed"]
        return result, None

    def close(self) -> None:
        """Stop the server and every job process it started; wait for them."""
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SetupTimer:
    """setup_s: wall time of a fresh interpreter that imports fusionring and
    runs `catalog list`.  The machine's speed drifts over seconds, so samples
    are spread over the run (at most one per SETUP_SPACING_S, taken between
    jobs) and the median is reported.  The first start, which may write
    bytecode, is not counted."""

    def __init__(self, deadline: Deadline) -> None:
        self.deadline = deadline
        self.samples: list[float] = []
        self.last = 0.0
        self._start_interpreter()

    def _start_interpreter(self) -> float:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, str(SRC)], stdout=subprocess.PIPE, cwd=ROOT
        )
        # wait for the end of its output rather than with a timeout: waiting
        # with a timeout polls with sleeps of up to 50 ms, which would show
        # in the measured time
        with proc:
            ready, _, _ = select.select([proc.stdout], [], [], max(self.deadline.left(), 1))
            if not ready:
                proc.kill()
                raise TimeoutError("setup interpreter did not finish")
            proc.stdout.read()
        if proc.returncode != 0:
            raise RuntimeError(f"setup interpreter exited {proc.returncode}")
        self.last = time.perf_counter()
        return self.last - start

    def between_jobs(self) -> None:
        if time.perf_counter() - self.last >= SETUP_SPACING_S:
            self.samples.append(self._start_interpreter())

    def median(self) -> float:
        while len(self.samples) < SETUP_MIN_SAMPLES:
            self.samples.append(self._start_interpreter())
        return statistics.median(self.samples)


# ---------------------------------------------------------------------------
# one workload instance for one seed


class Instance:
    """The workload's jobs with the seed applied: rings relabelled, CLI
    corpus files written, CLI job order shuffled.  The session keeps its
    fixed call order, because that order decides what its caches hold."""

    def __init__(self, workload: workloads.Workload, seed: int) -> None:
        self.workload = workload
        rng = random.Random(seed)
        self.rings, self.names = {}, {}
        for key, ring in self.workload.rings.items():
            self.rings[key], self.names[key] = corpus.relabelled(ring, rng)
        self.jobs = list(self.workload.jobs)
        self.cli = all(job.kind == "cli" for job in self.jobs)
        if self.cli:
            rng.shuffle(self.jobs)
            corpus_dir = OUT / f"corpus-{workload.name}-s{seed}"
            corpus_dir.mkdir(parents=True, exist_ok=True)
            self.files = {}
            for key, ring in self.rings.items():
                path = corpus_dir / f"{key}.json"
                path.write_text(corpus.fusion_file(ring), encoding="utf-8")
                self.files[key] = str(path.relative_to(ROOT))
        else:
            self.session_request = {
                "rings": {key: asdict(ring) for key, ring in self.rings.items()},
                "jobs": [self._session_spec(job) for job in self.jobs],
            }

    def _session_spec(self, job) -> dict:
        spec = dict(job.spec)
        if "images" in spec:
            src, tgt = spec.pop("source"), spec.pop("target")
            to_new_s = {v: k for k, v in self.names[src].items()}
            to_new_t = {v: k for k, v in self.names[tgt].items()}
            images = {
                to_new_s[s]: {to_new_t[t]: m for t, m in image.items()}
                for s, image in spec.pop("images").items()
            }
            spec.update(
                source=src,
                target=tgt,
                matrix=workloads.morphism_matrix(self.rings[src], self.rings[tgt], images),
            )
        return spec

    def names_for(self, job) -> dict[str, str]:
        """New label -> original label for the job's output.  Only one-ring
        jobs print labels; Morita and morphism results carry none."""
        ring = job.spec.get("ring")
        return self.names[ring] if ring else {}

    def argv(self, job) -> list[str]:
        spec = job.spec
        target = self.files[spec["ring"]] if spec.get("ring") else spec["builtin"]
        return [spec["cmd"], target, "--format", "json"]


# ---------------------------------------------------------------------------
# passes: each returns {job id: record}


def _cli_output(result: dict) -> tuple[int | None, object, str | None]:
    if result.get("error"):
        return None, None, result["error"]
    try:
        return result["code"], json.loads(result["stdout"]), None
    except json.JSONDecodeError:
        return result["code"], None, "stdout is not JSON"


def _cli_record(inst: Instance, job, traced: bool, children: Children) -> dict:
    request = {"argv": inst.argv(job), "job": job.id, "trace": traced}
    result, error = children.run("cli", request)
    if result is None:
        return {"error": error}
    code, output, error = _cli_output(result)
    return {
        "seconds": result["seconds"],
        "code": code,
        "output": output,
        "raw": result["stdout"],
        "error": error,
        "rss_kib": result["rss_kib"],
        "cache": result["cache"],
        "trace": result.get("trace"),
    }


def cli_pass(
    inst: Instance, modes: tuple[bool, ...], children: Children, between_jobs=lambda: None
) -> list[dict]:
    """One pass per mode (traced or not).  With both modes, each job runs
    untraced and traced back to back, so both see the same machine state."""
    passes: list[dict] = [{} for _ in modes]
    for job in inst.jobs:
        between_jobs()
        for records, traced in zip(passes, modes):
            records[job.id] = _cli_record(inst, job, traced, children)
    return passes


def _session_records(inst: Instance, traced: bool, children: Children) -> dict:
    result, error = children.run("session", {**inst.session_request, "trace": traced})
    if result is None:
        return {job.id: {"error": error} for job in inst.jobs}
    records = {}
    for entry in result["jobs"]:
        records[entry["id"]] = {
            "seconds": entry["seconds"],
            "code": None,
            "output": entry["output"],
            "raw": json.dumps(entry["output"], sort_keys=True),
            "error": entry["error"],
            "rss_kib": result["rss_kib"],
        }
    # session-wide counters belong to the pass, kept on its first job
    first = records[inst.jobs[0].id]
    first["cache"] = result["cache"]
    first["trace"] = result.get("trace")
    return records


def session_pass(
    inst: Instance, modes: tuple[bool, ...], children: Children, between_jobs=lambda: None
) -> list[dict]:
    """One session per mode (traced or not), one after the other."""
    between_jobs()
    return [_session_records(inst, traced, children) for traced in modes]


def gate_pass(inst: Instance, records: dict, golden: dict) -> int:
    """Check every job of one pass; store problems; return the failures."""
    failed = 0
    for job in inst.jobs:
        rec = records[job.id]
        if rec.get("error"):
            rec["problems"] = [rec["error"]]
        else:
            rec["output"] = gate.unlabel(rec["output"], inst.names_for(job))
            rec["problems"] = gate.check(job, rec["code"], rec["output"], golden.get(job.id))
        failed += bool(rec["problems"])
    return failed


def compare_traced(inst: Instance, plain: dict, traced: dict) -> int:
    """Flag every job whose traced stdout (or canonical session output) and
    exit code are not byte-identical to the untraced run; return the count."""
    mismatched = 0
    for job in inst.jobs:
        a, b = plain[job.id], traced[job.id]
        if "raw" in a and "raw" in b and (a["raw"], a["code"]) != (b["raw"], b["code"]):
            b.setdefault("problems", []).append("traced output differs from the untraced output")
            mismatched += 1
    return mismatched


# ---------------------------------------------------------------------------
# metrics


def tail(values: list[float]) -> tuple[float, float]:
    """The value at the highest percentile with at least ten values beyond
    it (the maximum when there are ten or fewer), and that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(value) against log(rank)."""
    pts = [(math.log(r), math.log(v)) for r, v in points if r > 0 and v > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def job_times(inst: Instance, passes: list[dict]) -> dict[str, float]:
    """Each job's time: its mean over passes."""
    return {
        job.id: statistics.fmean(p[job.id]["seconds"] for p in passes)
        for job in inst.jobs
        if all("seconds" in p[job.id] for p in passes)
    }


def end_to_end(inst: Instance, passes: list[dict], setup_s: float) -> tuple[dict, dict]:
    times = list(job_times(inst, passes).values())
    tail_s, pct = tail(times)
    rss = max(rec["rss_kib"] for p in passes for rec in p.values() if "rss_kib" in rec)
    values = (sum(times), statistics.median(times), tail_s, setup_s, rss / 1024)
    metrics = {name: (value, unit) for (name, unit), value in zip(END_TO_END.items(), values)}
    notes = {"jobs": len(times), "passes": len(passes), "job_tail_percentile": pct}
    return metrics, notes


def ring_spans(inst: Instance, records: dict) -> dict[str, dict[str, float]]:
    """Seconds per span per ring over one traced pass: self time, except the
    job time (total time) for cli.run_command.  Rank slopes fit these."""
    ring_of = {job.id: job.spec.get("ring") for job in inst.jobs}
    by_ring: dict[str, dict[str, float]] = {}
    for rec in records.values():
        for job_id, summary in (rec.get("trace") or {}).get("summary", {}).items():
            ring = ring_of.get(job_id)
            if ring is None:
                continue
            r = by_ring.setdefault(ring, {})
            for span, agg in summary.items():
                key = "total_s" if span == "cli.run_command" else "self_s"
                r[span] = r.get(span, 0.0) + agg[key]
    return by_ring


def per_layer(inst: Instance, traced: list[dict], plain: list[dict]) -> dict:
    """Per-layer metrics from the traced passes (median over passes)."""

    def one_pass(records: dict) -> dict[str, float]:
        totals: dict[str, dict[str, float]] = {}
        by_ring = ring_spans(inst, records)
        distinct: dict[str, int] = {}
        cache: dict[str, list[int]] = {}
        for job in inst.jobs:
            rec = records[job.id]
            if rec.get("trace"):
                for counter, n in rec["trace"]["distinct"].items():
                    distinct[counter] = distinct.get(counter, 0) + n
                for summary in rec["trace"]["summary"].values():
                    for span, agg in summary.items():
                        t = totals.setdefault(span, {"calls": 0, "self_s": 0.0})
                        t["calls"] += agg["calls"]
                        t["self_s"] += agg["self_s"]
            for counter, hm in (rec.get("cache") or {}).items():
                c = cache.setdefault(counter, [0, 0])
                c[0] += hm["hits"]
                c[1] += hm["misses"]
        family = SLOPE_FAMILY[inst.workload.name]
        ranks = {
            job.spec["ring"]: job.rank for job in inst.jobs if job.family == family
        }
        out: dict[str, float] = {}
        for metric, _, _ in LAYER_METRICS:
            span, _, kind = metric.rpartition(".")
            t = totals.get(span, {"calls": 0, "self_s": 0.0})
            if kind == "self_s":
                out[metric] = t["self_s"]
            elif kind == "calls":
                out[metric] = t["calls"]
            elif kind == "distinct_ratio":
                out[metric] = distinct.get(span, 0) / t["calls"] if t["calls"] else 0.0
            elif kind == "hit_ratio":
                hits, misses = cache.get(span, [0, 0])
                out[metric] = hits / (hits + misses) if hits + misses else 0.0
            elif kind == "rank_slope":
                out[metric] = slope(
                    [(ranks[ring], by_ring.get(ring, {}).get(span, 0.0)) for ring in ranks]
                )
        return out

    results = [one_pass(p) for p in traced]
    metrics = {m: statistics.median(r[m] for r in results) for m, _, _ in LAYER_METRICS[:-1]}
    traced_wall = sum(job_times(inst, traced).values())
    plain_wall = sum(job_times(inst, plain).values())
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall if plain_wall else 0.0
    return {m: (metrics[m], unit) for m, unit, _ in LAYER_METRICS}


# ---------------------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true", help="record golden outputs (one pass)")
    return p.parse_args(argv)


def check_checkout() -> None:
    if not (SRC / "fusionring" / "__init__.py").is_file():
        sys.exit(f"error: no fusionring sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import fusionring

    if Path(fusionring.__file__).resolve().parent != (SRC / "fusionring").resolve():
        sys.exit(f"error: fusionring was imported from {fusionring.__file__}, not {SRC}")


def record(inst: Instance, name: str) -> None:
    with Children(Deadline()) as children:
        [records] = (cli_pass if inst.cli else session_pass)(inst, (False,), children)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    entries = {}
    for job in inst.jobs:
        rec = records[job.id]
        if rec.get("error"):
            sys.exit(f"error: {job.id}: {rec['error']}")
        output = gate.unlabel(rec["output"], inst.names_for(job))
        entry = {"code": rec["code"], "output": output}
        problems = gate.check(job, rec["code"], output, entry)
        if problems:
            sys.exit(f"error: {job.id}: {problems}")
        entries[job.id] = entry
    golden[name] = entries
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(entries)} golden outputs for {name}")


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    check_checkout()
    inst = Instance(workloads.DEFINITIONS[args.workload](), args.seed)
    if args.record:
        record(inst, args.workload)
        return 0
    golden = json.loads(GOLDEN.read_text()).get(args.workload, {})
    deadline = Deadline()
    setup = None if args.trace else SetupTimer(deadline)
    between_jobs = setup.between_jobs if setup else lambda: None
    run_pass = cli_pass if inst.cli else session_pass
    modes = (False, True) if args.trace else (False,)

    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = mismatched = 0
    with Children(deadline) as children:
        stop_at = time.perf_counter() + args.seconds
        while True:
            start = time.perf_counter()
            passes = run_pass(inst, modes, children, between_jobs)
            for records in passes:
                failed += gate_pass(inst, records, golden)
                attempted += len(records)
            if args.trace:
                n = compare_traced(inst, passes[0], passes[1])
                failed += n
                mismatched += n
                traced.append(passes[1])
            plain.append(passes[0])
            took = time.perf_counter() - start
            if time.perf_counter() + took > stop_at or deadline.left() < took + 10:
                break

    complete = all(
        "seconds" in p[job.id] for p in plain + traced for job in inst.jobs
    )
    if args.trace:
        metrics = per_layer(inst, traced, plain) if complete else {}
        notes = {"passes": len(traced), "traced_output_mismatches": mismatched}
    else:
        metrics, notes = end_to_end(inst, plain, setup.median()) if complete else ({}, {})
        notes["setup_samples"] = len(setup.samples)
    if not complete:
        failed = max(failed, 1)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "notes": notes,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "jobs": [
            {
                "id": job.id,
                "seconds": [p[job.id].get("seconds") for p in plain],
                "code": plain[0][job.id].get("code"),
                "output": plain[0][job.id].get("output"),
                "problems": sorted(
                    {x for p in plain + traced for x in p[job.id].get("problems", [])}
                ),
            }
            for job in inst.jobs
        ],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if args.trace:
        spans = [
            {"job": s[4], "id": i, "parent": s[3], "name": s[0], "start": s[1], "end": s[2]}
            for p in traced
            for rec in p.values()
            if rec.get("trace")
            for i, s in enumerate(rec["trace"]["spans"])
        ]
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans) + "\n")

    for job in detail["jobs"]:
        if job["problems"]:
            print(f"FAILED {job['id']}: {'; '.join(job['problems'])}")
    moves = {name: target for name, _, target in LAYER_METRICS}
    for metric, (value, unit) in metrics.items():
        target = moves.get(metric)
        print(f"{metric} = {value:.6g} {unit}" + (f"  -> {target}" if target else ""))
    if not args.trace and complete:
        print(
            f"job_tail_s is the p{notes['job_tail_percentile']:.0f} of {notes['jobs']} jobs; "
            f"job times are means over {notes['passes']} passes; "
            f"setup_s is the median of {notes['setup_samples']} fresh interpreters"
        )
    print(f"failed_ratio = {failed / max(attempted, 1):.6g} ({failed} of {attempted} job runs)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": max(attempted, 1),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
