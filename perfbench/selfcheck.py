"""Self-checks of the benchmark's correctness gate.

    python3 perfbench/selfcheck.py

For every workload, one untraced and one traced pass are run through the
same code the benchmark uses (run.gate_pass, run.compare_traced), then:

    - the real goldens and oracles pass, and traced and untraced outputs are
      byte-identical;
    - corrupting one golden value makes a job fail;
    - corrupting one closed-form oracle makes a job fail;
    - corrupting one traced output is caught as a traced/untraced mismatch;

and BENCHMARK.json names exactly the workloads and metrics run.py reports.

Exits 1 and names the check on the first failure.
"""

from __future__ import annotations

import copy
import json
import sys

import run
import workloads


def failures(inst, records, golden) -> int:
    return run.gate_pass(inst, copy.deepcopy(records), golden)


def check(workload: str) -> None:
    inst = run.Instance(workloads.DEFINITIONS[workload](), seed=7)
    golden = json.loads(run.GOLDEN.read_text())[workload]
    run_pass = run.cli_pass if inst.cli else run.session_pass
    with run.Children(run.Deadline()) as children:
        plain, traced = run_pass(inst, (False, True), children)

    expect(workload, "goldens and oracles pass", failures(inst, plain, golden) == 0)
    expect(workload, "traced outputs pass", failures(inst, traced, golden) == 0)
    expect(workload, "traced output is identical", run.compare_traced(inst, plain, traced) == 0)

    job = inst.jobs[0]
    corrupted = copy.deepcopy(golden)
    corrupted[job.id]["output"] = {"corrupted": True}
    expect(workload, "a corrupted golden fails", failures(inst, plain, corrupted) > 0)

    # an integrality job (category dimension) or a center prediction, whose
    # closed form depends on the ring parameter bumped here
    with_oracle = next(
        j for j in inst.jobs
        if j.oracle and (j.spec.get("cmd") == "integrality" or "q5_power" in j.oracle)
    )
    saved = with_oracle.oracle
    key = next(k for k in ("order", "n", "k", "q5_power") if k in saved)
    with_oracle.oracle = {**saved, key: saved[key] + 1}
    try:
        expect(workload, f"a corrupted oracle ({with_oracle.id}, {key}) fails",
               failures(inst, plain, golden) > 0)
    finally:
        with_oracle.oracle = saved

    bad = copy.deepcopy(traced)
    bad[job.id]["raw"] += " "
    caught = run.compare_traced(inst, plain, bad) == 1
    expect(workload, "a changed traced output is caught", caught)


def expect(workload: str, what: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {workload}: {what}")
    if not ok:
        sys.exit(1)


def check_definition() -> None:
    """BENCHMARK.json names exactly the workloads and metrics run.py reports."""
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in doc["workloads"]]
    expect("BENCHMARK.json", "workloads", names == list(workloads.WORKLOADS))
    names = [(m["name"], m["unit"]) for m in doc["end_to_end"]]
    expect("BENCHMARK.json", "end-to-end metrics", names == list(run.END_TO_END.items()))
    names = [(m["name"], m["unit"]) for m in doc["per_layer"]]
    expected = [(n, u) for n, u, _ in run.LAYER_METRICS]
    expect("BENCHMARK.json", "per-layer metrics", names == expected)


def main() -> None:
    run.check_checkout()
    check_definition()
    for workload in workloads.WORKLOADS:
        check(workload)


if __name__ == "__main__":
    main()
