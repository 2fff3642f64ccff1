"""Baseline and scaling report (not part of the timed benchmark runs).

    python3 perfbench/report.py

1. The ROADMAP Baseline table: single library stages on fixed rings, CLI
   subcommands end to end on SU(2)_16, and the CLI startup floor.  Each row
   is the median of REPEATS fresh job processes, so no cache survives; the
   startup floor is measured like setup_s.
2. Per-stage log-log rank slopes: one traced pass of fpdim / regular /
   integrality along SU(2)_k (k = 4..16) and of validate / integrality along
   Z/n (n = 8..32, even), fitting log(self time of the stage per ring)
   against log(rank).

Writes perfbench/out/report.json and prints both tables as Markdown.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import asdict

import corpus
import run
import workloads

STAGES = (
    "fileformat.parse_fusion_file",
    "validate.check_structural",
    "validate.check_eps_consistency",
    "validate.check_transitivity",
    "fpengine.left_mult_matrix_from_coeffs",
    "fpengine.char_poly",
    "poly.RationalPolynomial.squarefree_part",
    "poly.sturm_chain",
    "poly.count_real_roots",
    "fpengine.isolate_max_real_root",
    "fpengine.refine",
    "factor.factor_squarefree_rational",
    "factor.rational_roots_between",
    "regular.verify_regular_eigenproperty",
    "cli.run_command",
)
REPEATS = 3  # fresh job processes per baseline row


def library_row(children, label: str, ring, op: str, **extra) -> dict:
    request = {
        "rings": {ring.name: asdict(ring)},
        "jobs": [{"id": label, "op": op, "ring": ring.name, **extra}],
        "trace": False,
    }
    times = []
    for _ in range(REPEATS):
        result, error = children.run("session", request)
        if error or result["jobs"][0]["error"]:
            raise SystemExit(f"{label}: {error or result['jobs'][0]['error']}")
        times.append(result["jobs"][0]["seconds"])
    return {"row": label, "rank": ring.rank, "seconds": statistics.median(times)}


def cli_row(children, label: str, ring, cmd: str) -> dict:
    path = run.OUT / "report" / f"{ring.name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(corpus.fusion_file(ring))
    request = {"argv": [cmd, str(path), "--format", "json"], "job": label, "trace": False}
    times = []
    for _ in range(REPEATS):
        result, error = children.run("cli", request)
        if error or result["code"] != 0:
            raise SystemExit(f"{label}: {error or result['stderr']}")
        times.append(result["seconds"])
    return {"row": label, "rank": ring.rank, "seconds": statistics.median(times)}


def startup_row() -> dict:
    seconds = run.SetupTimer(run.Deadline()).median()
    return {"row": "CLI startup floor (catalog list)", "rank": 0, "seconds": seconds}


def baseline(children) -> list[dict]:
    z16, z24, su16 = corpus.cyclic(16), corpus.cyclic(24), corpus.su2(16)
    stages = ("check_structural", "regular_element", "verify_regular_eigenproperty")
    return [
        *(library_row(children, op, z16, op) for op in stages),
        library_row(children, "fpdim_category", z24, "fpdim_category"),
        library_row(children, "char_poly (left multiplication by j1)", su16, "char_poly",
                    element="j1"),
        cli_row(children, "CLI regular", su16, "regular"),
        cli_row(children, "CLI fpdim (all simples)", su16, "fpdim"),
        startup_row(),
    ]


def scaling(children) -> dict[str, dict[str, float]]:
    w = workloads.Workload("scaling")
    for k in range(4, 17):
        w.cli(workloads.IRRATIONAL_CMDS, w.add(corpus.su2(k), family="su2"))
    for n in range(8, 33, 2):
        w.cli(workloads.POINTED_CMDS, w.add(corpus.cyclic(n), family="cyclic"))
    inst = run.Instance(w, seed=0)
    [records] = run.cli_pass(inst, (True,), children)
    for job in inst.jobs:
        rec = records[job.id]
        if rec.get("error") or rec["code"] != 0:
            raise SystemExit(f"{job.id}: {rec.get('error') or rec['code']}")
    per_ring = run.ring_spans(inst, records)
    ranks = {job.spec["ring"]: (job.family, job.rank) for job in inst.jobs}
    out: dict[str, dict[str, float]] = {}
    for family in ("su2", "cyclic"):
        rings = [r for r, (f, _) in ranks.items() if f == family]
        out[family] = {
            stage: run.slope([(ranks[r][1], per_ring[r].get(stage, 0.0)) for r in rings])
            for stage in STAGES
        }
    return out


def main() -> None:
    run.check_checkout()
    with run.Children(run.Deadline(limit=3600)) as children:
        rows = baseline(children)
        slopes = scaling(children)
    run.OUT.mkdir(exist_ok=True)
    report = {"baseline": rows, "slopes": slopes}
    (run.OUT / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    print("| workload | rank | time |\n|---|---|---|")
    for row in rows:
        print(f"| {row['row']} | {row['rank'] or '-'} | {row['seconds'] * 1000:.0f} ms |")
    print("\n| stage | slope along SU(2)_k, k=4..16 | slope along Z/n, n=8..32 |\n|---|---|---|")
    for stage in STAGES:
        print(f"| {stage} | {slopes['su2'][stage]:.2f} | {slopes['cyclic'][stage]:.2f} |")


if __name__ == "__main__":
    main()
