"""Paired benchmark runs of a parent checkout against this one.

Runs perfbench/run.py, unchanged, in two checkouts in alternating order, one
pair per seed, and writes a BENCH_<name>.json with, per workload and metric,
each side's median and quartiles, how often the change won, lost or tied,
and two verdicts:

- gain_shown: the change won at least nine tenths of the pairs and the
  medians differ, in the change's favour, by more than the distance between
  the parent's quartiles;
- within_bound: the change's median is worse than the parent's by no more
  than the metric's bound in BENCHMARK.json (end-to-end metrics only), or
  "unresolved" when the parent's runs spread too widely to tell: their
  quartile distance q3 - q1 exceeds the bound times their median, and some
  change run does not read better than every parent run.

After writing the file it prints one line per workload and metric: the
parent's median, the change's median, their ratio, wins/losses, and the two
verdicts ("-" where a verdict does not apply).

Python standard library only.  Run from the root of a checkout whose
sibling directory holds the parent under a name of the same length, say
work/ and base/:

    python3 tools/bench_pairs.py --parent ../base --pairs 10 --seconds 40 \\
        --seed 11 --out BENCH_11.json

Pair i uses seed --seed + i on both sides; even pairs run the parent first,
odd pairs the change first.  The two checkouts must hold byte-identical
perfbench/ directories and BENCHMARK.json, so that both sides run the same
benchmark, must agree on whether src/ holds .pyc files (a side with
bytecode loads it where the other compiles the source, which moves setup_s
and peak_rss_mib), and must have resolved paths of equal length, because
peak_rss_mib moves with the length of the checkout's path.  Both the
bytecode state and the two paths are recorded in the settings.  Every run's
own result file stays under its checkout's perfbench/out/.  --trace 1
collects the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def benchmark_files(checkout: Path) -> dict[str, bytes]:
    """Relative path -> bytes of every tracked benchmark file; perfbench/out
    holds run results and is left out."""
    files = {"BENCHMARK.json": (checkout / "BENCHMARK.json").read_bytes()}
    for path in sorted((checkout / "perfbench").rglob("*")):
        rel = path.relative_to(checkout)
        if path.is_file() and rel.parts[1] not in ("out", "__pycache__"):
            files[str(rel)] = path.read_bytes()
    return files


def has_bytecode(checkout: Path) -> bool:
    """Whether any .pyc file lies under the checkout's src/."""
    return any((checkout / "src").rglob("*.pyc"))


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON result of one perfbench/run.py run: its last stdout line."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(argv)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str],
              bounds: dict[str, float]) -> dict:
    """Per-metric statistics over (parent, change) result pairs."""
    out = {}
    common = set.intersection(*(set(r["metrics"]) for pair in pairs for r in pair))
    for metric in sorted(common):
        parent = [p["metrics"][metric]["value"] for p, _ in pairs]
        change = [c["metrics"][metric]["value"] for _, c in pairs]
        sign = -1 if better.get(metric, "lower") == "lower" else 1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        gain = sign * (cq[1] - pq[1])
        entry = {
            "unit": pairs[0][0]["metrics"][metric]["unit"],
            "better": better.get(metric, "lower"),
            "parent": {"median": pq[1], "q1": pq[0], "q3": pq[2], "runs": parent},
            "change": {"median": cq[1], "q1": cq[0], "q3": cq[2], "runs": change},
            "wins": wins,
            "losses": losses,
            "ties": len(pairs) - wins - losses,
            "median_ratio": cq[1] / pq[1] if pq[1] else None,
            "gain_shown": wins >= 0.9 * len(pairs) and gain > pq[2] - pq[0],
        }
        if metric in bounds:
            allowed = bounds[metric] * abs(pq[1])
            separated = all(sign * (c - p) > 0 for c in change for p in parent)
            if pq[2] - pq[0] > allowed and not separated:
                entry["within_bound"] = "unresolved"
            else:
                entry["within_bound"] = -gain <= allowed
        out[metric] = entry
    return out


def summary_line(workload: str, metric: str, entry: dict) -> str:
    ratio = entry["median_ratio"]
    return (
        f"{workload} {metric}: {entry['parent']['median']:.6g} -> "
        f"{entry['change']['median']:.6g} {entry['unit']}, "
        f"ratio {'-' if ratio is None else f'{ratio:.3f}'}, "
        f"wins/losses {entry['wins']}/{entry['losses']}, "
        f"gain_shown {entry['gain_shown']}, within_bound {entry.get('within_bound', '-')}"
    )


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    p.add_argument("--workload", action="append", help="workload (repeat); default: all")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--seed", type=int, default=11, help="seed of the first pair")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    parent, change = args.parent.resolve(), ROOT
    if benchmark_files(parent) != benchmark_files(change):
        raise SystemExit("error: the two checkouts run different benchmarks")
    bytecode = {"parent": has_bytecode(parent), "change": has_bytecode(change)}
    if bytecode["parent"] != bytecode["change"]:
        with_pyc = "parent" if bytecode["parent"] else "change"
        raise SystemExit(
            f"error: only the {with_pyc} checkout has .pyc files under src/; "
            "remove them there or compile both"
        )
    checkouts = {"parent": str(parent), "change": str(change)}
    if len(checkouts["parent"]) != len(checkouts["change"]):
        raise SystemExit(
            f"error: the checkout paths {checkouts['parent']} and {checkouts['change']} "
            "differ in length; use sibling directories whose names have equal length"
        )
    spec = json.loads((change / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "settings": {
            "pairs": args.pairs, "seconds": args.seconds, "trace": args.trace,
            "seeds": [args.seed + i for i in range(args.pairs)],
            "order": "parent first in even pairs, change first in odd pairs",
            "bytecode_under_src": bytecode,
            "checkouts": checkouts,
        },
        "workloads": {},
    }
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            sides = [(parent, "parent"), (change, "change")]
            results = {}
            for checkout, side in sides if i % 2 == 0 else sides[::-1]:
                results[side] = run_once(checkout, workload, seed, args.seconds, args.trace)
                print(f"{workload} seed {seed} {side}: correct={results[side]['correct']}",
                      file=sys.stderr, flush=True)
            pairs.append((results["parent"], results["change"]))
        report["workloads"][workload] = {
            "correct": all(p["correct"] and c["correct"] for p, c in pairs),
            "failed": {
                "parent": sum(p["failed"] for p, _ in pairs),
                "change": sum(c["failed"] for _, c in pairs),
            },
            "metrics": summarize(pairs, better, bounds),
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in report["workloads"].items():
        for metric, stats in entry["metrics"].items():
            print(summary_line(workload, metric, stats))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
