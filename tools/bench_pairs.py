"""Paired benchmark runs of a parent checkout against this one, with an A/A
control.

Runs perfbench/run.py, unchanged, in three checkouts in rotating order, one
pair per seed: the parent, this change, and a control, a second copy of the
parent.  It writes a BENCH_<name>.json with, per workload and metric, each
side's median, quartiles and runs, how often the change won, lost or tied
against the parent, the A/A gap (the distance between the control's and the
parent's medians, which no code change made), and two verdicts:

- gain_shown: the change won at least nine tenths of the pairs, and the
  medians differ, in the change's favour, by more than the distance between
  the parent's quartiles and by more than the A/A gap;
- within_bound: the change's median is worse than the parent's by no more
  than the metric's bound in BENCHMARK.json (end-to-end metrics only), or
  "unresolved" when the parent's runs spread too widely to tell: their
  quartile distance q3 - q1 exceeds the bound times their median, and some
  change run does not read better than every parent run.

After writing the file it prints one line per workload and metric: the
parent's median, the change's median, their ratio, wins/losses, the
control's median, and the two verdicts ("-" where a verdict does not apply).

Python standard library only.  Run from the root of a checkout whose
sibling directories hold the parent and its second copy under names of the
same length, say work/, base/ and ctrl/:

    python3 tools/bench_pairs.py --parent ../base --control ../ctrl \\
        --pairs 10 --seconds 40 --seed 11 --out BENCH_11.json

Pair i uses seed --seed + i on every side and runs the sides in the order
parent, change, control rotated i places.  The three checkouts must hold
byte-identical perfbench/ directories and BENCHMARK.json, so that every
side runs the same benchmark; the control's src/ must be byte-identical to
the parent's; all must agree on whether src/ holds .pyc files (a side with
bytecode loads it where another compiles the source, which moves setup_s
and peak_rss_mib), and must have resolved paths of equal length, because
peak_rss_mib moves with the length of the checkout's path.  The bytecode
states and the paths are recorded in the settings.  Every run's own result
file stays under its checkout's perfbench/out/.  --trace 1 collects the
per-layer metrics instead.
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


def source_files(checkout: Path) -> dict[str, bytes]:
    """Relative path -> bytes of every source file under src/."""
    src = checkout / "src"
    return {
        str(path.relative_to(src)): path.read_bytes()
        for path in sorted(src.rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".pyc"
    }


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


def summarize(pairs: list[tuple[dict, dict, dict]], better: dict[str, str],
              bounds: dict[str, float]) -> dict:
    """Per-metric statistics over (parent, change, control) result triples."""
    out = {}
    common = set.intersection(*(set(r["metrics"]) for pair in pairs for r in pair))
    for metric in sorted(common):
        parent, change, control = (
            [pair[n]["metrics"][metric]["value"] for pair in pairs] for n in range(3)
        )
        sign = -1 if better.get(metric, "lower") == "lower" else 1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        pq, cq, aq = quartiles(parent), quartiles(change), quartiles(control)
        gain = sign * (cq[1] - pq[1])
        aa_gap = abs(aq[1] - pq[1])
        entry = {
            "unit": pairs[0][0]["metrics"][metric]["unit"],
            "better": better.get(metric, "lower"),
            "parent": {"median": pq[1], "q1": pq[0], "q3": pq[2], "runs": parent},
            "change": {"median": cq[1], "q1": cq[0], "q3": cq[2], "runs": change},
            "control": {"median": aq[1], "q1": aq[0], "q3": aq[2], "runs": control},
            "wins": wins,
            "losses": losses,
            "ties": len(pairs) - wins - losses,
            "median_ratio": cq[1] / pq[1] if pq[1] else None,
            "aa_gap": aa_gap,
            "gain_shown": wins >= 0.9 * len(pairs) and gain > pq[2] - pq[0] and gain > aa_gap,
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
        f"control {entry['control']['median']:.6g}, "
        f"gain_shown {entry['gain_shown']}, within_bound {entry.get('within_bound', '-')}"
    )


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    p.add_argument("--control", required=True, type=Path,
                   help="a second checkout of the parent commit, the A/A control")
    p.add_argument("--workload", action="append", help="workload (repeat); default: all")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--seed", type=int, default=11, help="seed of the first pair")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    paths = {"parent": args.parent.resolve(), "change": ROOT, "control": args.control.resolve()}
    if len(set(paths.values())) != 3:
        raise SystemExit("error: the parent, the change and the control must be three checkouts")
    benchmarks = [benchmark_files(path) for path in paths.values()]
    if any(files != benchmarks[0] for files in benchmarks):
        raise SystemExit("error: the checkouts run different benchmarks")
    if source_files(paths["control"]) != source_files(paths["parent"]):
        raise SystemExit("error: the control's src/ differs from the parent's")
    bytecode = {side: has_bytecode(path) for side, path in paths.items()}
    if len(set(bytecode.values())) != 1:
        with_pyc = " and ".join(side for side, pyc in bytecode.items() if pyc)
        raise SystemExit(
            f"error: only the {with_pyc} checkout has .pyc files under src/; "
            "remove them there or compile all"
        )
    checkouts = {side: str(path) for side, path in paths.items()}
    if len({len(path) for path in checkouts.values()}) != 1:
        raise SystemExit(
            f"error: the checkout paths {', '.join(checkouts.values())} "
            "differ in length; use sibling directories whose names have equal length"
        )
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "settings": {
            "pairs": args.pairs, "seconds": args.seconds, "trace": args.trace,
            "seeds": [args.seed + i for i in range(args.pairs)],
            "order": "pair i runs parent, change, control rotated i places",
            "bytecode_under_src": bytecode,
            "checkouts": checkouts,
        },
        "workloads": {},
    }
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            sides = list(paths)
            results = {}
            for side in sides[i % 3:] + sides[:i % 3]:
                results[side] = run_once(paths[side], workload, seed, args.seconds, args.trace)
                print(f"{workload} seed {seed} {side}: correct={results[side]['correct']}",
                      file=sys.stderr, flush=True)
            pairs.append(tuple(results[side] for side in paths))
        report["workloads"][workload] = {
            "correct": all(r["correct"] for pair in pairs for r in pair),
            "failed": {side: sum(pair[n]["failed"] for pair in pairs)
                       for n, side in enumerate(paths)},
            "metrics": summarize(pairs, better, bounds),
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in report["workloads"].items():
        for metric, stats in entry["metrics"].items():
            print(summary_line(workload, metric, stats))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
