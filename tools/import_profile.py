"""Import cost of fusionring in fresh interpreters, module by module.

For each source tree given (default: this checkout's src/), copies it
without bytecode to a temporary directory and starts --runs fresh
interpreters of each kind there, rotating the trees run by run:

- `python -X importtime -c "from fusionring.cli import run_command"`, with
  the copy first on sys.path;
- perfbench/run.py's SETUP_CODE (interpreter start, the same import and one
  `catalog list`), timed from the start of the process to its end, as
  run.py times setup_s.

Both run with PYTHONDONTWRITEBYTECODE=1 from an empty working directory,
so every fusionring module is compiled from source, as in the benchmark.
Prints the median setup wall time per tree, then for every module the median
self and cumulative import time (ms) per tree, slowest first.  Python
standard library only.

    python3 tools/import_profile.py [--runs 11] [--src DIR ...]

Give --src twice, say this checkout's src and a parent's, for a before and
after table from interleaved runs.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IMPORT_CODE = "import sys; sys.path.insert(0, sys.argv[1]); from fusionring.cli import run_command"


def setup_code() -> str:
    """SETUP_CODE of perfbench/run.py, read without importing the harness."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "SETUP_CODE":
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/run.py defines no SETUP_CODE")


def import_times(stderr: str) -> dict[str, tuple[int, int]]:
    """Module -> (self, cumulative) microseconds from -X importtime output."""
    times = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:") :].split("|")
        times[name.strip()] = (int(self_us), int(cumulative_us))
    return times


def profile(sources: list[Path], runs: int) -> tuple[list[list[float]], list[dict]]:
    """Per source: the setup wall times (s), and module -> list of
    (self, cumulative) microseconds, one entry per run."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    code = setup_code()
    walls: list[list[float]] = [[] for _ in sources]
    modules: list[dict] = [{} for _ in sources]
    with tempfile.TemporaryDirectory() as tmp:
        copies = []
        for i, src in enumerate(sources):
            copy = Path(tmp) / f"src{i}"
            shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
            copies.append(str(copy))
        work = Path(tmp) / "cwd"
        work.mkdir()
        for r in range(runs):
            for k in range(len(sources)):
                i = (r + k) % len(sources)
                proc = subprocess.run(
                    [sys.executable, "-X", "importtime", "-c", IMPORT_CODE, copies[i]],
                    capture_output=True, text=True, cwd=work, env=env, check=True,
                )
                for name, times in import_times(proc.stderr).items():
                    modules[i].setdefault(name, []).append(times)
                start = time.perf_counter()
                subprocess.run(
                    [sys.executable, "-c", code, copies[i]],
                    stdout=subprocess.DEVNULL, cwd=work, env=env, check=True,
                )
                walls[i].append(time.perf_counter() - start)
    return walls, modules


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--runs", type=int, default=11, help="fresh interpreters per kind and tree")
    parser.add_argument(
        "--src", type=Path, action="append", help="a source tree (repeatable; default src/)"
    )
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    sources = args.src or [ROOT / "src"]
    walls, modules = profile(sources, args.runs)
    for src, wall in zip(sources, walls):
        print(f"setup wall, median of {args.runs}: {statistics.median(wall) * 1e3:.1f} ms  {src}")
    median = [
        {
            name: [statistics.median(t[c] for t in times) / 1e3 for c in (0, 1)]
            for name, times in m.items()
        }
        for m in modules
    ]
    # slowest first, by the largest cumulative time any tree shows
    names = sorted(
        set().union(*median), key=lambda name: -max(m[name][1] for m in median if name in m)
    )
    header = "".join(f"  self{i} cum{i}".rjust(16) for i in range(len(sources)))
    print(f"{'module':40}{header}   (ms; tree i is the i-th --src)")
    for name in names:
        cells = "".join(
            f"{m[name][0]:8.2f}{m[name][1]:8.2f}" if name in m else f"{'-':>8}{'-':>8}"
            for m in median
        )
        print(f"{name:40}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
