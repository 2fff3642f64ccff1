"""tools/import_profile.py reads -X importtime output and prints one row
per module with a median self and cumulative time per source tree."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "import_profile", ROOT / "tools" / "import_profile.py"
)
import_profile = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(import_profile)


def test_import_times_reads_self_and_cumulative_microseconds():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |        120 |   fusionring.report\n"
        "import time:      1500 |       4200 | fusionring.core\n"
    )
    assert import_profile.import_times(stderr) == {
        "fusionring.report": (120, 120),
        "fusionring.core": (1500, 4200),
    }


def test_profile_of_two_trees(capsys):
    src = str(ROOT / "src")
    assert import_profile.main(["--runs", "1", "--src", src, "--src", src]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.startswith("setup wall, median of 1: ") for line in lines[:2]] == [True, True]
    rows = {line.split()[0]: line.split()[1:] for line in lines[3:]}
    assert len(rows["fusionring.cli"]) == 4 and "dataclasses" not in rows
