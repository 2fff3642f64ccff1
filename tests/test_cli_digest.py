"""tools/cli_digest.py, the CLI byte-identity digest, still runs.

The digest is compared line by line between two checkouts, so its run list
must not depend on the process and a run must end in an exit code, not
"raised".  The tool is loaded by path and only called; it imports the
standard library and fusionring.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import fusionring as fr
from fusionring.cli import run_command
from conftest import CC_BIM_DOUBLED

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "tools" / "cli_digest.py")
cli_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digest)


def test_invalid_inputs_are_fixed():
    inputs = cli_digest.invalid_inputs()
    assert inputs == cli_digest.invalid_inputs()
    named = dict(inputs)
    assert len(named) == len(inputs)
    assert fr.parse_fusion_file(named["cc_bim~1"]).data == CC_BIM_DOUBLED


def test_digest_lines_end_in_an_exit_code(capsys):
    line = cli_digest.digest(["fpdim", "fib"])
    code, out_hash, err_hash, args = line.split(" ", 3)
    assert (code, args) == ("0", "fpdim fib")
    run_command(["fpdim", "fib"])
    assert out_hash == hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert err_hash == hashlib.sha256(b"").hexdigest()
    name, text = cli_digest.MALFORMED[3]
    line = cli_digest.digest(["fpdim", "-"], (name, text))
    assert not line.startswith("raised")
    assert line.split(" ")[0] == "2" and line.endswith(f"fpdim - < {name}")
