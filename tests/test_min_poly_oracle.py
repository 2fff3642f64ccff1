"""Independent oracle for printed minimal polynomials: sympy.

The min poly the CLI prints for an FPdim must equal sympy's
minimal_polynomial of that FPdim's closed form, and every min poly printed
for a builtin must be irreducible over Q.  Skipped where sympy is not
installed.
"""

from __future__ import annotations

import io
import json

import pytest

import fusionring as fr
from fusionring.cli import run_command
from conftest import FUSION_NAMES, su2, tambara_yamagami

sympy = pytest.importorskip("sympy")
T = sympy.Symbol("t")


def printed(capsys, monkeypatch, argv, data=None):
    """The JSON that `run_command(argv)` prints, reading `data` as stdin."""
    if data is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(fr.emit_fusion_file(data)))
    assert run_command([*argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def as_printed(closed_form) -> list:
    """sympy's min poly of `closed_form`, monic, as the CLI prints a poly:
    ascending coefficients, ints or "p/q" strings."""
    coeffs = sympy.Poly(sympy.minimal_polynomial(closed_form, T), T).monic().all_coeffs()
    return [int(c) if c.is_integer else str(c) for c in reversed(coeffs)]


@pytest.mark.parametrize("k", range(1, 9))
def test_su2_min_polys_are_those_of_quantum_integers(capsys, monkeypatch, k):
    # FPdim(j) = [j+1]_q at q = exp(i pi/(k+2)), which is U_j(cos(pi/(k+2)))
    elements = printed(capsys, monkeypatch, ["fpdim", "-"], su2(k))["elements"]
    for j in range(k + 1):
        quantum = sympy.chebyshevu(j, sympy.cos(sympy.pi / (k + 2)))
        assert elements[f"j{j}"]["min_poly"] == as_printed(quantum), (k, j)


@pytest.mark.parametrize("n", range(2, 10))
def test_ty_min_poly_of_m_is_that_of_sqrt_n(capsys, monkeypatch, n):
    doc = printed(capsys, monkeypatch, ["fpdim", "-", "--element", "m"], tambara_yamagami(n))
    assert doc["min_poly"] == as_printed(sympy.sqrt(n))


def test_fib_min_poly_is_that_of_the_golden_ratio(capsys, monkeypatch):
    doc = printed(capsys, monkeypatch, ["fpdim", "fib", "--element", "x"])
    assert doc["min_poly"] == as_printed((1 + sympy.sqrt(5)) / 2) == [-1, -1, 1]


def _min_polys(doc):
    """Every "min_poly" in a printed payload."""
    if isinstance(doc, dict):
        if "min_poly" in doc:
            yield doc["min_poly"]
        for value in doc.values():
            yield from _min_polys(value)


@pytest.mark.parametrize("name", FUSION_NAMES)
def test_builtin_min_polys_are_irreducible(capsys, monkeypatch, name):
    polys = []
    for argv in (["fpdim", name], ["fpdim", name, "--category"], ["regular", name]):
        polys += _min_polys(printed(capsys, monkeypatch, argv))
    assert polys
    for coeffs in polys:
        poly = sympy.Poly([sympy.Rational(c) for c in reversed(coeffs)], T, domain="QQ")
        assert poly.is_irreducible, (name, coeffs)
