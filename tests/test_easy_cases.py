"""The exact cases settled before the general algebra runs.

fpengine.perron_root certifies the Perron root of a nonnegative matrix with
constant row or column sums from those sums, and falls through to
isolate_max_real_root(char_poly(M)) otherwise; the two must agree on every
matrix, at every width, down to the printed interval.
factor.factor_integer_squarefree splits off rational roots before
Zassenhaus, and stops there when the exhaustive search leaves degree <= 3;
its factors must equal those of the Zassenhaus core alone (and sympy's).
"""

from __future__ import annotations

import io
import json
import random
from fractions import Fraction

import pytest

import fusionring as fr
from fusionring import factor, fpengine
from fusionring.cli import run_command
from fusionring.errors import ResourceLimitError
from fusionring.fpengine import (
    RationalMatrix,
    char_poly,
    isolate_max_real_root,
    left_mult_matrix_from_coeffs,
    perron_root,
    refine,
)
from fusionring.poly import RationalPolynomial as P
from fusionring.regular import _category_matrix_coeffs
from conftest import ALL_NAMES, relabelled, su2, tambara_yamagami, tensor_product

WIDTHS = (None, Fraction(1), Fraction(1, 2**64))


def _rings():
    rings = {name: fr.get_builtin(name).data for name in ALL_NAMES}
    for k in range(1, 9):
        rings[f"su2_{k}"] = relabelled(su2(k), k)
    for n in range(2, 8):
        rings[f"ty_{n}"] = relabelled(tambara_yamagami(n), n)
    fib = fr.get_builtin("fib").data
    for name, a, b in (
        ("fib^2", fib, fib),
        ("su2_2xty_3", su2(2), tambara_yamagami(3)),
        ("rep_f2_z3xfib", fr.get_builtin("rep_f2_z3").data, fib),
        ("rep_r_q8xz3", fr.get_builtin("rep_r_q8").data, fr.get_builtin("vec_z3").data),
    ):
        rings[name] = relabelled(tensor_product(a, b), len(name))
    return rings


RINGS = _rings()


def _matrices(data):
    """Every L_x and the category matrix of the data."""
    r = data.rank
    out = [left_mult_matrix_from_coeffs(data, [int(i == x) for i in range(r)]) for x in range(r)]
    out.append(left_mult_matrix_from_coeffs(data, _category_matrix_coeffs(data)))
    return out


def _assert_as_char_poly_path(matrix, width):
    got = perron_root(matrix)
    expected = isolate_max_real_root(char_poly(matrix))
    if width is not None:
        got, expected = refine(got, width), refine(expected, width)
    assert (got.lo, got.hi) == (expected.lo, expected.hi)
    if got.is_point:
        assert got.poly in (expected.poly, P((-got.value, 1)))
    else:
        assert got == expected


@pytest.mark.parametrize("name", sorted(RINGS))
def test_perron_root_is_the_char_poly_root_on_rings(name):
    for matrix in _matrices(RINGS[name]):
        for width in WIDTHS:
            _assert_as_char_poly_path(matrix, width)


def test_fraction_category_matrices_are_covered():
    # rep_r_q8 has eps 4, but its category matrix is integral
    for name in ("jj_bim", "rep_f2_z3", "rep_f2_z3xfib"):
        category = _matrices(RINGS[name])[-1]
        assert any(isinstance(c, Fraction) for row in category.rows for c in row)


def _permutation_sum(rng, n, k):
    rows = [[0] * n for _ in range(n)]
    for _ in range(k):
        perm = list(range(n))
        rng.shuffle(perm)
        for i, j in enumerate(perm):
            rows[i][j] += 1
    return rows


def _block_diagonal(a, b):
    n, m = len(a), len(b)
    return [row + [0] * m for row in a] + [[0] * n + row for row in b]


def _random_matrices():
    rng = random.Random(1414)
    for _ in range(40):
        n, k = rng.randint(1, 7), rng.randint(0, 4)
        m = _permutation_sum(rng, n, k)
        yield m
        yield [list(col) for col in zip(*m)]
        yield [[Fraction(c, 3) for c in row] for row in m]
        # constant column sums only
        scale = [rng.randint(1, 3) for _ in range(n)]
        yield [[c * s for c in row] for row, s in zip(m, scale)]
        # reducible: both blocks with the same row sum, or different sums
        other = _permutation_sum(rng, rng.randint(1, 4), k)
        yield _block_diagonal(m, other)
        yield _block_diagonal(m, _permutation_sum(rng, 3, k + 1))
        # upper block triangular with every row sum k + 1
        yield [row + [1] for row in m] + [[0] * n + [k + 1]]
    yield [[0] * 4 for _ in range(4)]
    # Perron root 18/17, a point on both paths
    yield [[1, Fraction(1, 17)], [Fraction(1, 17), 1]]
    yield [[2, -1], [-1, 2]]  # row sums 1, but the largest eigenvalue is 3
    yield [[0, 3, -1], [1, 1, 0], [2, 0, 0]]


@pytest.mark.parametrize("width", WIDTHS)
def test_perron_root_is_the_char_poly_root_on_random_matrices(width):
    for rows in _random_matrices():
        _assert_as_char_poly_path(RationalMatrix(tuple(map(tuple, rows))), width)


def test_line_sums_need_no_char_poly(monkeypatch):
    def refuse(matrix):
        raise AssertionError("char_poly called on a matrix with constant line sums")

    monkeypatch.setattr(fpengine, "char_poly", refuse)
    for name in ("vec_z2", "vec_z3", "vec_s3", "cc_bim", "gal7", "vec_r", "vec_c", "rep_r_q8"):
        data = fr.get_builtin(name).data
        dims = [fr.fpdim_element(x) for x in data.simples()]
        assert all(d.is_point for d in dims)
        assert fr.fpdim_element(data.one()).value == 1
        assert fr.fpdim_category(data).value == sum(d.value**2 / e for d, e in zip(dims, data.eps))
    assert fr.fpdim_element(fr.get_builtin("rep_r_q8").data.basis("h")).value == 4
    rows = _permutation_sum(random.Random(5), 6, 3)
    assert perron_root(RationalMatrix(tuple(map(tuple, rows)))).value == 3
    assert perron_root(RationalMatrix(tuple(map(tuple, zip(*[[1, 2], [1, 0]]))))).value == 2


def _with_eps(name, eps):
    data = fr.get_builtin(name).data
    return fr.FusionData(
        labels=data.labels,
        products=data.products,
        dual=data.dual,
        eps=eps,
        endo_degree=data.endo_degree,
        unit=data.unit,
    )


def _cli(capsys, monkeypatch, argv, data):
    monkeypatch.setattr("sys.stdin", io.StringIO(fr.emit_fusion_file(data)))
    code = run_command([*argv, "-", "--format", "json"])
    out, err = capsys.readouterr()
    return code, json.loads(out) if out else None, err


def test_rational_category_dimension_past_the_width_falls_through(capsys, monkeypatch):
    # s = 1 + g/3 + g^2/8 on Z/3: FPdim(C) = 35/24, a point at every
    # --precision, from the library as from the CLI
    data = _with_eps("vec_z3", (1, 3, 8))
    category = left_mult_matrix_from_coeffs(data, _category_matrix_coeffs(data))
    assert {sum(row) for row in category.rows} == {Fraction(35, 24)}
    expected = {"algebraic_integer": False, "min_poly": ["-35/24", 1],
                "approx": "1.458333333333333", "interval": ["35/24", "35/24"], "value": "35/24"}
    # integrality exits 1 on a dimension that is not an algebraic integer
    for argv, code in ((["fpdim", "--category"], 0), (["integrality"], 1)):
        for bits in ("0", "64"):
            assert _cli(capsys, monkeypatch, [*argv, "--precision", bits], data) == (
                code, expected, ""
            )
    dim = fr.fpdim_category(data)
    assert dim.is_point and dim.value == Fraction(35, 24)


def test_rational_center_prediction_prints_its_value(capsys, monkeypatch):
    # the prediction (35/24)^2 prints as the rational it is at every
    # precision
    data = _with_eps("vec_z3", (1, 3, 8))
    annotation = fr.GaloisAnnotation(marks=(fr.GaloisMark.trivial(),) * 3)
    for bits in ("0", "64"):
        text = fr.emit_fusion_file(data, annotation=annotation)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run_command(["center", "-", "--precision", bits, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["predicted"] == "1225/576"


def test_rational_points_print_as_on_the_char_poly_path(capsys, monkeypatch):
    # FPdim(C) = 18/17 prints as its point at --precision 0
    data = _with_eps("vec_z2", (1, 17))
    code, out, _ = _cli(capsys, monkeypatch, ["fpdim", "--category", "--precision", "0"], data)
    assert code == 0 and out["value"] == "18/17" and out["interval"] == ["18/17", "18/17"]


# ---------------------------------------------------------------------------
# rational roots before Zassenhaus


def _expand(*factors):
    prod = P((1,))
    for f in factors:
        prod = prod * P(f)
    return [int(c) for c in prod.coeffs]


def _corpus_polys():
    """Primitive squarefree integer parts of the char polys of every L_x and
    category matrix of RINGS."""
    seen = {}
    for data in RINGS.values():
        for matrix in _matrices(data):
            q = char_poly(matrix).squarefree_part()
            if q.degree >= 1:
                f = q.to_integer_coeffs()
                seen[tuple(f)] = f
    return list(seen.values())


def _random_polys():
    rng = random.Random(3030)
    for _ in range(60):
        factors = []
        for _ in range(rng.randint(1, 5)):
            degree = rng.choice((1, 1, 2, 3))
            coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.randint(1, 4)]
            factors.append(coeffs)
        q = P(_expand(*factors)).squarefree_part()
        if q.degree >= 1:
            yield q.to_integer_coeffs()


EDGE_POLYS = {
    "root-0": _expand((0, 1), (-2, 1), (-2, 0, 1)),
    "only-root-0": [0, 1],
    "non-monic": _expand((-2, 3), (5, 2), (1, 1, 1)),
    "cubic-with-rational-root": _expand((-1, 2), (3, 0, 1)),
    "irreducible-cubic": [-2, 0, 0, 1],
    "linear-factors-only": _expand((-1, 1), (1, 1), (-2, 1), (2, 1), (-3, 1), (5, 1)),
    "quartic-rest": _expand((-1, 1), (1, 0, -10, 0, 1)),
    "quadratics": _expand((-2, 0, 1), (-3, 0, 1), (-5, 0, 1)),
}


def _zassenhaus_alone(f):
    return sorted(factor._zassenhaus(f), key=lambda g: (len(g), g))


def test_factors_equal_the_zassenhaus_core_alone():
    polys = _corpus_polys() + list(_random_polys()) + list(EDGE_POLYS.values())
    assert len(polys) > 100
    for f in polys:
        assert factor.factor_integer_squarefree(f) == _zassenhaus_alone(f), f


def test_factors_equal_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for f in _corpus_polys() + list(_random_polys()) + list(EDGE_POLYS.values()):
        expr = sum(c * t**i for i, c in enumerate(f))
        _, pairs = sympy.factor_list(expr, t)
        expected = []
        for g, _ in pairs:
            coeffs = [int(c) for c in sympy.Poly(g, t).all_coeffs()[::-1]]
            expected.append([-c for c in coeffs] if coeffs[-1] < 0 else coeffs)
        assert factor.factor_integer_squarefree(f) == sorted(expected, key=lambda g: (len(g), g))


@pytest.mark.parametrize("name", ["root-0", "only-root-0", "non-monic", "cubic-with-rational-root",
                                  "irreducible-cubic", "linear-factors-only"])
def test_root_search_alone_needs_no_berlekamp(monkeypatch, name):
    def refuse(f, p):
        raise AssertionError("Berlekamp ran although the root search settled the factors")

    f = EDGE_POLYS[name]
    expected = _zassenhaus_alone(f)
    monkeypatch.setattr(factor, "_berlekamp", refuse)
    assert factor.factor_integer_squarefree(f) == expected


def test_constant_term_past_the_divisor_budget_still_factors(monkeypatch):
    # 10007 and 10009 are primes past the trial divisions the root search
    # may make, so it is not exhaustive, and a rest of degree <= 3 is not
    # certified irreducible: Zassenhaus splits it
    calls = []
    berlekamp = factor._berlekamp
    monkeypatch.setattr(factor, "_berlekamp", lambda f, p: calls.append(p) or berlekamp(f, p))
    two = _expand((-10007, 1), (-10009, 1))
    three = _expand((-10007, 1), (10009, 0, 1))
    for f in (two, three):
        assert not factor._divisors(f[0], factor.ROOT_SEARCH_BUDGET)[1]
        assert factor._rational_roots(f, Fraction(-10**9), Fraction(10**9),
                                      factor.ROOT_SEARCH_BUDGET, True) == ([], False)
    assert factor.factor_integer_squarefree(two) == [[-10009, 1], [-10007, 1]]
    assert factor.factor_integer_squarefree(three) == [[-10007, 1], [10009, 0, 1]]
    assert len(calls) == 2


def test_root_bound_is_above_every_root():
    np = pytest.importorskip("numpy")
    for f in _corpus_polys() + list(_random_polys()) + list(EDGE_POLYS.values()):
        bound = factor._root_bound(f)
        assert bound & (bound - 1) == 0
        assert max(abs(np.roots(f[::-1])), default=0) < bound, f


def test_divisors_report_when_they_give_up():
    assert factor._divisors(12) == ([1, 2, 3, 4, 6, 12], True)
    assert factor._divisors(-7) == ([1, 7], True)
    assert factor._divisors(10007 * 10009, budget=100) == ([1, 10007 * 10009], False)


def test_rational_roots_between_still_skips_wide_spans():
    # den 17 over a cell of width 1 spans 17 numerators: skipped, as before
    assert fr.factor.rational_roots_between([-18, 17], Fraction(0), Fraction(1)) == []
    assert fr.factor.rational_roots_between([-18, 17], Fraction(1), Fraction(3, 2)) == [
        Fraction(18, 17)
    ]


# ---------------------------------------------------------------------------
# the recombination budget


def test_recombination_gives_up_past_its_budget(monkeypatch):
    modular = []
    berlekamp = factor._berlekamp
    monkeypatch.setattr(factor, "_berlekamp", lambda f, p: modular.append(berlekamp(f, p))
                        or modular[-1])
    f = EDGE_POLYS["quadratics"]
    assert factor.factor_integer_squarefree(f) == [[-5, 0, 1], [-3, 0, 1], [-2, 0, 1]]
    assert len(modular[-1]) >= 4
    monkeypatch.setattr(factor, "MAX_RECOMBINATION_SUBSETS", 2)
    with pytest.raises(ResourceLimitError, match="recombining 4 modular factors"):
        factor.factor_integer_squarefree(f)


def test_recombination_budget_is_one_cli_error_line(capsys, monkeypatch):
    monkeypatch.setattr(factor, "MAX_RECOMBINATION_SUBSETS", 0)
    code, out, err = _cli(capsys, monkeypatch, ["fpdim"], su2(8))
    assert code == 1 and out is None
    assert err.startswith("error: recombining ") and err.count("\n") == 1
