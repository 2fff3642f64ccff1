from __future__ import annotations

from fractions import Fraction

import pytest

import fusionring as fr
from fusionring.fpengine import perron_vector
from fusionring.poly import RationalPolynomial as P
from fusionring.regular import _category_matrix_coeffs
from conftest import (
    ALL_NAMES,
    FUSION_NAMES,
    category_matrix_coeffs_oracle,
    as_interval,
    fusion_data,
    iv_add,
    iv_mul,
    iv_scale,
    iv_separation,
    mutate_tensor,
    su2,
    tambara_yamagami,
    tensor_product,
)

WIDTH = Fraction(1, 10**12)
TOL = Fraction(1, 10**9)


def test_regular_element_rep_f2_z3():
    reg = fr.regular_element(fusion_data("rep_f2_z3"))
    assert reg.coeffs == (Fraction(1), Fraction(1))  # FPdim(v)/eps_v = 2/2


def test_regular_element_vec_z2():
    assert fr.regular_element(fusion_data("vec_z2")).coeffs == (Fraction(1), Fraction(1))


def test_regular_element_rep_r_q8():
    reg = fr.regular_element(fusion_data("rep_r_q8"))
    assert reg.coeffs == (Fraction(1),) * 5  # four 1/1 and one 4/4


def test_regular_element_fib_has_golden_coordinate():
    reg = fr.regular_element(fusion_data("fib"))
    assert reg.coeffs[0] == Fraction(1)
    assert fr.min_poly(reg.coeffs[1]).coeffs == P((-1, -1, 1)).coeffs


def test_fpdim_category_paper_values():
    assert fr.fpdim_category(fusion_data("rep_r_q8")).value == 8
    assert fr.fpdim_category(fusion_data("rep_f2_z3")).value == 3
    assert fr.fpdim_category(fusion_data("cc_bim")).value == 2
    assert fr.fpdim_category(fusion_data("gal7")).value == 3
    assert fr.fpdim_category(fusion_data("vec_s3")).value == 6


def test_fpdim_category_fib():
    dim = fr.fpdim_category(fusion_data("fib"))
    assert fr.min_poly(dim).coeffs == P((5, -5, 1)).coeffs
    # 1 + phi^2 is the same number: phi^2 has min poly t^2 - 3t + 1, and
    # shifting its roots by one lands on t^2 - 5t + 5
    phi = fr.fpdim_element(fusion_data("fib").basis("x"))
    square = fr.exact_mul(phi, phi)
    assert fr.min_poly(square).coeffs == P((1, -3, 1)).coeffs
    assert fr.exact_cmp(square, dim) < 0


def test_fib_cross_route():
    data = fusion_data("fib")
    dim = fr.refine(fr.fpdim_category(data), WIDTH)
    total = (Fraction(0), Fraction(0))
    for i in range(data.rank):
        d = fr.refine(fr.fpdim_element(data.basis(i)), WIDTH)
        iv = as_interval(d, WIDTH)
        total = iv_add(total, iv_scale(iv_mul(iv, iv), Fraction(1, data.eps[i])))
    assert iv_separation(total, as_interval(dim, WIDTH)) <= TOL


@pytest.mark.parametrize("name", FUSION_NAMES)
def test_two_route_consistency(name):
    data = fusion_data(name)
    matrix_route = as_interval(fr.refine(fr.fpdim_category(data), WIDTH), WIDTH)
    summation = (Fraction(0), Fraction(0))
    for i in range(data.rank):
        iv = as_interval(fr.refine(fr.fpdim_element(data.basis(i)), WIDTH), WIDTH)
        summation = iv_add(summation, iv_scale(iv_mul(iv, iv), Fraction(1, data.eps[i])))
    assert iv_separation(matrix_route, summation) <= TOL


def test_eigenproperty_direct_expansion():
    # v * (1 + v) = 2 + 2v = 2 * R, with multiply as the oracle
    data = fusion_data("rep_f2_z3")
    v = data.basis("v")
    r = data.element({"1": 1, "v": 1})
    assert (v * r).coeffs == (2, 2)
    assert fr.verify_regular_eigenproperty(data).passed


def test_eigenproperty_rep_r_q8_h():
    data = fusion_data("rep_r_q8")
    h = data.basis("h")
    reg = data.element({"1": 1, "a": 1, "b": 1, "c": 1, "h": 1})
    assert (h * reg).coeffs == (4, 4, 4, 4, 4)


@pytest.mark.parametrize("name", FUSION_NAMES)
def test_eigenproperty_all_fixtures(name):
    assert fr.verify_regular_eigenproperty(fusion_data(name)).passed


def test_eigenproperty_detects_wrong_eps():
    base = fusion_data("rep_f2_z3")
    wrong = fr.FusionData(
        labels=base.labels,
        n_tensor=base.n_tensor,
        dual=base.dual,
        eps=(1, 4),  # regular element coordinate becomes 1/2
        endo_degree=1,
        unit=(0,),
    )
    assert not fr.verify_regular_eigenproperty(wrong).passed


def with_eps(data, eps):
    return fr.FusionData(
        labels=data.labels,
        n_tensor=data.n_tensor,
        dual=data.dual,
        eps=eps,
        endo_degree=data.endo_degree,
        unit=data.unit,
    )


@pytest.mark.parametrize("name", FUSION_NAMES)
def test_eigenproperty_doubled_eps_flags_exactly_its_row(name):
    # R does not depend on eps, so doubling eps_x breaks (x R)_c = eps_x R_x R_c
    # at every c and nowhere else
    base = fusion_data(name)
    for x in range(base.rank):
        eps = tuple(2 * e if i == x else e for i, e in enumerate(base.eps))
        report = fr.verify_regular_eigenproperty(with_eps(base, eps))
        assert [(v.rule, v.witness) for v in report.violations] == [
            ("regular_eigenproperty", (x, c)) for c in range(base.rank)
        ]


def test_eigenproperty_messages_print_field_elements():
    # K = Q prints plain rationals; fib's K = Q(mu) prints polynomials in t = mu
    q = fusion_data("rep_f2_z3")
    report = fr.verify_regular_eigenproperty(with_eps(q, (1, 4)))
    assert report.violations[0].message == "(v * R)[1] = 2 != FPdim(v) * R[1] = 4"
    fib = fusion_data("fib")
    report = fr.verify_regular_eigenproperty(with_eps(fib, (1, 2)))
    assert report.violations[0].message == (
        "(x * R)[1] = t - 1 != FPdim(x) * R[1] = 2*t - 2"
    )


@pytest.mark.parametrize("name", FUSION_NAMES)
def test_perron_vector_matches_regular_element(name):
    # float evaluation is the oracle here only; the package compares in K
    data = fusion_data(name)
    m, reg = perron_vector(data)
    mu = float(fr.isolate_max_real_root(m))
    expected = fr.regular_element(data).coeffs
    assert len(reg) == data.rank
    for coord, value in zip(reg, expected):
        assert coord.degree < m.degree
        assert abs(coord.evaluate(mu) - float(value)) <= 1e-9


def test_certify_integrality_examples():
    cert = fr.certify_integrality(fusion_data("rep_f2_z3"))
    assert cert.min_poly.coeffs == P((-3, 1)).coeffs
    assert cert.is_algebraic_integer
    cert = fr.certify_integrality(fusion_data("fib"))
    assert cert.min_poly.coeffs == P((5, -5, 1)).coeffs
    assert cert.is_algebraic_integer
    cert = fr.certify_integrality(fusion_data("vec_z2"))
    assert cert.min_poly.coeffs == P((-2, 1)).coeffs


@pytest.mark.parametrize("name", FUSION_NAMES)
def test_integrality_flag_on_all_fixtures(name):
    assert fr.certify_integrality(fusion_data(name)).is_algebraic_integer


@pytest.mark.parametrize("name", FUSION_NAMES)
def test_category_dim_at_least_one(name):
    data = fusion_data(name)
    dim = fr.fpdim_category(data)
    cmp = fr.exact_cmp(dim, Fraction(1))
    if data.rank == 1 and data.eps == (1,):
        assert cmp == 0
    else:
        assert cmp > 0


def test_is_invertible():
    assert fr.is_invertible(fusion_data("vec_z3"), "g")
    assert not fr.is_invertible(fusion_data("rep_f2_z3"), "v")
    assert not fr.is_invertible(fusion_data("fib"), "x")
    q8 = fusion_data("rep_r_q8")
    assert fr.is_invertible(q8, "a") and not fr.is_invertible(q8, "h")


def test_is_invertible_raises_on_inconsistent_data():
    # a broken dual map: g*dual(g) = g*1 = g is not the unit, yet the
    # product tensor is that of Z/2, so FPdim(g) = 1
    base = fusion_data("vec_z2")
    broken = fr.FusionData(
        labels=base.labels,
        n_tensor=base.n_tensor,
        dual=(0, 0),
        eps=base.eps,
        endo_degree=base.endo_degree,
        unit=base.unit,
    )
    with pytest.raises(fr.InconsistentDataError):
        fr.is_invertible(broken, 1)


def test_regular_refuses_multifusion():
    with pytest.raises(fr.NotFusionError):
        fr.regular_element(fusion_data("m2_vec"))
    with pytest.raises(fr.NotFusionError):
        fr.fpdim_category(fusion_data("m2_vec"))


def _assert_category_coeffs_match_oracle(data):
    ours, oracle = _category_matrix_coeffs(data), category_matrix_coeffs_oracle(data)
    assert ours == oracle
    assert [type(c) for c in ours] == [type(c) for c in oracle]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_category_coeffs_match_multiply_oracle_on_builtins(name):
    _assert_category_coeffs_match_oracle(fusion_data(name))


def test_category_coeffs_see_eps_above_one():
    for name in ("jj_bim", "rep_f2_z3", "rep_r_q8"):
        data = fusion_data(name)
        assert max(data.eps) > 1
        assert any(isinstance(c, Fraction) for c in _category_matrix_coeffs(data))


@pytest.mark.parametrize(
    "make",
    [
        lambda: su2(7),
        lambda: tambara_yamagami(6),
        lambda: tensor_product(fusion_data("rep_f2_z3"), fusion_data("jj_bim")),
        lambda: tensor_product(su2(2), fusion_data("rep_r_q8")),
        # broken data: the coefficients are read off whatever products hold
        lambda: mutate_tensor(fusion_data("rep_f2_z3"), 1, 1, 1, 2),
        lambda: mutate_tensor(tambara_yamagami(3), 3, 3, 3, 1),
    ],
    ids=["su2_7", "ty_6", "rep_f2_z3xjj_bim", "su2_2xrep_r_q8", "mutated-rep_f2_z3", "mutated-ty_3"],
)
def test_category_coeffs_match_multiply_oracle_on_generated_rings(make):
    _assert_category_coeffs_match_oracle(make())


def test_is_invertible_on_non_transitive_data():
    # e*e = e: no product with e reaches the unit, so FPdim is refused and
    # invertibility is read from x * dual(x) alone
    data = fr.FusionData(
        labels=("1", "e"),
        n_tensor=(((1, 0), (0, 1)), ((0, 1), (0, 1))),
        dual=(0, 1),
        eps=(1, 1),
        endo_degree=1,
        unit=(0,),
    )
    with pytest.raises(fr.NonTransitiveError):
        fr.fpdim_element(data.basis("e"))
    assert fr.is_invertible(data, "1") and fr.is_invertible(data, 0)
    assert not fr.is_invertible(data, "e")
