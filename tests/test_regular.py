from __future__ import annotations

from fractions import Fraction

import pytest

import fusionring as fr
from fusionring.poly import RationalPolynomial as P
from conftest import FUSION_NAMES, fusion_data

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
    from fusionring.fpengine import as_interval, iv_add, iv_mul, iv_scale, iv_separation

    data = fusion_data("fib")
    dim = fr.fpdim_category(data, width=WIDTH)
    total = (Fraction(0), Fraction(0))
    for i in range(data.rank):
        d = fr.fpdim_element(data.basis(i), width=WIDTH)
        iv = as_interval(d, WIDTH)
        total = iv_add(total, iv_scale(iv_mul(iv, iv), Fraction(1, data.eps[i])))
    assert iv_separation(total, as_interval(dim, WIDTH)) <= TOL


@pytest.mark.parametrize("name", FUSION_NAMES)
def test_two_route_consistency(name):
    from fusionring.fpengine import as_interval, iv_add, iv_mul, iv_scale, iv_separation

    data = fusion_data(name)
    matrix_route = as_interval(fr.fpdim_category(data, width=WIDTH), WIDTH)
    summation = (Fraction(0), Fraction(0))
    for i in range(data.rank):
        iv = as_interval(fr.fpdim_element(data.basis(i), width=WIDTH), WIDTH)
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
