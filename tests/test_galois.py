from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

import fusionring as fr
from fusionring.poly import RationalPolynomial as P
from conftest import (
    ALL_NAMES,
    center_prediction_oracle,
    fusion_data,
    galois_product,
    su2,
    tambara_yamagami,
    tensor_product,
)


def z2_group():
    return fr.FiniteGroup(("1", "c"), ((0, 1), (1, 0)))


def z6_group():
    return fr.FiniteGroup(
        ("1", "s", "s2", "s3", "s4", "s5"),
        tuple(tuple((i + j) % 6 for j in range(6)) for i in range(6)),
    )


def test_group_axioms_checked():
    with pytest.raises(ValueError):
        fr.FiniteGroup(("1", "g"), ((0, 1), (1, 1)))  # g has no inverse row
    with pytest.raises(ValueError):
        fr.FiniteGroup(("a", "b"), ((1, 0), (0, 0)))  # no identity


@pytest.mark.parametrize("bad", [True, 1.0], ids=["bool", "float"])
def test_group_table_entries_are_ints(bad):
    with pytest.raises(ValueError, match="table entries must be element indices"):
        fr.FiniteGroup(("1", "c"), ((0, bad), (bad, 0)))


def test_group_helpers():
    g = z6_group()
    assert g.identity == 0
    assert g.inverse(1) == 5
    assert g.is_abelian
    assert sorted(g.subgroup_generated([2])) == [0, 2, 4]
    from fusionring.catalog import _s3_group

    assert not _s3_group().is_abelian


def test_from_galois_group_full_z2_matches_cc_bim():
    data, annotation = fr.from_galois_group(z2_group(), ("1", "c"))
    assert data == fusion_data("cc_bim")
    assert annotation.marks[0].element == "1"
    assert annotation.is_trivial(0) and not annotation.is_trivial(1)


def test_from_galois_group_gal7():
    data, annotation = fr.from_galois_group(z6_group(), ("1", "s2", "s4"))
    assert data.rank == 3
    assert data.endo_degree == 6
    assert data == fusion_data("gal7")
    assert fr.check_structural(data).passed
    assert fr.check_eps_consistency(data).passed
    assert fr.fpdim_category(data).value == 3  # |subset|
    ratio = fr.morita_ratio_equal(data, data).ratio_a
    assert ratio == Fraction(3, 6)  # |subset| / |G|


def test_from_galois_group_trivial_group():
    g = fr.FiniteGroup(("1",), ((0,),))
    data, _ = fr.from_galois_group(g, ("1",))
    assert data.rank == 1 and data.endo_degree == 1


def test_from_galois_group_rejects_non_closed():
    with pytest.raises(ValueError):
        fr.from_galois_group(z6_group(), ("1", "s2"))  # s2*s2 = s4 missing
    with pytest.raises(ValueError):
        fr.from_galois_group(z6_group(), ("s2", "s4"))  # identity missing


def test_galois_trivial_subring_cc_bim():
    entry = fr.get_builtin("cc_bim")
    image = fr.galois_trivial_subring(entry.data, entry.annotation)
    assert image.labels == ("1",)
    assert image.endo_degree == 2


def test_galois_trivial_subring_gal7():
    entry = fr.get_builtin("gal7")
    image = fr.galois_trivial_subring(entry.data, entry.annotation)
    assert image.labels == ("1",)


def test_galois_trivial_subring_all_trivial_is_identity():
    data = fusion_data("vec_z3")
    annotation = fr.GaloisAnnotation(marks=(fr.GaloisMark.trivial(),) * 3)
    assert fr.galois_trivial_subring(data, annotation) == data


def test_galois_trivial_subring_rejects_non_closed_marks():
    data = fusion_data("vec_z3")
    annotation = fr.GaloisAnnotation(
        marks=(fr.GaloisMark.trivial(), fr.GaloisMark.nontrivial(), fr.GaloisMark.trivial())
    )
    with pytest.raises(fr.InconsistentAnnotationError):
        fr.galois_trivial_subring(data, annotation)  # g2*g2 = g leaves the set


def test_annotation_unit_must_be_trivial():
    data = fusion_data("vec_z2")
    annotation = fr.GaloisAnnotation(
        marks=(fr.GaloisMark.nontrivial(), fr.GaloisMark.trivial())
    )
    with pytest.raises(fr.InconsistentAnnotationError):
        fr.galois_trivial_subring(data, annotation)


def test_center_endo_degree_examples():
    cc = fr.get_builtin("cc_bim")
    assert fr.center_endo_degree(cc.data, cc.annotation) == 1
    gal = fr.get_builtin("gal7")
    assert fr.center_endo_degree(gal.data, gal.annotation) == 2
    jj = fr.get_builtin("jj_bim")
    assert fr.center_endo_degree(jj.data, jj.annotation) == 1  # user-supplied
    data = fusion_data("vec_z3")
    all_trivial = fr.GaloisAnnotation(marks=(fr.GaloisMark.trivial(),) * 3)
    assert fr.center_endo_degree(data, all_trivial) == data.endo_degree


def test_center_endo_degree_mixed_trivial_and_element_marks():
    # unit marked with a bare trivial flag, the other simple group-valued
    data = fusion_data("cc_bim")
    annotation = fr.GaloisAnnotation(
        marks=(fr.GaloisMark.trivial(), fr.GaloisMark.of("c")), group=z2_group()
    )
    assert fr.center_endo_degree(data, annotation) == 1


def test_center_endo_degree_insufficient_data():
    data = fusion_data("rep_f2_z3")
    annotation = fr.GaloisAnnotation(
        marks=(fr.GaloisMark.trivial(), fr.GaloisMark.nontrivial())
    )
    with pytest.raises(fr.InsufficientDataError):
        fr.center_endo_degree(data, annotation)
    assert fr.center_endo_degree(data, annotation, user_value=1) == 1


def test_center_prediction_gal7():
    entry = fr.get_builtin("gal7")
    pred = fr.center_fpdim_prediction(entry.data, entry.annotation)
    assert pred.predicted == Fraction(1)  # (2/6) * 1 * 3
    assert pred.bound_ok and pred.strict and not pred.equality and pred.consistent
    square = fr.exact_square(fr.fpdim_category(entry.data))
    assert square == Fraction(9)
    assert fr.exact_cmp(pred.predicted, square) < 0  # 1 < 9 strict


def test_center_prediction_cc_bim():
    entry = fr.get_builtin("cc_bim")
    pred = fr.center_fpdim_prediction(entry.data, entry.annotation)
    assert pred.predicted == Fraction(1)  # (1/2) * 1 * 2
    assert pred.strict and not pred.equality


def test_center_prediction_all_trivial_equality():
    data = fusion_data("vec_z3")
    annotation = fr.GaloisAnnotation(marks=(fr.GaloisMark.trivial(),) * 3)
    pred = fr.center_fpdim_prediction(data, annotation)
    assert pred.predicted == Fraction(9)
    assert pred.equality and pred.bound_ok and not pred.strict and pred.consistent


def test_center_prediction_all_trivial_irrational():
    data = fusion_data("fib")
    annotation = fr.GaloisAnnotation(marks=(fr.GaloisMark.trivial(),) * 2)
    pred = fr.center_fpdim_prediction(data, annotation)
    # FPdim(C)^2 = ((5 + sqrt5)/2)^2 = (15 + 5 sqrt5)/2, min poly t^2 - 15t + 25
    assert fr.min_poly(pred.predicted).coeffs == P((25, -15, 1)).coeffs
    assert pred.equality and pred.bound_ok


def test_center_prediction_jj_bim():
    entry = fr.get_builtin("jj_bim")
    pred = fr.center_fpdim_prediction(entry.data, entry.annotation)
    # (1/3) * 1 * 3 = 1 < 9
    assert pred.predicted == Fraction(1)
    assert pred.strict and pred.consistent


def test_center_prediction_user_degree_override():
    entry = fr.get_builtin("gal7")
    pred = fr.center_fpdim_prediction(entry.data, entry.annotation, user_center_degree=6)
    assert pred.predicted == Fraction(3)  # (6/6) * 1 * 3
    assert pred.bound_ok and not pred.equality and pred.consistent


@pytest.mark.parametrize("degree", [0, -3, True, 1.5])
def test_center_degree_must_be_a_positive_int(degree):
    gal = fr.get_builtin("gal7")
    with pytest.raises(ValueError):
        fr.center_endo_degree(gal.data, gal.annotation, degree)
    with pytest.raises(ValueError):
        fr.center_fpdim_prediction(gal.data, gal.annotation, user_center_degree=degree)
    with pytest.raises(ValueError, match="center degree must be a positive integer"):
        fr.GaloisAnnotation(gal.annotation.marks, group=gal.annotation.group, center_degree=degree)


def _center_cases():
    """pytest params (data, annotation, user_center_degree) for the
    square-formula comparison."""
    gal7 = fr.get_builtin("gal7")
    fib, vec_z3 = fusion_data("fib"), fusion_data("vec_z3")
    fib_trivial = fr.GaloisAnnotation((fr.GaloisMark.trivial(),) * 2)
    cases = [
        (name, entry.data, entry.annotation, None)
        for name in ALL_NAMES
        if (entry := fr.get_builtin(name)).annotation is not None
    ]
    cases += [
        ("fib_trivial", fib, fib_trivial, None),
        ("vec_z3_trivial", vec_z3, fr.GaloisAnnotation((fr.GaloisMark.trivial(),) * 3), None),
    ]
    bases = [(f"su2_{k}", su2(k)) for k in range(3, 9)]
    bases += [("fib2", tensor_product(fib, fib)), ("ty_z5", tambara_yamagami(5))]
    cases += [(f"gal7x{name}", *galois_product(gal7, base), None) for name, base in bases]
    # d_Z above d: equal at 18, violated beyond it
    cases += [(f"gal7_dz{dz}", gal7.data, gal7.annotation, dz) for dz in (12, 18, 24)]
    cases += [("fib_trivial_dz2", fib, fib_trivial, 2)]
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


@pytest.mark.parametrize("data, annotation, dz", _center_cases())
def test_center_prediction_matches_square_formula(data, annotation, dz):
    pred = fr.center_fpdim_prediction(data, annotation, user_center_degree=dz)
    predicted, bound_ok, strict, equality, consistent = center_prediction_oracle(
        data, annotation, dz
    )
    assert fr.exact_cmp(pred.predicted, predicted) == 0
    flags = (pred.bound_ok, pred.strict, pred.equality, pred.consistent)
    assert flags == (bound_ok, strict, equality, consistent)


def _closure_oracle(group, generators):
    """The subgroup generated, by closing under products and inverses until
    nothing new appears."""
    closure = {group.identity, *generators}
    while True:
        grown = closure | {group.table[g][h] for g in closure for h in closure}
        grown |= {group.inverse(g) for g in closure}
        if grown == closure:
            return frozenset(closure)
        closure = grown


@pytest.mark.parametrize("name", ["s3", "z6"])
def test_subgroup_generated_matches_brute_force_on_every_subset(name):
    from fusionring.catalog import _s3_group

    group = _s3_group() if name == "s3" else z6_group()
    for size in range(group.order + 1):
        for subset in itertools.combinations(range(group.order), size):
            assert group.subgroup_generated(subset) == _closure_oracle(group, subset)


def test_group_ring_builders_agree():
    group = z6_group()
    n_tensor = tuple(
        tuple(tuple(int(k == (i + j) % 6) for k in range(6)) for j in range(6))
        for i in range(6)
    )
    fields = dict(
        labels=group.labels,
        n_tensor=n_tensor,
        dual=tuple(-i % 6 for i in range(6)),
        eps=(1,) * 6,
        unit=(0,),
    )
    assert fr.vec_group(group.labels, group.table) == fr.FusionData(**fields, endo_degree=1)
    data, _ = fr.from_galois_group(group, group.labels)
    assert data == fr.FusionData(**fields, endo_degree=6)
    sub, _ = fr.from_galois_group(group, ("1", "s3"))
    assert sub == fr.FusionData(
        labels=("1", "s3"),
        n_tensor=(((1, 0), (0, 1)), ((0, 1), (1, 0))),
        dual=(0, 1),
        eps=(1, 1),
        endo_degree=6,
        unit=(0,),
    )
