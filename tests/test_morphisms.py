from __future__ import annotations

from fractions import Fraction

import pytest

import fusionring as fr
from conftest import (
    FUSION_NAMES,
    fpdim_transport_oracle,
    fusion_data,
    morphism_file_oracle,
    su2,
    tensor_product,
)


def collapse_vec_z3():
    """Everything in the Z/3 group ring maps to the single line."""
    return fr.SemiringMorphism(
        source=fusion_data("vec_z3"),
        target=fusion_data("vec_r"),
        matrix=((1, 1, 1),),
    )


def twisted_vec_z2_endo():
    """f(x) = x * (1 + g), twisted by D = 1 + g."""
    data = fusion_data("vec_z2")
    return fr.SemiringMorphism(
        source=data,
        target=data,
        matrix=((1, 1), (1, 1)),
        twist=data.element({"1": 1, "g": 1}),
    )


def unit_inclusion_rep_f2_z3():
    return fr.SemiringMorphism(
        source=fusion_data("vec_r"),
        target=fusion_data("rep_f2_z3"),
        matrix=((1,), (0,)),
    )


def eps_copy_rep_f2_z3():
    """rep_f2_z3's product tensor with eps_v = 4 instead of 2."""
    base = fusion_data("rep_f2_z3")
    return fr.FusionData(
        labels=base.labels,
        n_tensor=base.n_tensor,
        dual=base.dual,
        eps=(1, 4),
        endo_degree=1,
        unit=(0,),
    )


def twist_into_non_associative():
    """A transitive but non-associative target: b = 1 + 2a + c has b*b = 6b,
    so f(1) = b is a dominant homomorphism twisted by D = 6 from the trivial
    ring, yet b is not an eigenvector of 1 + a + c, whose product with b is
    5 + 9a + 5c."""
    trivial = fusion_data("vec_r")
    target = fr.FusionData(
        labels=("1", "a", "c"),
        n_tensor=(
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            ((0, 1, 0), (0, 0, 0), (1, 2, 1)),
            ((0, 0, 1), (1, 2, 1), (1, 0, 0)),
        ),
        dual=(0, 1, 2),
        eps=(1, 1, 1),
        endo_degree=1,
        unit=(0,),
    )
    return fr.SemiringMorphism(trivial, target, ((1,), (2,), (1,)), twist=trivial.element({"1": 6}))


def identity_of(data):
    r = data.rank
    return fr.SemiringMorphism(data, data, [[int(i == j) for j in range(r)] for i in range(r)])


def by_images(source, target, images):
    """The morphism sending each source label to {target label: multiplicity}."""
    matrix = [[images[s].get(t, 0) for s in source.labels] for t in target.labels]
    return fr.SemiringMorphism(source, target, matrix)


def su2_twist(k):
    """f(x) = x D on SU(2)_k, twisted by D = 1 + j2 (dominant, since D >= 1)."""
    data = su2(k)
    d = data.element({"j0": 1, "j2": 1})
    columns = [fr.multiply(x, d).coeffs for x in data.simples()]
    return fr.SemiringMorphism(data, data, tuple(zip(*columns)), twist=d)


def test_homomorphism_collapse():
    assert fr.check_homomorphism(collapse_vec_z3()).passed


def test_homomorphism_twisted():
    # f(x) f(y) = xy (1+g)^2 = xy (2 + 2g) = f(x D y)
    f = twisted_vec_z2_endo()
    assert fr.check_homomorphism(f).passed
    data = f.source
    x, g = data.basis("1"), data.basis("g")
    lhs = f.apply(x) * f.apply(g)
    assert lhs.coeffs == (2, 2)


def test_homomorphism_identity():
    data = fusion_data("fib")
    identity = fr.SemiringMorphism(data, data, ((1, 0), (0, 1)))
    assert fr.check_homomorphism(identity).passed


def test_homomorphism_catches_non_multiplicative():
    data = fusion_data("vec_z2")
    broken = fr.SemiringMorphism(data, data, ((1, 0), (1, 1)))
    report = fr.check_homomorphism(broken)
    assert not report.passed


def test_untwisted_unit_condition():
    data = fusion_data("vec_z2")
    not_unital = fr.SemiringMorphism(data, data, ((1, 1), (1, 1)))  # f(1) = 1 + g
    report = fr.check_homomorphism(not_unital)
    assert any(v.rule == "unit_image" for v in report.violations)


def test_dominance():
    assert fr.check_dominant(collapse_vec_z3())
    assert fr.check_dominant(twisted_vec_z2_endo())
    assert not fr.check_dominant(unit_inclusion_rep_f2_z3())
    data = fusion_data("fib")
    assert fr.check_dominant(fr.SemiringMorphism(data, data, ((1, 0), (0, 1))))


def test_transport_identity():
    data = fusion_data("fib")
    identity = fr.SemiringMorphism(data, data, ((1, 0), (0, 1)))
    assert fr.verify_fpdim_transport(identity).passed


def test_transport_twisted_vec_z2():
    f = twisted_vec_z2_endo()
    report = fr.verify_fpdim_transport(f)
    assert report.passed
    # FPdim(D) = 2 doubles every dimension
    d = f.twist_element()
    assert fr.fpdim_element(d).value == 2
    assert fr.fpdim_element(f.apply(f.source.basis("g"))).value == 2


def test_transport_collapse():
    # f(R_A) = 3 * [1]; FPdim(D) = 1, ratio of category dims 3/1
    f = collapse_vec_z3()
    assert fr.verify_fpdim_transport(f).passed
    reg_image = f.apply(f.source.element({"1": 1, "g": 1, "g2": 1}))
    assert reg_image.coeffs == (3,)


def test_transport_reports_failures():
    data = fusion_data("vec_z2")
    # multiplicative but scaled wrong: f(x) = 2x is not a twisted hom for D=1
    f = fr.SemiringMorphism(data, data, ((2, 0), (0, 2)))
    report = fr.verify_fpdim_transport(f)
    assert not report.passed


def test_regular_transport_detects_eps_mismatch():
    # the same product tensor with eps_v = 4 instead of 2: every FPdim is
    # carried over, but Sum eps_t w_t^2 = 5 against FPdim(A) = 3 (and back)
    base, copy = fusion_data("rep_f2_z3"), eps_copy_rep_f2_z3()
    for source, target in ((base, copy), (copy, base)):
        identity = fr.SemiringMorphism(source, target, ((1, 0), (0, 1)))
        report = fr.verify_fpdim_transport(identity)
        assert [(v.rule, v.witness) for v in report.violations] == [
            ("regular_transport", (0,)),
            ("regular_transport", (1,)),
        ]


def test_regular_transport_requires_an_eigenvector():
    # f(R_A) = b is off the eigenvector of the target's L_t only because the
    # target is not associative, and the structural gate refuses it first
    f = twist_into_non_associative()
    assert fr.check_homomorphism(f).passed and fr.check_dominant(f)
    with pytest.raises(fr.InconsistentDataError, match="the target fails structural"):
        fr.verify_fpdim_transport(f)


def test_transport_flags_simples_off_the_eigenvector():
    # Fib into a non-associative target with a*a = 1 + a: the char poly of
    # L_a still gives FPdim(a) = phi, but (a R)_unit = R_a in the target's
    # Perron field does not, so the two FPdim readings disagree; both checks
    # refuse the target rather than give a verdict that depends on the reading
    fib = fusion_data("fib")
    target = fr.FusionData(
        labels=("1", "a", "c"),
        n_tensor=(
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            ((0, 1, 0), (1, 1, 0), (0, 0, 1)),
            ((0, 0, 1), (0, 1, 2), (1, 1, 2)),
        ),
        dual=(0, 1, 2),
        eps=(1, 1, 1),
        endo_degree=1,
        unit=(0,),
    )
    f = fr.SemiringMorphism(fib, target, ((1, 0), (0, 1), (0, 0)))
    assert fr.check_homomorphism(f).passed and not fr.check_structural(target).passed
    with pytest.raises(fr.InconsistentDataError, match="the target fails structural"):
        fr.verify_fpdim_transport(f)
    adjoint = fr.SemiringMorphism(target, fib, ((1, 0, 0), (0, 1, 0)))
    with pytest.raises(fr.InconsistentDataError, match="the source fails structural"):
        fr.check_adjoint_matrix(adjoint, 1)


FIB, FIB2 = fusion_data("fib"), tensor_product(fusion_data("fib"), fusion_data("fib"))
#: homomorphisms on which the Perron-field transport check must give the
#: per-simple oracle's verdict
DIFFERENTIAL = {
    **{
        f"id:{name}": (lambda name=name: identity_of(fusion_data(name)))
        for name in FUSION_NAMES
        if fr.check_transitivity(fusion_data(name)).passed
    },
    "collapse_vec_z3": collapse_vec_z3,
    "twisted_vec_z2_endo": twisted_vec_z2_endo,
    "unit_inclusion_rep_f2_z3": unit_inclusion_rep_f2_z3,
    "id:eps_copy_rep_f2_z3": lambda: identity_of(eps_copy_rep_f2_z3()),
    "rep_f2_z3->eps_copy": lambda: fr.SemiringMorphism(
        fusion_data("rep_f2_z3"), eps_copy_rep_f2_z3(), ((1, 0), (0, 1))
    ),
    "fib->fib2": lambda: by_images(FIB, FIB2, {"1": {"1.1": 1}, "x": {"x.1": 1}}),
    "fib2->fib": lambda: by_images(
        FIB2, FIB, {"1.1": {"1": 1}, "1.x": {"x": 1}, "x.1": {"x": 1}, "x.x": {"1": 1, "x": 1}}
    ),
    # the oracle's products reach degree 25 at k = 9 and 36 at k = 11
    **{f"su2_{k}*D": (lambda k=k: su2_twist(k)) for k in range(2, 12)},
}


@pytest.mark.parametrize("case", list(DIFFERENTIAL))
def test_transport_matches_per_simple_oracle(case):
    f = DIFFERENTIAL[case]()
    assert fr.check_homomorphism(f).passed
    report = fr.verify_fpdim_transport(f)
    assert [v for v in report.violations if v.rule == "fpdim_transport"] == (
        fpdim_transport_oracle(f)
    )


def test_transport_su2_9_twist_needs_no_product_degree():
    # FPdims of SU(2)_9 have degree 5, so the oracle's FPdim(D) FPdim(x) is
    # a root of a degree-25 composed product; the Perron-field check forms
    # none, and both find the twist consistent
    f = su2_twist(9)
    assert fpdim_transport_oracle(f) == []
    assert fr.check_dominant(f)
    assert fr.verify_fpdim_transport(f).passed


def test_checks_refuse_non_transitive_source():
    # e*e = e never reaches the unit; sending e to the line is a unital
    # homomorphism whose image FPdims (1, 1) happen to form an eigenvector
    idem = fr.FusionData(
        labels=("1", "e"),
        n_tensor=(((1, 0), (0, 1)), ((0, 1), (0, 1))),
        dual=(0, 1),
        eps=(1, 1),
        endo_degree=1,
        unit=(0,),
    )
    line = fusion_data("vec_r")
    f = fr.SemiringMorphism(idem, line, ((1, 1),))
    assert fr.check_homomorphism(f).passed
    with pytest.raises(fr.NonTransitiveError):
        fr.verify_fpdim_transport(f)
    # images (1, 2) are off the eigenvector, so only the gate can raise here
    with pytest.raises(fr.NonTransitiveError):
        fr.check_adjoint_matrix(fr.SemiringMorphism(idem, line, ((1, 2),)), 1)


def test_adjoint_formula_examples():
    # forgetful from (C,C)-bimodules to real lines
    assert fr.adjoint_fpdim(2, 1, 2, 1, 2, 1) == Fraction(2)
    # identity adjunction is the identity on FPdim(X)
    phi = fr.fpdim_element(fusion_data("fib").basis("x"))
    out = fr.adjoint_fpdim(1, 1, 1, 1, 1, phi)
    assert fr.exact_cmp(out, phi) == 0
    # bimodules for the cube-root field against rational lines
    assert fr.adjoint_fpdim(3, 1, 3, 1, 3, 1) == Fraction(3)


def test_adjoint_formula_cancels_equal_algebraic_dims():
    dim = fr.fpdim_category(fusion_data("fib"))
    out = fr.adjoint_fpdim(1, 1, 1, dim, dim, Fraction(7))
    assert out == Fraction(7)


def test_adjoint_rejects_nonpositive():
    with pytest.raises(ValueError):
        fr.adjoint_fpdim(0, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        fr.adjoint_fpdim(1, 0, 1, 1, 1, 1)


def test_relative_tensor_examples():
    assert fr.relative_tensor_fpdim(6, 6, 3) == Fraction(12)
    assert fr.relative_tensor_fpdim(5, 7, 1) == Fraction(35)
    phi = fr.fpdim_element(fusion_data("fib").basis("x"))
    assert fr.exact_cmp(fr.relative_tensor_fpdim(phi, 4, phi), Fraction(4)) == 0
    with pytest.raises(ZeroDivisionError):
        fr.relative_tensor_fpdim(6, 6, 0)


def test_morita_cc_bim_vs_vec_r():
    result = fr.morita_ratio_equal(fusion_data("cc_bim"), fusion_data("vec_r"))
    assert result.ratio_a == Fraction(1) and result.ratio_b == Fraction(1)
    assert result.equal


def test_morita_jj_bim_vs_vec_r():
    result = fr.morita_ratio_equal(fusion_data("jj_bim"), fusion_data("vec_r"))
    assert result.ratio_a == Fraction(1)
    assert result.equal


def test_morita_reflexive_and_irrational():
    fib = fusion_data("fib")
    assert fr.morita_ratio_equal(fib, fib).equal
    relabeled = fr.FusionData(
        labels=("1", "y"),
        n_tensor=fib.n_tensor,
        dual=fib.dual,
        eps=fib.eps,
        endo_degree=1,
        unit=(0,),
    )
    assert fr.morita_ratio_equal(fib, relabeled).equal


def test_morita_distinguishes():
    assert not fr.morita_ratio_equal(fusion_data("vec_z3"), fusion_data("vec_z2")).equal
    assert not fr.morita_ratio_equal(fusion_data("fib"), fusion_data("vec_r")).equal


def test_morphism_shape_validation():
    with pytest.raises(ValueError):
        fr.SemiringMorphism(fusion_data("vec_z3"), fusion_data("vec_r"), ((1, 1),))
    with pytest.raises(ValueError):
        fr.SemiringMorphism(fusion_data("vec_r"), fusion_data("vec_r"), ((-1,),))


def test_adjoint_matrix_check_cc_bim():
    # forgetful from (C,C)-bimodules to real lines sends each simple to two
    # real lines; the twist is the 2-dimensional algebra in the source
    forgetful = fr.SemiringMorphism(
        source=fusion_data("cc_bim"),
        target=fusion_data("vec_r"),
        matrix=((2, 2),),
    )
    assert fr.check_adjoint_matrix(forgetful, 2).passed
    # the right proportions with the wrong scale flag every simple
    assert [v.witness for v in fr.check_adjoint_matrix(forgetful, 3).violations] == [(0,), (1,)]
    wrong = fr.SemiringMorphism(
        source=fusion_data("cc_bim"),
        target=fusion_data("vec_r"),
        matrix=((2, 3),),
    )
    assert not fr.check_adjoint_matrix(wrong, 2).passed
    # images not proportional to the source FPdims: flagged where they stray
    assert [v.witness for v in fr.check_adjoint_matrix(wrong, 2).violations] == [(1,)]


def test_adjoint_matrix_check_identity():
    data = fusion_data("fib")
    identity = fr.SemiringMorphism(data, data, ((1, 0), (0, 1)))
    assert fr.check_adjoint_matrix(identity, 1).passed


def test_adjoint_matrix_check_reads_fpdims_without_eps():
    # FPdim(v) = (v R)_unit = 2 although eps_v R_v = 4 on the eps copy
    copy = eps_copy_rep_f2_z3()
    assert fr.check_adjoint_matrix(identity_of(copy), 1).passed


def test_adjoint_matrix_check_jj_bim():
    # forgetting the bimodule structure: the unit is 3-dimensional over the
    # rationals and the splitting-field simple is 6-dimensional; the formula
    # multiplies source dimensions by FPdim(D) = 3
    forgetful = fr.SemiringMorphism(
        source=fusion_data("jj_bim"),
        target=fusion_data("vec_r"),
        matrix=((3, 6),),
    )
    assert fr.check_adjoint_matrix(forgetful, 3).passed


@pytest.mark.parametrize(
    "make",
    [collapse_vec_z3, twisted_vec_z2_endo, unit_inclusion_rep_f2_z3],
)
def test_morphism_json_round_trip(make):
    f = make()
    text = fr.emit_morphism_file(f, name="probe")
    back = fr.parse_morphism_file(text)
    assert back == f
    assert fr.emit_morphism_file(back, name="probe") == text


@pytest.mark.parametrize(
    "case", ["id:su2_8", "fib->fib2", "fib2->fib", "su2_3*D", "twisted_vec_z2_endo"]
)
def test_morphism_file_embeds_the_fusion_documents_unchanged(case):
    # the embedded documents are built as dicts, not written and re-read
    f = identity_of(su2(8)) if case == "id:su2_8" else DIFFERENTIAL[case]()
    for name in ("", "probe"):
        assert fr.emit_morphism_file(f, name=name) == morphism_file_oracle(f, name)


def test_morphism_file_schema_errors():
    with pytest.raises(fr.SchemaError):
        fr.parse_morphism_file("{}")
    good = fr.emit_morphism_file(collapse_vec_z3())
    import json as _json

    doc = _json.loads(good)
    doc["images"]["g"] = {"bogus": 1}
    with pytest.raises(fr.SchemaError):
        fr.parse_morphism_file(_json.dumps(doc))
    assert fr.parse_morphism_file(good.encode("utf-8")) == collapse_vec_z3()
    with pytest.raises(fr.SchemaError, match="not valid UTF-8"):
        fr.parse_morphism_file(good.encode("utf-16"))
