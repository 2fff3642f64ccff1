from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

import fusionring as fr
from fusionring.deligne import CC_ONE, CC_P, CC_Q, cc_multiply

R, C, H = fr.DivisionType.REAL, fr.DivisionType.COMPLEX, fr.DivisionType.QUATERNION


def test_table_cells():
    assert fr.tensor_types(R, R) == (fr.TensorCell(R, 1, 1),)
    assert fr.tensor_types(R, C) == (fr.TensorCell(C, 1, 1),)
    assert fr.tensor_types(R, H) == (fr.TensorCell(H, 1, 1),)
    assert fr.tensor_types(C, C) == (fr.TensorCell(C, 1, 2),)
    assert fr.tensor_types(C, H) == (fr.TensorCell(C, 2, 1),)
    assert fr.tensor_types(H, H) == (fr.TensorCell(R, 4, 1),)


def test_table_symmetric():
    for a, b in product((R, C, H), repeat=2):
        assert fr.tensor_types(a, b) == fr.tensor_types(b, a)


def test_dimension_bookkeeping():
    # each cell is a matrix algebra M_n(D) with dim = n^2 dim(D); the output
    # records n as the multiplicity, so dim(A) dim(B) = sum dim(D) n^2 count.
    for a, b in ((R, R), (R, C), (R, H), (C, C), (C, H), (H, H)):
        total = sum(
            cell.division_type.dim * cell.multiplicity**2 * cell.distinct_count
            for cell in fr.tensor_types(a, b)
        )
        assert total == a.dim * b.dim


def test_deligne_product_vec_c_squared():
    vec_c = fr.get_builtin("vec_c").desc
    out = fr.deligne_product(vec_c, vec_c)
    assert len(out) == 2
    assert all(s.division_type is C and s.multiplicity == 1 for s in out)
    assert [s.label for s in out] == ["1*1#1", "1*1#2"]


def test_deligne_product_unit():
    vec_r = fr.get_builtin("vec_r").desc
    q8 = fr.get_builtin("rep_r_q8").desc
    out = fr.deligne_product(vec_r, q8)
    assert [(s.label, s.division_type, s.multiplicity) for s in out] == [
        (f"1*{label}", kind, 1) for label, kind in q8.simples
    ]


def test_deligne_product_q8_with_vec_c():
    q8 = fr.get_builtin("rep_r_q8").desc
    vec_c = fr.get_builtin("vec_c").desc
    out = fr.deligne_product(q8, vec_c)
    assert len(out) == 5
    assert all(s.division_type is C for s in out)
    assert [s.multiplicity for s in out] == [1, 1, 1, 1, 2]


def test_deligne_product_rank_formula():
    cc = fr.get_builtin("cc_bim").desc  # two complex simples
    out = fr.deligne_product(cc, cc)
    assert len(out) == sum(
        cell.distinct_count
        for _, ta in cc.simples
        for _, tb in cc.simples
        for cell in fr.tensor_types(ta, tb)
    )
    assert len(out) == 8


def test_desc_labels_distinct():
    with pytest.raises(ValueError):
        fr.SemisimpleDesc((("1", R), ("1", C)))


def test_cc_idempotents_exact():
    assert cc_multiply(CC_P, CC_P) == CC_P
    assert cc_multiply(CC_Q, CC_Q) == CC_Q
    assert cc_multiply(CC_P, CC_Q) == (Fraction(0),) * 4
    assert tuple(p + q for p, q in zip(CC_P, CC_Q)) == CC_ONE
    report = fr.verify_cc_idempotents()
    assert report.passed


def test_cc_algebra_relations():
    # (i x i)^2 = (-1) x (-1) = 1 x 1
    e3 = (Fraction(0), Fraction(0), Fraction(0), Fraction(1))
    assert cc_multiply(e3, e3) == CC_ONE
    # the algebra is commutative
    import random

    rng = random.Random(2)
    for _ in range(20):
        x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(4))
        y = tuple(Fraction(rng.randint(-3, 3)) for _ in range(4))
        assert cc_multiply(x, y) == cc_multiply(y, x)
