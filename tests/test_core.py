from __future__ import annotations

import json
import random

import pytest

import fusionring as fr
from conftest import ALL_NAMES, FUSION_NAMES, fusion_data


def test_multiply_rep_f2_z3_vv():
    data = fusion_data("rep_f2_z3")
    v = data.basis("v")
    assert (v * v).coeffs == data.element({"1": 2, "v": 1}).coeffs


@pytest.mark.parametrize("name", ALL_NAMES)
def test_multiply_unit_law(name):
    data = fusion_data(name)
    one = data.one()
    for i in range(data.rank):
        x = data.basis(i)
        assert (one * x).coeffs == x.coeffs
        assert (x * one).coeffs == x.coeffs


@pytest.mark.parametrize("name", ALL_NAMES)
def test_products_index_matches_tensor(name):
    data = fusion_data(name)
    r = data.rank
    for i in range(r):
        for j in range(r):
            pairs = data.products[i][j]
            assert [k for k, _ in pairs] == sorted(k for k, _ in pairs)
            dense = [0] * r
            for k, m in pairs:
                assert m > 0
                dense[k] = m
            assert tuple(dense) == data.n_tensor[i][j]


def _in_basis_order(data):
    """data as a fusion file that lists the simples in basis order."""
    labels = data.labels
    doc = {
        "endo_degree": data.endo_degree,
        "unit": [labels[u] for u in data.unit],
        "simples": [
            {"label": labels[i], "endo_dim": data.eps[i], "dual": labels[data.dual[i]]}
            for i in range(data.rank)
        ],
        "fusion": {
            f"{labels[i]}|{labels[j]}": {labels[k]: m for k, m in enumerate(row)}
            for i, plane in enumerate(data.n_tensor)
            for j, row in enumerate(plane)
        },
    }
    return json.dumps(doc)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_tensor_and_products_give_equal_data(name):
    data = fusion_data(name)
    fields = dict(dual=data.dual, eps=data.eps, endo_degree=data.endo_degree, unit=data.unit)
    dense = [[list(row) for row in plane] for plane in data.n_tensor]
    from_tensor = fr.FusionData(labels=list(data.labels), n_tensor=dense, **fields)
    from_products = fr.FusionData(labels=data.labels, products=data.products, **fields)
    parsed = fr.parse_fusion_file(_in_basis_order(data)).data
    assert "n_tensor" not in vars(parsed)  # the dense view is built on demand
    for other in (from_tensor, from_products, parsed):
        assert other == data and hash(other) == hash(data)
        assert other.products == data.products
        assert other.n_tensor == tuple(tuple(tuple(row) for row in plane) for plane in dense)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("dual", (0.0, 1), "dual map"),
        ("dual", (0, True), "dual map"),
        ("unit", (0.0,), "unit summand"),
        ("unit", (False,), "unit summand"),
        ("eps", (True, 1), "endomorphism dimensions"),
        ("endo_degree", True, "endomorphism degree"),
    ],
)
def test_fusion_data_rejects_non_int_fields(field, value, message):
    fields = {"dual": (0, 1), "eps": (1, 1), "endo_degree": 1, "unit": (0,), field: value}
    with pytest.raises(ValueError, match=message):
        fr.FusionData(labels=("1", "g"), n_tensor=(((1, 0), (0, 1)), ((0, 1), (1, 0))), **fields)


def test_fusion_data_rejects_bad_tensors():
    labels, fields = ("1", "g"), dict(dual=(0, 1), eps=(1, 1), endo_degree=1, unit=(0,))
    with pytest.raises(ValueError, match="rank x rank x rank"):
        fr.FusionData(labels=labels, n_tensor=(((1, 0),), ((0, 1),)), **fields)
    with pytest.raises(ValueError, match=r"N\[g\]\[g\]\[1\] = -1 is not a nonnegative integer"):
        fr.FusionData(labels=labels, n_tensor=(((1, 0), (0, 1)), ((0, 1), (-1, 0))), **fields)
    with pytest.raises(ValueError, match="0.0 is not a nonnegative integer"):
        fr.FusionData(labels=labels, n_tensor=(((1, 0), (0, 1)), ((0, 1), (1, 0.0))), **fields)
    unsorted = ((((0, 1),), ((1, 1),)), (((1, 1),), ((1, 1), (0, 1))))
    with pytest.raises(ValueError, match="ascending"):
        fr.FusionData(labels=labels, products=unsorted, **fields)
    zero = ((((0, 1),), ((1, 1),)), (((1, 1),), ((0, 0),)))
    with pytest.raises(ValueError, match="= 0 is not a positive integer"):
        fr.FusionData(labels=labels, products=zero, **fields)
    with pytest.raises(TypeError):
        fr.FusionData(labels=labels, **fields)


def test_fusion_data_and_elements_reject_bools():
    labels, fields = ("1", "g"), dict(dual=(0, 1), eps=(1, 1), endo_degree=1, unit=(0,))
    for one, zero in ((True, 0), (1, False)):
        tensor = (((one, zero), (0, 1)), ((0, 1), (1, 0)))
        with pytest.raises(ValueError, match="is not a nonnegative integer"):
            fr.FusionData(labels=labels, n_tensor=tensor, **fields)
    for pair in ((False, 1), (0, True)):
        products = (((pair,), ((1, 1),)), (((1, 1),), ((0, 1),)))
        with pytest.raises(ValueError, match="ascending|is not a positive integer"):
            fr.FusionData(labels=labels, products=products, **fields)
    data = fusion_data("vec_z2")
    with pytest.raises(ValueError, match="nonnegative integers"):
        data.element((True, 0))
    assert data.element((1, 0)).coeffs == (1, 0)


def test_multiply_vec_z2_self_inverse():
    data = fusion_data("vec_z2")
    g = data.basis("g")
    assert (g * g).coeffs == data.one().coeffs


def test_multiply_context_mismatch():
    a = fusion_data("vec_z2").basis(0)
    b = fusion_data("vec_z3").basis(0)
    with pytest.raises(fr.ContextMismatchError):
        fr.multiply(a, b)


def test_multiply_equal_but_distinct_contexts_ok():
    # two structurally equal copies interoperate
    entry = fr.get_builtin("fib")
    copy = fr.parse_fusion_file(fr.emit_entry(entry)).data
    x = entry.data.basis("x")
    y = fr.MultisetElement(copy, (0, 1))
    assert (x * y).coeffs == (1, 1)


def test_compare_zero_below_everything():
    data = fusion_data("rep_f2_z3")
    zero = data.zero()
    v = data.basis("v")
    cmp = fr.compare(zero, v * v)
    assert cmp.leq and not cmp.geq


def test_compare_unit_below_vv():
    data = fusion_data("rep_f2_z3")
    v = data.basis("v")
    vv = v * v  # multiply is the oracle for the upper element
    assert fr.compare(data.basis("1"), vv).leq


def test_compare_intersection():
    data = fusion_data("rep_f2_z3")
    a = data.element({"1": 2, "v": 1})
    b = data.element({"1": 1})
    assert fr.compare(a, b).intersection.coeffs == (1, 0)


@pytest.mark.parametrize("name", FUSION_NAMES)
def test_compare_is_partial_order_and_meet(name):
    data = fusion_data(name)
    rng = random.Random(hash(name) & 0xFFFF)
    r = data.rank
    elems = [
        data.element([rng.randint(0, 4) for _ in range(r)]) for _ in range(40)
    ]
    for a in elems:
        assert fr.compare(a, a).leq and fr.compare(a, a).geq
    for a, b in zip(elems, elems[1:]):
        cab, cba = fr.compare(a, b), fr.compare(b, a)
        if cab.leq and cba.leq:
            assert a.coeffs == b.coeffs
        meet = cab.intersection
        assert fr.compare(meet, a).leq and fr.compare(meet, b).leq
        # greatest lower bound: any common lower bound sits below the meet
        below = data.element(
            [max(min(x, y) - rng.randint(0, 1), 0) for x, y in zip(a.coeffs, b.coeffs)]
        )
        assert fr.compare(below, meet).leq
    for a, b, c in zip(elems, elems[1:], elems[2:]):
        if fr.compare(a, b).leq and fr.compare(b, c).leq:
            assert fr.compare(a, c).leq


def test_dual_vec_z3_inverse():
    data = fusion_data("vec_z3")
    assert fr.dual_element(data.basis("g")).coeffs == data.basis("g2").coeffs


def test_dual_rep_f2_z3_self_dual():
    # N[v][v][1] > 0 forces v to be its own dual by the duality axiom
    data = fusion_data("rep_f2_z3")
    assert data.n_tensor[1][1][0] > 0
    assert fr.dual_element(data.basis("v")).coeffs == data.basis("v").coeffs


@pytest.mark.parametrize("name", ALL_NAMES)
def test_dual_is_involution(name):
    data = fusion_data(name)
    rng = random.Random(len(name))
    for _ in range(25):
        a = data.element([rng.randint(0, 5) for _ in range(data.rank)])
        assert fr.dual_element(fr.dual_element(a)).coeffs == a.coeffs


def test_unit_decomposition_fusion():
    indices, report = fr.unit_decomposition(fusion_data("rep_f2_z3"))
    assert indices == (0,)
    assert report.passed


def test_unit_decomposition_m2_vec():
    data = fusion_data("m2_vec")
    indices, report = fr.unit_decomposition(data)
    assert tuple(data.labels[i] for i in indices) == ("E11", "E22")
    assert report.passed


def test_unit_decomposition_duplicate_summand():
    base = fusion_data("m2_vec")
    corrupted = fr.FusionData(
        labels=base.labels,
        n_tensor=base.n_tensor,
        dual=base.dual,
        eps=base.eps,
        endo_degree=base.endo_degree,
        unit=(0, 0, 3),  # unit declared as 2*E11 + E22
    )
    _, report = fr.unit_decomposition(corrupted)
    assert not report.passed
    assert any(v.rule == "unit_multiplicity" for v in report.violations)


def test_pairing_examples():
    data = fusion_data("rep_f2_z3")
    v, one = data.basis("v"), data.basis("1")
    assert fr.pairing(v, v) == 2  # d * eps = 1 * 2
    assert fr.pairing(one, v) == 0
    cc = fusion_data("cc_bim")
    assert fr.pairing(cc.basis(0), cc.basis(0)) == 2  # d * eps = 2 * 1


def test_pairing_rejects_multifusion():
    data = fusion_data("m2_vec")
    with pytest.raises(fr.NotFusionError):
        fr.pairing(data.basis(0), data.basis(0))


@pytest.mark.parametrize("name", FUSION_NAMES)
def test_pairing_symmetric(name):
    data = fusion_data(name)
    rng = random.Random(99)
    for _ in range(20):
        a = data.element([rng.randint(0, 3) for _ in range(data.rank)])
        b = data.element([rng.randint(0, 3) for _ in range(data.rank)])
        assert fr.pairing(a, b) == fr.pairing(b, a)


@pytest.mark.parametrize("name", FUSION_NAMES)
def test_self_dual_product_hits_unit_with_eps(name):
    # exactly one unit summand in a * dual(a), with coefficient eps_a
    data = fusion_data(name)
    u = data.unit_index
    for i in range(data.rank):
        prod = fr.multiply(data.basis(i), fr.dual_element(data.basis(i)))
        assert prod.coeffs[u] == data.eps[i]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_multiply_associative_and_unital_random(name):
    data = fusion_data(name)
    rng = random.Random(0xFA51 + data.rank)
    r = data.rank
    one = data.one()
    for _ in range(10_000):
        a = data.element([rng.randint(0, 3) for _ in range(r)])
        b = data.element([rng.randint(0, 3) for _ in range(r)])
        c = data.element([rng.randint(0, 3) for _ in range(r)])
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
    for _ in range(100):
        a = data.element([rng.randint(0, 3) for _ in range(r)])
        assert (a * one).coeffs == a.coeffs == (one * a).coeffs


def test_elements_are_immutable():
    data = fusion_data("fib")
    x = data.basis("x")
    with pytest.raises(Exception):
        x.coeffs = (1, 1)
    with pytest.raises(Exception):
        data.eps = (1, 2)


def test_negative_coefficients_rejected():
    data = fusion_data("fib")
    with pytest.raises(ValueError):
        fr.MultisetElement(data, (1, -1))


def test_scaled_elements():
    data = fusion_data("fib")
    x = data.element({"1": 1, "x": 2})
    assert x.scaled(3) == fr.MultisetElement(data, (3, 6))
    assert x.scaled(1) == x
    assert x.scaled(0).is_zero
    with pytest.raises(ValueError, match="nonnegative"):
        x.scaled(-1)


def test_partial_order_and_zero():
    data = fusion_data("fib")
    x, one = data.basis("x"), data.one()
    assert x <= x and x <= x + one and not x + one <= x
    assert not x <= one and not one <= x
    assert data.zero() <= x
    assert data.zero().is_zero and not x.is_zero and not one.is_zero
    with pytest.raises(fr.ContextMismatchError):
        x <= fusion_data("vec_z2").basis(1)
