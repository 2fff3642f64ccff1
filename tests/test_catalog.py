from __future__ import annotations

import pytest

import fusionring as fr
from fusionring import catalog
from conftest import fusion_data


def test_list_contains_required_names():
    names = fr.list_builtins()
    for required in (
        "vec_z2",
        "vec_z3",
        "vec_s3",
        "rep_r_q8",
        "rep_f2_z3",
        "fib",
        "cc_bim",
        "gal7",
        "jj_bim",
        "m2_vec",
    ):
        assert required in names


def test_list_ordering_stable():
    first = fr.list_builtins()
    second = fr.list_builtins()
    assert first == second == tuple(sorted(first))


def test_get_builtin_unknown():
    with pytest.raises(KeyError):
        fr.get_builtin("nope")


def test_rep_r_q8_pinned():
    data = fusion_data("rep_r_q8")
    assert data.rank == 5
    assert data.eps == (1, 1, 1, 1, 4)
    h = data.basis("h")
    assert (h * h).coeffs == (4, 4, 4, 4, 0)
    assert fr.fpdim_category(data).value == 8


def test_rep_f2_z3_pinned():
    data = fusion_data("rep_f2_z3")
    assert data.rank == 2
    v = data.basis("v")
    assert (v * v).coeffs == (2, 1)
    assert data.eps == (1, 2)
    assert data.endo_degree == 1


def test_jj_bim_shares_semiring_with_rep_f2_z3():
    jj = fusion_data("jj_bim")
    f2 = fusion_data("rep_f2_z3")
    assert jj.n_tensor == f2.n_tensor
    assert jj.eps == f2.eps
    assert jj.dual == f2.dual
    assert jj.endo_degree == 3 and f2.endo_degree == 1


def test_vec_group_builder():
    data = fr.vec_group(("1", "g"), ((0, 1), (1, 0)))
    assert data == fusion_data("vec_z2")
    with pytest.raises(ValueError):
        fr.vec_group(("1", "g"), ((0, 1), (1, 1)))


def test_entries_carry_descriptions():
    for name in fr.list_builtins():
        entry = fr.get_builtin(name)
        assert entry.name == name
        assert entry.description


def test_annotated_fixtures():
    assert fr.get_builtin("cc_bim").annotation is not None
    assert fr.get_builtin("gal7").annotation is not None
    assert fr.get_builtin("jj_bim").annotation.center_degree == 1
    assert fr.get_builtin("fib").annotation is None


def test_descs_attached_where_real():
    assert fr.get_builtin("rep_r_q8").desc is not None
    assert fr.get_builtin("cc_bim").desc is not None
    assert fr.get_builtin("vec_r").desc is not None
    assert fr.get_builtin("vec_c").desc is not None


def test_only_the_requested_builtin_is_built(monkeypatch):
    built = []
    for name, builder in catalog._BUILDERS.items():
        monkeypatch.setitem(
            catalog._BUILDERS, name, lambda n, b=builder: built.append(n) or b(n)
        )
    catalog.get_builtin.cache_clear()
    try:
        assert fr.list_builtins() == tuple(sorted(catalog._BUILDERS))
        assert built == []
        entry = fr.get_builtin("fib")
        assert fr.get_builtin("fib") is entry
        assert built == ["fib"]
    finally:
        catalog.get_builtin.cache_clear()
