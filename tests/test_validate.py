from __future__ import annotations

import itertools
import random

import pytest

import fusionring as fr
from conftest import (
    ALL_NAMES,
    FUSION_NAMES,
    cyclic,
    dense_eps_consistency,
    dense_structural,
    dense_transitivity,
    fusion_data,
    mutate_tensor,
    relabelled,
    su2,
    tambara_yamagami,
    tensor_product,
)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_all_fixtures_pass_structural(name):
    assert fr.check_structural(fusion_data(name)).passed


@pytest.mark.parametrize("name", FUSION_NAMES)
def test_fusion_fixtures_pass_eps_and_transitivity(name):
    data = fusion_data(name)
    assert fr.check_eps_consistency(data).passed
    assert fr.check_transitivity(data).passed


def test_eps_consistency_rejects_multifusion():
    with pytest.raises(fr.NotFusionError):
        fr.check_eps_consistency(fusion_data("m2_vec"))


def test_structural_detects_broken_duality():
    data = mutate_tensor(fusion_data("rep_f2_z3"), 1, 1, 0, -2)  # v*v loses the unit
    report = fr.check_structural(data)
    assert not report.passed
    assert any(v.rule == "duality" for v in report.violations)


@pytest.mark.parametrize("name", ["fib", "gal7", "jj_bim", "m2_vec", "rep_r_q8", "vec_s3"])
def test_structural_matches_dense_associativity_reference(name):
    rng = random.Random(name)
    data = fusion_data(name)
    r = data.rank
    for _ in range(4):
        i, j, k = (rng.randrange(r) for _ in range(3))
        delta = -1 if data.n_tensor[i][j][k] and rng.random() < 0.5 else 1
        data = mutate_tensor(data, i, j, k, delta)
        assert list(fr.check_structural(data).violations) == dense_structural(data)


def perturbations(data, seed):
    """Four seeded single-entry +-1 perturbations of data: two away from the
    unit summands, which keep the unit law (so Light's test runs and has to
    fall back), then two anywhere."""
    rng = random.Random(seed)
    r = data.rank
    away = [i for i in range(r) if i not in data.unit]
    out = []
    for pool in (away, away, range(r), range(r)):
        if not pool:
            continue
        i, j, k = rng.choice(pool), rng.choice(pool), rng.randrange(r)
        delta = -1 if data.n_tensor[i][j][k] and rng.random() < 0.5 else 1
        out.append(mutate_tensor(data, i, j, k, delta))
    return out


def with_dual(data, dual):
    return fr.FusionData(
        labels=data.labels,
        n_tensor=data.n_tensor,
        dual=dual,
        eps=data.eps,
        endo_degree=data.endo_degree,
        unit=data.unit,
    )


def assert_checks_match_dense(data):
    assert list(fr.check_structural(data).violations) == dense_structural(data)
    assert list(fr.check_transitivity(data).violations) == dense_transitivity(data)
    if data.is_fusion:
        assert list(fr.check_eps_consistency(data).violations) == dense_eps_consistency(data)


def differential_cases(data, seed):
    """data, its perturbations, and data with a seeded map for a dual, which
    is rarely an involution and often not injective."""
    rng = random.Random(seed)
    dual = tuple(rng.randrange(data.rank) for _ in range(data.rank))
    return [data, *perturbations(data, seed), with_dual(data, dual)]


GENERATED = {
    **{f"z{n}": (lambda n=n: cyclic(n)) for n in range(2, 13)},
    **{
        f"z{m}xz{k}": (lambda m=m, k=k: tensor_product(cyclic(m), cyclic(k)))
        for m, k in ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (4, 3))
    },
    **{f"su2_{k}": (lambda k=k: su2(k)) for k in range(1, 12)},
}


@pytest.mark.parametrize("name", ALL_NAMES)
def test_checks_match_dense_references_on_builtins(name):
    for data in differential_cases(fusion_data(name), f"dense:{name}"):
        assert_checks_match_dense(data)


@pytest.mark.parametrize("name", list(GENERATED))
def test_checks_match_dense_references_on_generated_rings(name):
    data = GENERATED[name]()
    assert data.rank <= 12
    for case in differential_cases(data, f"dense:{name}"):
        assert_checks_match_dense(case)


def test_differential_perturbations_reach_the_fallback():
    # perturbations that keep the unit law but break associativity: there
    # Light's test finds a failing triple and the full loop reports
    rings = {name: fusion_data(name) for name in ALL_NAMES}
    rings.update((name, make()) for name, make in GENERATED.items())
    rules = [
        {v.rule for v in fr.check_structural(data).violations}
        for name, ring in rings.items()
        for data in perturbations(ring, f"dense:{name}")[:2]
    ]
    assert sum("associativity" in r and "unit_law" not in r for r in rules) >= 60


def test_eps_consistency_reads_dual_preimages():
    # vec_z3 with both non-unit simples sent to g1: g2 is nobody's dual, and
    # g1 is the dual of two simples
    data = with_dual(fusion_data("vec_z3"), (0, 1, 1))
    got = list(fr.check_eps_consistency(data).violations)
    assert got == dense_eps_consistency(data) and got


def test_structural_detects_broken_associativity():
    # rep_r_q8 with one h*h multiplicity bumped breaks associativity
    data = mutate_tensor(fusion_data("rep_r_q8"), 4, 4, 1, 1)
    report = fr.check_structural(data)
    assert not report.passed
    assert any(v.rule == "associativity" for v in report.violations)


def test_structural_detects_non_involutive_dual():
    base = fusion_data("vec_z3")
    broken = fr.FusionData(
        labels=base.labels,
        n_tensor=base.n_tensor,
        dual=(1, 2, 0),  # a 3-cycle is not an involution
        eps=base.eps,
        endo_degree=1,
        unit=(0,),
    )
    report = fr.check_structural(broken)
    assert not report.passed
    assert any(v.rule == "dual_involution" for v in report.violations)


def test_structural_detects_wrong_self_dual_marks():
    base = fusion_data("vec_z3")
    broken = fr.FusionData(
        labels=base.labels,
        n_tensor=base.n_tensor,
        dual=(0, 1, 2),  # involutive, but g*g contains no unit
        eps=base.eps,
        endo_degree=1,
        unit=(0,),
    )
    report = fr.check_structural(broken)
    assert not report.passed
    assert any(v.rule == "duality" for v in report.violations)


def test_eps_consistency_requires_split_unit():
    base = fusion_data("vec_z2")
    wrong = fr.FusionData(
        labels=base.labels,
        n_tensor=base.n_tensor,
        dual=base.dual,
        eps=(2, 1),  # the unit must have eps = 1
        endo_degree=1,
        unit=(0,),
    )
    report = fr.check_eps_consistency(wrong)
    assert not report.passed
    assert any(v.rule == "eps_unit_pairing" and v.witness == (0,) for v in report.violations)


def test_checks_pass_on_generated_cyclic_group_rings():
    for n in range(2, 9):
        labels = tuple("1" if i == 0 else f"g{i}" for i in range(n))
        table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        data = fr.vec_group(labels, table)
        assert fr.check_structural(data).passed
        assert fr.check_eps_consistency(data).passed
        assert fr.check_transitivity(data).passed
        assert fr.fpdim_category(data).value == n


def test_eps_consistency_needs_matching_eps():
    base = fusion_data("rep_f2_z3")
    wrong = fr.FusionData(
        labels=base.labels,
        n_tensor=base.n_tensor,
        dual=base.dual,
        eps=(1, 1),  # N[v][v][1] = 2 forces eps_v = 2
        endo_degree=1,
        unit=(0,),
    )
    report = fr.check_eps_consistency(wrong)
    assert not report.passed
    assert any(v.rule == "eps_unit_pairing" for v in report.violations)


def _idempotent_two_simple_data():
    # 1 and e with e*e = e: the unit never appears in any product with e
    return fr.FusionData(
        labels=("1", "e"),
        n_tensor=(((1, 0), (0, 1)), ((0, 1), (0, 1))),
        dual=(0, 1),
        eps=(1, 1),
        endo_degree=1,
        unit=(0,),
    )


def test_transitivity_failure_reported():
    report = fr.check_transitivity(_idempotent_two_simple_data())
    assert not report.passed
    pairs = {v.witness for v in report.violations}
    assert (1, 0) in pairs  # no u with 1 <= u*e


def test_structural_transitive_consequence():
    # data passing the duality axiom is automatically transitive:
    # y <= (y*dual(x))*x because x*dual(x) dominates the unit
    for name in FUSION_NAMES:
        data = fusion_data(name)
        if fr.check_structural(data).passed:
            assert fr.check_transitivity(data).passed


def _rank3_rings():
    """Every rank-3 ring on 1, a, b with unit 1 and the twelve coefficients of
    a*a, a*b, b*a, b*b in {0, 1}, under both involutions that fix the unit."""
    unit_row = [[int(j == k) for k in range(3)] for j in range(3)]
    for entries in itertools.product((0, 1), repeat=12):
        tensor = [unit_row] + [
            [unit_row[i], list(entries[6 * i - 6:6 * i - 3]), list(entries[6 * i - 3:6 * i])]
            for i in (1, 2)
        ]
        for dual in ((0, 1, 2), (0, 2, 1)):
            yield fr.FusionData(("1", "a", "b"), n_tensor=tensor, dual=dual, eps=(1, 1, 1),
                                endo_degree=1, unit=(0,))


def test_structural_rings_are_transitive():
    # x*dual(x) contains the unit, so y <= (y*dual(x))*x and y <= x*(dual(x)*y):
    # every fusion ring that passes check_structural is transitive
    rank3 = [data for data in _rank3_rings() if fr.check_structural(data).passed]
    assert len(rank3) == 9
    rings = [fusion_data(name) for name in FUSION_NAMES]
    rings += [su2(k) for k in range(1, 6)] + [cyclic(n) for n in range(2, 7)]
    rings += [tambara_yamagami(n) for n in range(1, 5)]
    rings += [tensor_product(fusion_data("fib"), fusion_data("fib")),
              tensor_product(cyclic(2), su2(2))]
    rings += [relabelled(data, seed) for seed, data in enumerate(rings)]
    perturbed = [
        mutate_tensor(data, i, j, k, delta)
        for data in rings if data.rank <= 4
        for i, j, k in itertools.product(range(data.rank), repeat=3)
        for delta in (-1, 1) if data.n_tensor[i][j][k] + delta >= 0
    ]
    valid = [data for data in perturbed if data.is_fusion and fr.check_structural(data).passed]
    assert len(valid) >= 40
    for data in rank3 + rings + valid:
        assert fr.check_transitivity(data).passed, data


def test_idempotent_search_vec_z2():
    data = fusion_data("vec_z2")
    found = fr.search_idempotents_above_unit(data, 3)
    assert [p.coeffs for p in found] == [data.one().coeffs]


def test_idempotent_search_fib():
    data = fusion_data("fib")
    found = fr.search_idempotents_above_unit(data, 2)
    assert [p.coeffs for p in found] == [data.one().coeffs]


def test_idempotent_rejection_by_expansion():
    data = fusion_data("vec_z2")
    p = data.element({"1": 1, "g": 1})
    assert (p * p).coeffs == (2, 2) != p.coeffs


def test_idempotent_search_respects_budget():
    with pytest.raises(fr.ResourceLimitError):
        fr.search_idempotents_above_unit(fusion_data("vec_s3"), 30, max_candidates=1000)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_unit_is_the_only_idempotent(name):
    data = fusion_data(name)
    found = fr.search_idempotents_above_unit(data, 4)
    assert [p.coeffs for p in found] == [data.one().coeffs]


def test_reports_collect_multiple_violations():
    data = mutate_tensor(fusion_data("vec_z3"), 1, 1, 2, -1)  # g*g = 0
    report = fr.check_structural(data)
    assert len(report.violations) >= 2  # duality and associativity both break


def test_report_truth_is_whether_it_passed():
    assert fr.ValidationReport(True)
    assert fr.check_structural(fusion_data("fib"))
    failed = fr.ValidationReport.from_violations([fr.Violation("unit", (0,), "broken")])
    assert not failed and not fr.ValidationReport(False)
