"""check_structural and check_eps_consistency decide first with fast checks
on the stored product rows and fall back to their exhaustive loops.  Their
reports (rules, witnesses, messages, order) must be the ones conftest's
oracles, the loops without the fast checks, give; _light_generators must
return the oracle's generator set.  The CLI's validate and
fpengine.ensure_fpdim_ready read transitivity off a passed structural
report."""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

import pytest

import fusionring as fr
from fusionring import cli, fpengine
from fusionring.cli import _decimal_str, run_command
from fusionring.validate import _light_generators, _light_holds
from conftest import (
    ALL_NAMES,
    cyclic,
    eps_consistency_oracle,
    fusion_data,
    light_generators_oracle,
    relabelled,
    structural_oracle,
    su2,
    tambara_yamagami,
    tensor_product,
)


def _fib_power(k: int) -> fr.FusionData:
    data = fusion_data("fib")
    for _ in range(k - 1):
        data = tensor_product(data, fusion_data("fib"))
    return data


def scaled_idempotent(c: int) -> fr.FusionData:
    """1 and x with x*x = c x: associative, and x*x is a single term with
    coefficient c (not a fusion ring for c != 1: x*x holds no unit)."""
    return fr.FusionData(
        labels=("1", "x"),
        products=((((0, 1),), ((1, 1),)), (((1, 1),), ((1, c),))),
        dual=(0, 1),
        eps=(1, 1),
        endo_degree=1,
        unit=(0,),
    )


def direct_sum(a: fr.FusionData, b: fr.FusionData) -> fr.FusionData:
    """a + b, a multifusion ring whose unit has the summands of both."""
    r = a.rank
    products = [plane + ((),) * b.rank for plane in a.products] + [
        ((),) * r + tuple(tuple((k + r, m) for k, m in row) for row in plane)
        for plane in b.products
    ]
    return fr.FusionData(
        labels=tuple(f"{x}.a" for x in a.labels) + tuple(f"{x}.b" for x in b.labels),
        products=tuple(products),
        dual=a.dual + tuple(d + r for d in b.dual),
        eps=a.eps + b.eps,
        endo_degree=a.endo_degree,
        unit=a.unit + tuple(u + r for u in b.unit),
    )


def with_unit(data: fr.FusionData, unit: tuple[int, ...]) -> fr.FusionData:
    return fr.FusionData(
        labels=data.labels,
        products=data.products,
        dual=data.dual,
        eps=data.eps,
        endo_degree=data.endo_degree,
        unit=unit,
    )


RINGS = {
    **{name: (lambda name=name: fusion_data(name)) for name in ALL_NAMES},
    **{f"su2_{k}": (lambda k=k: su2(k)) for k in range(1, 10)},
    **{f"z{n}": (lambda n=n: cyclic(n)) for n in range(2, 21)},
    **{f"ty{n}": (lambda n=n: tambara_yamagami(n)) for n in range(1, 12)},
    **{f"fib^{k}": (lambda k=k: _fib_power(k)) for k in range(1, 4)},
    # the group products of the cli-pointed workload
    **{
        f"z{m}xz{k}": (lambda m=m, k=k: tensor_product(cyclic(m), cyclic(k)))
        for m, k in ((2, 4), (2, 6), (3, 4), (3, 5), (2, 8), (4, 4))
    },
    **{f"s3xz{n}": (lambda n=n: tensor_product(fusion_data("vec_s3"), cyclic(n))) for n in (2, 3)},
    # single-term products whose two sides carry different scalars c != d
    "x2x": lambda: scaled_idempotent(2),
    "x2x.x3x": lambda: tensor_product(scaled_idempotent(2), scaled_idempotent(3)),
    "x3x.z3": lambda: tensor_product(scaled_idempotent(3), cyclic(3)),
    # two unit summands, and a unit summand of multiplicity 2, where the
    # unit law is read off the dicts, not off one stored row
    "z2+z3": lambda: direct_sum(cyclic(2), cyclic(3)),
    "fib+z2": lambda: direct_sum(fusion_data("fib"), cyclic(2)),
    "z3 unit twice": lambda: with_unit(cyclic(3), (0, 0)),
    "z2+z2 unit twice": lambda: with_unit(direct_sum(cyclic(2), cyclic(2)), (0, 0, 2)),
}
SMALL = [name for name, make in RINGS.items() if make().rank <= 4]


def assert_matches_oracles(data: fr.FusionData) -> None:
    assert fr.check_structural(data) == structural_oracle(data)
    assert _light_generators(data) == light_generators_oracle(data)
    if data.is_fusion:
        assert fr.check_eps_consistency(data) == eps_consistency_oracle(data)


def single_entry_perturbations(data: fr.FusionData):
    """Every copy of data with one multiplicity moved by +-1, kept >= 0."""
    for i, j, k in itertools.product(range(data.rank), repeat=3):
        row = dict(data.products[i][j])
        for delta in (-1, 1):
            if row.get(k, 0) + delta < 0:
                continue
            changed = {**row, k: row.get(k, 0) + delta}
            products = [list(plane) for plane in data.products]
            products[i][j] = tuple(sorted((l, m) for l, m in changed.items() if m))
            yield fr.FusionData(
                labels=data.labels,
                products=tuple(map(tuple, products)),
                dual=data.dual,
                eps=data.eps,
                endo_degree=data.endo_degree,
                unit=data.unit,
            )


@pytest.mark.parametrize("name", list(RINGS))
def test_reports_match_the_oracles(name):
    data = RINGS[name]()
    for case in (data, relabelled(data, name)):
        assert_matches_oracles(case)


@pytest.mark.parametrize("name", SMALL)
def test_reports_match_the_oracles_on_every_single_entry_perturbation(name):
    data = RINGS[name]()
    for case in (data, relabelled(data, name)):
        for perturbed in single_entry_perturbations(case):
            assert_matches_oracles(perturbed)


def random_ring(rng: random.Random) -> fr.FusionData:
    """Random products with multiplicities up to 3, mostly single terms, on
    rank 2..5; most keep the unit law, so Light's test runs and compares
    single-term sides whose scalars differ."""
    r = rng.randint(2, 5)
    unit = rng.choice(((0,), (0,), (0,), (0, 1), (0, 0)))
    keep_unit_law = unit == (0,) and rng.random() < 0.8
    products = []
    for i in range(r):
        plane = []
        for j in range(r):
            if keep_unit_law and 0 in (i, j):
                plane.append(((i + j, 1),))
                continue
            terms = rng.sample(range(r), rng.choice((0, 1, 1, 1, 1, 2)))
            plane.append(tuple(sorted((k, rng.randint(1, 3)) for k in terms)))
        products.append(tuple(plane))
    if rng.random() < 0.8:
        dual = list(range(r))
        rest = list(range(1, r))
        rng.shuffle(rest)
        for a, b in zip(rest[::2], rest[1::2]):
            dual[a], dual[b] = b, a
    else:
        dual = [rng.randrange(r) for _ in range(r)]
    return fr.FusionData(
        labels=tuple(f"s{i}" for i in range(r)),
        products=tuple(products),
        dual=dual,
        eps=[rng.choice((1, 1, 2)) for _ in range(r)],
        endo_degree=rng.choice((1, 2)),
        unit=unit,
    )


def test_reports_match_the_oracles_on_random_tensors():
    rng = random.Random(2021)
    scaled = 0
    for _ in range(1500):
        data = random_ring(rng)
        assert_matches_oracles(data)
        p = data.products
        scaled += any(
            len(p[x][a]) == 1 == len(p[a][y]) and p[x][a][0][1] != p[a][y][0][1]
            for a in _light_generators(data)
            for x, y in itertools.product(range(data.rank), repeat=2)
        )
    assert scaled >= 500


def test_scaled_single_terms_pass_light():
    # x = x.x, a = x.1, y = 1.x: x*a = 2 x.x and a*y = 1 x.x, so the sides
    # are 2 (x.x)*(1.x) = 6 x.x and 1 (x.1)*(x.x) = 6 x.x, equal vectors
    # from the unequal stored rows ((x.x, 3),) and ((x.x, 2),)
    data = RINGS["x2x.x3x"]()
    x, a, y = (data.labels.index(label) for label in ("x.x", "x.1", "1.x"))
    assert data.products[x][a] == ((x, 2),) and data.products[a][y] == ((x, 1),)
    assert data.products[x][y] == ((x, 3),) and data.products[x][x] == ((x, 6),)
    generators = _light_generators(data)
    assert a in generators
    assert _light_holds(data.products, generators)
    assert not any(v.rule == "associativity" for v in fr.check_structural(data).violations)


def _write(tmp_path, data: fr.FusionData) -> str:
    path = tmp_path / "ring.json"
    path.write_text(fr.emit_fusion_file(data, name="ring"))
    return str(path)


def test_validate_lists_transitivity_when_structural_checks_fail(capsys, tmp_path):
    # 1 and e with e*e = e: the duality axiom fails and nothing reaches 1 from e
    data = fr.FusionData(
        labels=("1", "e"),
        products=((((0, 1),), ((1, 1),)), (((1, 1),), ((1, 1),))),
        dual=(0, 1),
        eps=(1, 1),
        endo_degree=1,
        unit=(0,),
    )
    assert run_command(["validate", _write(tmp_path, data), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"] == ["structural", "eps_consistency", "transitivity"]
    rules = [v["rule"] for v in doc["violations"]]
    assert "duality" in rules
    expected = [
        {"rule": v.rule, "witness": list(v.witness), "message": v.message}
        for v in fr.check_transitivity(data).violations
    ]
    assert expected
    assert [v for v in doc["violations"] if v["rule"] == "transitivity"] == expected


def test_validate_reads_transitivity_off_a_passed_structural_report(capsys, monkeypatch):
    monkeypatch.setattr(cli, "check_transitivity", lambda data: pytest.fail("ran transitivity"))
    assert run_command(["validate", "rep_r_q8", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"] == ["structural", "eps_consistency", "transitivity"]


def test_ensure_fpdim_ready_reads_the_kept_structural_report(monkeypatch):
    data = tambara_yamagami(5)
    fpengine.ensure_fpdim_ready(data)
    assert data._kept("structural") is None  # read, never built
    data._fact("structural", fr.check_structural)
    monkeypatch.setattr(fpengine, "_is_transitive", lambda data: pytest.fail("hashed the ring"))
    fpengine.ensure_fpdim_ready(data)


def test_ensure_fpdim_ready_still_refuses_non_transitive_data():
    data = fr.FusionData(
        labels=("1", "e"),
        products=((((0, 1),), ((1, 1),)), (((1, 1),), ((1, 1),))),
        dual=(0, 1),
        eps=(1, 1),
        endo_degree=1,
        unit=(0,),
    )
    data._fact("structural", fr.check_structural)
    with pytest.raises(fr.NonTransitiveError):
        fpengine.ensure_fpdim_ready(data)


def _decimal_str_oracle(q, places: int = 15) -> str:
    """cli._decimal_str as it was, with q * 10**places formed twice."""
    sign = "-" if q < 0 else ""
    q = abs(q)
    digits = (q * 10**places).numerator // (q * 10**places).denominator
    int_part, frac_part = divmod(digits, 10**places)
    tail = str(frac_part).zfill(places).rstrip("0")
    return f"{sign}{int_part}.{tail}" if tail else f"{sign}{int_part}"


def test_decimal_str_matches_the_old_expression():
    rng = random.Random(1024)
    values = [0, Fraction(0), 7, -7, Fraction(-1, 3), Fraction(10**20 + 1, 10**5), Fraction(1, 10**16)]
    for _ in range(300):
        # midpoints of 2^-1024-wide cells, as refined intervals print them
        lo = Fraction(rng.randrange(-(2**1030), 2**1030), 2**1024)
        values += [lo + Fraction(1, 2**1025), -(lo + Fraction(1, 2**1025))]
        values.append(Fraction(rng.randrange(-(10**9), 10**9), rng.randrange(1, 10**9)))
    for q in values:
        for places in (0, 1, 15, 40):
            assert _decimal_str(q, places) == _decimal_str_oracle(q, places)
