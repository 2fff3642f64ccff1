"""Certified semiring elements and the pruned idempotent search against the
plain loops in conftest.

Elements the library computes from checked inputs skip the constructor's
checks, the idempotent search prunes by partial sums of p*p, the
homomorphism check forms each basis image once, the Galois-trivial subring
is built unchecked, and cli._load opens a file once.  Each must give what
the plain loop gives: the same elements in the same order, the same
violations, the same data, the same messages.
"""

from __future__ import annotations

import os
import random

import pytest

import fusionring as fr
from fusionring import cli
from fusionring.errors import FusionError
from fusionring.fileformat import emit_fusion_file
from conftest import (
    ALL_NAMES,
    FUSION_NAMES,
    cyclic,
    fusion_data,
    galois_product,
    galois_trivial_subring_oracle,
    homomorphism_oracle,
    idempotents_oracle,
    load_oracle,
    su2,
    tambara_yamagami,
)


def _families():
    rings = {name: fusion_data(name) for name in ALL_NAMES}
    rings.update({f"su2_{k}": su2(k) for k in range(1, 6)})
    rings.update({f"ty_z{n}": tambara_yamagami(n) for n in range(1, 5)})
    rings.update({f"z{n}": cyclic(n) for n in range(1, 7)})
    return rings


FAMILIES = _families()


def _random_ring(rng: random.Random) -> fr.FusionData:
    """A random nonnegative tensor of rank 1-4 and random sparsity, with a
    random dual map and a unit of one to three summands, repeats allowed.
    Every other ring makes its distinct unit summands orthogonal
    idempotents, so that the unit, and often more, is idempotent."""
    r = rng.randint(1, 4)
    entries = (0,) * rng.randint(2, 16) + (1, 1, 2, 3)
    tensor = [[[rng.choice(entries) for _ in range(r)] for _ in range(r)] for _ in range(r)]
    unit = [rng.randrange(r) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        unit = sorted(set(unit))
        for u in unit:
            for v in unit:
                tensor[u][v] = [int(u == v == k) for k in range(r)]
    return fr.FusionData(
        labels=[f"s{i}" for i in range(r)],
        n_tensor=tensor,
        dual=[rng.randrange(r) for _ in range(r)],
        eps=(1,) * r,
        endo_degree=1,
        unit=unit,
    )


RANDOM_RINGS = [_random_ring(random.Random(f"idempotents:{seed}")) for seed in range(320)]


def _as_lists(found):
    return [(p.data, p.coeffs) for p in found]


def _box(data: fr.FusionData, bound: int) -> int:
    total = 1
    for c in data.one().coeffs:
        total *= max(bound - c + 1, 0) if c <= bound else 0
    return total


def _search_or_error(search, data, bound, budget=2_000_000):
    try:
        return _as_lists(search(data, bound, budget))
    except (FusionError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("bound", [1, 2, 3])
@pytest.mark.parametrize("name", list(FAMILIES))
def test_pruned_search_matches_product_loop_on_families(name, bound):
    data = FAMILIES[name]
    found = fr.search_idempotents_above_unit(data, bound)
    assert _as_lists(found) == _as_lists(idempotents_oracle(data, bound))


def test_pruned_search_matches_product_loop_on_random_tensors():
    rings = [data for data in RANDOM_RINGS if len(data.unit) > 1]
    assert len(rings) >= 150  # multi-summand units, some with a repeated summand
    sizes = []
    for data in RANDOM_RINGS:
        for bound in (1, 2, 3):
            found = fr.search_idempotents_above_unit(data, bound)
            assert _as_lists(found) == _as_lists(idempotents_oracle(data, bound))
            sizes.append(len(found))
    # the comparison means something only if searches find idempotents,
    # some more than one
    assert sum(n > 0 for n in sizes) >= 300 and sum(n > 1 for n in sizes) >= 5


def test_pruned_search_finds_non_unit_idempotents():
    # m2_vec has two unit summands 1_a, 1_b, each idempotent on its own,
    # though only their sum lies above the unit; rank 1 with x*x = 2x has
    # no idempotent but 0, which is not above the unit
    data = fusion_data("m2_vec")
    assert [p.coeffs for p in fr.search_idempotents_above_unit(data, 3)] == [data.one().coeffs]
    doubling = fr.FusionData(
        labels=("x",), n_tensor=(((2,),),), dual=(0,), eps=(1,), endo_degree=1, unit=(0,)
    )
    assert fr.search_idempotents_above_unit(doubling, 3) == []


@pytest.mark.parametrize("data", [fusion_data("vec_z2"), fusion_data("m2_vec"), RANDOM_RINGS[0]])
def test_pruned_search_empty_ranges(data):
    # a unit summand counted twice needs coefficient 2 > bound 1: empty box
    doubled = fr.FusionData(
        labels=data.labels,
        products=data.products,
        dual=data.dual,
        eps=data.eps,
        endo_degree=data.endo_degree,
        unit=data.unit + data.unit[:1],
    )
    assert _box(doubled, 1) == 0
    assert fr.search_idempotents_above_unit(doubled, 1) == idempotents_oracle(doubled, 1) == []
    for bound in (0, -1):
        assert _search_or_error(fr.search_idempotents_above_unit, doubled, bound) == (
            _search_or_error(idempotents_oracle, doubled, bound)
        )


@pytest.mark.parametrize("name", ["vec_s3", "rep_r_q8", "m2_vec", "su2_5", "z6", "ty_z4"])
@pytest.mark.parametrize("bound", [1, 2, 3])
def test_pruned_search_budget_refusal_at_the_same_sizes(name, bound):
    data = FAMILIES[name]
    total = _box(data, bound)
    for budget in (total - 1, total):
        got = _search_or_error(fr.search_idempotents_above_unit, data, bound, budget)
        assert got == _search_or_error(idempotents_oracle, data, bound, budget)
        assert (got[0] == "ResourceLimitError") == (budget < total)


# ---------------------------------------------------------------------------
# certified elements


def _assert_validated(element: fr.MultisetElement) -> None:
    """element equals, and hashes as, the constructor's element on the same
    coefficients, which are a tuple of exact ints."""
    checked = fr.MultisetElement(element.data, list(element.coeffs))
    assert element == checked and hash(element) == hash(checked)
    assert type(element.coeffs) is tuple and all(type(c) is int for c in element.coeffs)
    assert len(element.coeffs) == element.data.rank and min(element.coeffs) >= 0


@pytest.mark.parametrize("name", list(FAMILIES))
def test_certified_elements_equal_validated_ones(name):
    data = FAMILIES[name]
    rng = random.Random(name)
    elements = [data.zero(), data.one(), *data.simples()]
    elements += [data.element([rng.randrange(3) for _ in range(data.rank)]) for _ in range(4)]
    for a in elements:
        _assert_validated(a)
        _assert_validated(fr.dual_element(a))
        for b in elements:
            _assert_validated(fr.multiply(a, b))
            _assert_validated(a + b)
            _assert_validated(fr.compare(a, b).intersection)
    for p in fr.search_idempotents_above_unit(data, 2):
        _assert_validated(p)
    if data.is_fusion:
        identity = [[int(i == j) for j in range(data.rank)] for i in range(data.rank)]
        f = fr.SemiringMorphism(data, data, identity)
        for a in elements:
            _assert_validated(f.apply(a))
            assert f.apply(a) == a


def test_public_constructor_keeps_its_checks():
    data = fusion_data("vec_z2")
    for coeffs in ((1,), (1, -1), (1, 0.5), (True, 0)):
        with pytest.raises(ValueError):
            fr.MultisetElement(data, coeffs)


# ---------------------------------------------------------------------------
# check_homomorphism


def _morphisms():
    """Broken, twisted and untwisted morphisms: identities, collapses and
    random matrices between small fusion builtins, some twisted."""
    rng = random.Random(1515)
    small = [fusion_data(n) for n in FUSION_NAMES if fusion_data(n).rank <= 3]
    out = []
    for data in [*small, su2(3), fusion_data("rep_r_q8")]:
        r = data.rank
        identity = [[int(i == j) for j in range(r)] for i in range(r)]
        out.append(fr.SemiringMorphism(data, data, identity))
    out.append(fr.SemiringMorphism(fusion_data("vec_z3"), fusion_data("vec_r"), ((1, 1, 1),)))
    for k in (2, 3, 4):
        data = su2(k)
        d = data.element({"j0": 1, "j2": 1})
        columns = [fr.multiply(x, d).coeffs for x in data.simples()]
        out.append(fr.SemiringMorphism(data, data, tuple(zip(*columns)), twist=d))
    for _ in range(60):
        src, tgt = rng.choice(small), rng.choice(small)
        matrix = [[rng.choice((0, 0, 1, 1, 2)) for _ in range(src.rank)] for _ in range(tgt.rank)]
        twist = None
        if rng.random() < 0.4:
            twist = src.element([rng.randrange(3) for _ in range(src.rank)])
        out.append(fr.SemiringMorphism(src, tgt, matrix, twist=twist))
    return out


MORPHISMS = _morphisms()


def test_check_homomorphism_matches_per_pair_loop():
    verdicts = set()
    for f in MORPHISMS:
        report = fr.check_homomorphism(f)
        assert list(report.violations) == homomorphism_oracle(f)
        assert report.passed == (not report.violations)
        verdicts.add((f.twist is None, report.passed))
    # untwisted and twisted morphisms, each passing and failing
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def test_morphism_refuses_bool_entries():
    fib = fusion_data("fib")
    for matrix in (((True, False), (False, True)), ((1, 0), (0, True))):
        with pytest.raises(ValueError, match="nonnegative integers"):
            fr.SemiringMorphism(fib, fib, matrix)
    assert fr.check_homomorphism(fr.SemiringMorphism(fib, fib, ((1, 0), (0, 1)))).passed


def test_bool_keys_are_labels():
    fib = fusion_data("fib")
    for key in (True, False):
        with pytest.raises(KeyError, match="unknown simple label"):
            fib.basis(key)
        with pytest.raises(KeyError, match="unknown simple label"):
            fr.is_invertible(fusion_data("vec_z2"), key)
    assert fib.basis(1) == fib.basis("x") and fib.basis(0) == fib.one()
    assert fr.is_invertible(fusion_data("vec_z2"), 1)


# ---------------------------------------------------------------------------
# galois_trivial_subring


def _reversed(data: fr.FusionData, annotation: fr.GaloisAnnotation):
    """The same annotated data on the reversed basis: the unit comes last,
    so the Galois-trivial simples are renumbered in the subring."""
    r = data.rank
    back = [r - 1 - i for i in range(r)]
    products = tuple(
        tuple(tuple(sorted((back[k], m) for k, m in data.products[a][b])) for b in back)
        for a in back
    )
    reversed_data = fr.FusionData(
        labels=data.labels[::-1],
        products=products,
        dual=tuple(back[data.dual[a]] for a in back),
        eps=data.eps[::-1],
        endo_degree=data.endo_degree,
        unit=tuple(back[u] for u in data.unit),
    )
    marks = annotation.marks[::-1]
    return reversed_data, fr.GaloisAnnotation(marks, annotation.group, annotation.center_degree)


def _annotated():
    cases = []
    for name in ALL_NAMES:
        entry = fr.get_builtin(name)
        if entry.annotation is None:
            continue
        cases.append((name, (entry.data, entry.annotation)))
        for b_name in ("fib", "vec_z2", "rep_f2_z3"):
            cases.append((f"{name}.{b_name}", galois_product(entry, fusion_data(b_name))))
        cases.append((f"{name}.su2_3", galois_product(entry, su2(3))))
    group = fr.get_builtin("gal7").annotation.group
    cases.append(("gal7-group", fr.from_galois_group(group, list(group.labels))))
    out = [pytest.param(*pair, id=name) for name, pair in cases]
    out += [pytest.param(*_reversed(*pair), id=f"{name}-reversed") for name, pair in cases]
    return out


@pytest.mark.parametrize("data,annotation", _annotated())
def test_galois_trivial_subring_equals_checked_construction(data, annotation):
    image = fr.galois_trivial_subring(data, annotation)
    expected = galois_trivial_subring_oracle(data, annotation)
    for field in ("labels", "products", "dual", "eps", "endo_degree", "unit"):
        assert getattr(image, field) == getattr(expected, field), field
    assert image == expected and hash(image) == hash(expected)
    assert image.n_tensor == expected.n_tensor
    assert fr.check_structural(image).passed == fr.check_structural(expected).passed


def test_reversed_bases_renumber_the_trivial_simples():
    # the comparison above means something only if some subring's simples
    # move to new indices
    moved = 0
    for param in _annotated():
        data, annotation = param.values
        trivial = [i for i in range(data.rank) if annotation.is_trivial(i)]
        moved += trivial != list(range(len(trivial)))
    assert moved >= 5


# ---------------------------------------------------------------------------
# cli._load


LOAD_MESSAGES = {
    "": "cannot read '': [Errno 21] Is a directory: '.'",
    "dir": "cannot read 'dir': [Errno 21] Is a directory: 'dir'",
    "dir/": "cannot read 'dir/': [Errno 21] Is a directory: 'dir'",
    "loop": "'loop' is neither a file, '-', nor a builtin fixture name",
    "dangling": "'dangling' is neither a file, '-', nor a builtin fixture name",
    "missing/ring.json": "'missing/ring.json' is neither a file, '-', nor a builtin fixture name",
    "ring\0.json": "'ring\\x00.json' is neither a file, '-', nor a builtin fixture name",
    "plain/ring.json": "'plain/ring.json' is neither a file, '-', nor a builtin fixture name",
    "bad.json": "cannot read 'bad.json': 'utf-8' codec can't decode byte 0xff in position 0: "
    "invalid start byte",
}


@pytest.fixture
def path_cases(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    os.mkdir("dir")
    os.symlink("loop", "loop")
    os.symlink("nowhere", "dangling")
    (tmp_path / "plain").write_text("x", encoding="utf-8")
    (tmp_path / "bad.json").write_bytes(b"\xff\xfe")
    (tmp_path / "fib").write_text(
        emit_fusion_file(fusion_data("vec_z2"), name="fib-file"), encoding="utf-8"
    )
    return tmp_path


def _load_outcome(load, arg):
    try:
        return load(arg)
    except FusionError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("arg", [*LOAD_MESSAGES, "fib", "./fib", "fib/", "vec_z3", "x" * 300])
def test_load_matches_stat_then_read(path_cases, arg):
    assert _load_outcome(cli._load, arg) == _load_outcome(load_oracle, arg)


def test_load_messages_and_exit_codes(path_cases, capsys):
    for arg, message in LOAD_MESSAGES.items():
        assert cli.run_command(["validate", arg]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
    # a file named like a builtin wins over the builtin
    assert cli.run_command(["validate", "fib", "--format", "json"]) == 0
    assert '"name": "fib-file"' in capsys.readouterr().out
    assert cli._load("vec_z3").data == fusion_data("vec_z3")
