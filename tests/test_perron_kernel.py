"""The integer Perron-field kernel against the Fraction oracles in conftest.

perron_data keeps the regular element unnormalised in Z[mu]/(m) and the
checks decide homogeneous integer identities; the oracles normalise
R_unit = 1 over Fractions first.  Verdicts and violation lists (rule,
witness, message) must agree exactly, and so must the (m, R) view.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

import fusionring as fr
from fusionring import fpengine, morphisms
from fusionring.cli import run_command
from fusionring.errors import FusionError
from fusionring.morphisms import SemiringMorphism
from fusionring.poly import RationalPolynomial
from conftest import (
    CC_BIM_DOUBLED,
    FUSION_NAMES,
    cyclic,
    eigenproperty_oracle,
    fusion_data,
    mutate_tensor,
    perron_vector_oracle,
    su2,
    tensor_product,
)


def _with_eps(data, eps):
    return fr.FusionData(
        labels=data.labels,
        n_tensor=data.n_tensor,
        dual=data.dual,
        eps=eps,
        endo_degree=data.endo_degree,
        unit=data.unit,
    )


def _rings():
    rings = {name: fusion_data(name) for name in FUSION_NAMES}
    rings.update({f"su2_{k}": su2(k) for k in range(1, 11)})
    fib = fusion_data("fib")
    rings["fib.fib"] = tensor_product(fib, fib)
    rings["su2_2.fib"] = tensor_product(su2(2), fib)
    rings["rep_f2_z3.fib"] = tensor_product(fusion_data("rep_f2_z3"), fib)
    rings["rep_r_q8.vec_z3"] = tensor_product(fusion_data("rep_r_q8"), fusion_data("vec_z3"))
    return rings


RINGS = _rings()


def _eps_doubled():
    for name, data in RINGS.items():
        for x in {0, data.rank // 2, data.rank - 1}:
            eps = tuple(2 * e if i == x else e for i, e in enumerate(data.eps))
            yield pytest.param(_with_eps(data, eps), id=f"{name}-eps{x}")


def _perturbed():
    """+-1 on a few product multiplicities of each ring, with a fixed seed."""
    rng = random.Random(2718)
    for name, data in RINGS.items():
        if data.rank > 6:
            continue
        r = data.rank
        for _ in range(4):
            i, j, k = rng.randrange(r), rng.randrange(r), rng.randrange(r)
            delta = rng.choice((-1, 1))
            try:
                broken = mutate_tensor(data, i, j, k, delta)
            except ValueError:
                broken = mutate_tensor(data, i, j, k, 1)
            yield pytest.param(broken, id=f"{name}-N{i}{j}{k}{delta:+d}")


def _outcome(check, data):
    """The result of check: a report as its (rule, witness, message) list,
    or the error it raised."""
    try:
        result = check(data)
    except FusionError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, fr.ValidationReport):
        return [(v.rule, v.witness, v.message) for v in result.violations]
    return result


CASES = [pytest.param(data, id=name) for name, data in RINGS.items()]
CASES += list(_eps_doubled()) + list(_perturbed())


@pytest.mark.parametrize("data", CASES)
def test_eigenproperty_matches_fraction_oracle(data):
    assert _outcome(fr.verify_regular_eigenproperty, data) == _outcome(
        eigenproperty_oracle, data
    )


@pytest.mark.parametrize("data", CASES)
def test_perron_vector_view_matches_fraction_oracle(data):
    assert _outcome(fpengine.perron_vector, data) == _outcome(perron_vector_oracle, data)


def test_eigenproperty_catches_perturbations():
    # the oracle comparison above means something only if some cases fail
    failing = [
        p for p in _perturbed() if _outcome(fr.verify_regular_eigenproperty, p.values[0])
    ]
    assert len(failing) >= 10


def test_perron_data_is_integral_and_monic():
    m, w = fpengine.perron_data(fusion_data("fib"))
    assert m[-1] == 1 and all(type(c) is int for c in m)
    assert all(len(c) == len(m) - 1 and all(type(a) is int for a in c) for c in w)


def _fresh(data):
    """A new FusionData equal to data, carrying none of its per-ring facts."""
    return fr.FusionData(
        labels=data.labels,
        products=data.products,
        dual=data.dual,
        eps=data.eps,
        endo_degree=data.endo_degree,
        unit=data.unit,
    )


def test_transport_builds_perron_data_once(monkeypatch):
    # perron_data is built by the one char_poly of L_t, t = sum of simples
    data = su2(8)
    l_t = fpengine.left_mult_matrix_from_coeffs(data, [1] * data.rank)
    builds = []
    char_poly = fpengine.char_poly

    def counting(matrix):
        if matrix == l_t:
            builds.append(matrix)
        return char_poly(matrix)

    monkeypatch.setattr(fpengine, "char_poly", counting)
    identity = tuple(tuple(int(i == j) for j in range(data.rank)) for i in range(data.rank))
    assert fr.verify_fpdim_transport(SemiringMorphism(data, data, identity)).passed
    assert fr.verify_regular_eigenproperty(data).passed
    assert len(builds) == 1
    # the facts live on the ring object: an equal, fresh one builds its own
    copy = _fresh(data)
    assert copy == data and hash(copy) == hash(data)
    assert fr.verify_regular_eigenproperty(copy).passed
    assert len(builds) == 2


def test_waiver_stays_outside_the_cache():
    # 1 * g = 0: not transitive, so perron_data refuses it on every call and
    # keeps no Perron data on the ring
    broken = mutate_tensor(fusion_data("vec_z2"), 0, 1, 1, -1)
    assert not fr.check_transitivity(broken).passed
    for _ in range(2):
        with pytest.raises(fr.NonTransitiveError, match="not transitive"):
            fpengine.perron_data(broken)
        assert "perron_data" not in vars(broken)


def test_perron_data_takes_integer_line_sums_without_isolating(monkeypatch):
    # L_t of a group ring, of rep_r_q8 and of rep_r_q8 (x) Z/3 has constant
    # row sums, so mu is that integer and m = t - mu; fib's has not
    rings = [fusion_data(n) for n in ("vec_z2", "vec_z3", "vec_s3", "rep_r_q8")]
    rings += [cyclic(12), RINGS["rep_r_q8.vec_z3"]]
    expected = [perron_vector_oracle(data) for data in rings]

    def no_isolation(*args, **kwargs):
        raise AssertionError("isolate_max_real_root called")

    monkeypatch.setattr(fpengine, "isolate_max_real_root", no_isolation)
    # fresh, equal rings, so that no Perron data built by another test is read
    for data, (m, reg) in zip(rings, expected):
        assert fpengine.perron_vector(_fresh(data)) == (m, reg) and m.degree == 1
    with pytest.raises(AssertionError, match="isolate_max_real_root called"):
        fpengine.perron_data(_fresh(fusion_data("fib")))


def test_fpdim_is_not_eps_times_the_perron_vector_on_eps_inconsistent_data(tmp_path, capsys):
    # guards the formula FPdim(x) = eps_x W_x / W_unit: it holds only on
    # eps-consistent data, so min polys taken from it would change output here
    data = CC_BIM_DOUBLED
    assert fr.check_structural(data).passed and fr.check_transitivity(data).passed
    assert not fr.check_eps_consistency(data).passed
    fpdim_c = fr.fpdim_element(data.basis("c"))
    assert fr.min_poly(fpdim_c).coeffs == (-2, 0, 1) and 1.41 < float(fpdim_c) < 1.42
    path = tmp_path / "cc_bim~1.json"
    path.write_text(fr.emit_fusion_file(data, name="cc_bim~1"))
    assert run_command(["fpdim", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["elements"]["c"]["min_poly"] == [-2, 0, 1]
    assert not fr.verify_regular_eigenproperty(data).passed
    # mu = FPdim(1 + c) = 1 + sqrt 2, so sqrt 2 = mu - 1 in K = Q(mu)
    sqrt2 = RationalPolynomial((-1, 1))
    m, reg = fpengine.perron_vector(data)
    assert m == RationalPolynomial((-1, -2, 1))
    assert reg[1].scale(data.eps[1]) == sqrt2.scale(Fraction(1, 2))
    # the eps-free eigenvalue (c W)_unit / W_unit is FPdim(c)
    _, w = fpengine.perron_data(data)
    inverse = fpengine._field_inverse(RationalPolynomial(w[0]), m)
    assert (RationalPolynomial(morphisms._fpdims(data, w)[1]) * inverse) % m == sqrt2
