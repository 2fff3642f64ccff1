"""Per-ring facts: the check_structural report and the Perron data are kept
on the FusionData they describe (FusionData._fact), not in module caches.

They are built on first use, read only by the ring's own later calls, left
out of equality, hashing and repr, and released with the ring.
"""

from __future__ import annotations

import gc
import weakref

import pytest

import fusionring as fr
from fusionring import fpengine, morphisms
from conftest import cyclic, fusion_data, relabelled, su2, tambara_yamagami


def _identity(data):
    r = data.rank
    matrix = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    return fr.SemiringMorphism(data, data, matrix)


def test_a_session_keeps_no_ring_alive():
    bases = (fusion_data("fib"), su2(2), cyclic(3), tambara_yamagami(3))
    refs = []
    for i in range(200):
        data = relabelled(bases[i % len(bases)], i)
        fpengine.perron_data(data)
        assert fr.verify_fpdim_transport(_identity(data)).passed
        refs.append(weakref.ref(data))
    del data
    # the one ring-keyed module cache left, read by the benchmark's tracer
    fpengine._is_transitive.cache_clear()
    gc.collect()
    assert sum(ref() is not None for ref in refs) == 0


def test_facts_stay_out_of_equality_hashing_and_repr():
    data, twin = relabelled(su2(3), 5), relabelled(su2(3), 5)
    shown = repr(data)
    assert fr.verify_fpdim_transport(_identity(data)).passed
    assert {"structural", "perron_data"} <= set(vars(data))
    assert not {"structural", "perron_data"} & set(vars(twin))
    assert data == twin and hash(data) == hash(twin)
    assert repr(data) == repr(twin) == shown


def test_structural_report_is_built_once_per_ring(monkeypatch):
    calls = []
    check = morphisms.check_structural

    def counting(data):
        calls.append(data)
        return check(data)

    monkeypatch.setattr(morphisms, "check_structural", counting)
    data = relabelled(fusion_data("fib"), 1)
    for _ in range(3):
        assert fr.verify_fpdim_transport(_identity(data)).passed
    assert len(calls) == 1
    assert fr.verify_fpdim_transport(_identity(relabelled(fusion_data("fib"), 1))).passed
    assert len(calls) == 2


def test_a_fact_whose_build_raises_is_not_kept():
    data = relabelled(fusion_data("fib"), 2)
    calls = []

    def build(d):
        calls.append(d)
        raise fr.NonTransitiveError("no fact")

    for _ in range(2):
        with pytest.raises(fr.NonTransitiveError, match="no fact"):
            data._fact("probe", build)
    assert len(calls) == 2 and "probe" not in vars(data)
