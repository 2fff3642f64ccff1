"""Fuzz of the CLI entry point and the morphism parser on mutated documents.

Each example takes the canonical JSON document of a builtin, applies a few
random edits below the root (shift an integer, replace a value, delete a
key or an item, add a key) and pipes the result through
run_command([cmd, "-"]).  Every run must end with exit 0, 1 or 2, never
with an exception.  Morphism documents are mutated the same way;
parse_morphism_file may refuse one only with a FusionError.  Derandomized,
so every run draws the same examples.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fusionring as fr
from fusionring.cli import run_command
from fusionring.fileformat import parse_morphism_file
from conftest import ALL_NAMES, fusion_data

COMMANDS = ("validate", "fpdim", "regular", "integrality", "center")

FUSION_DOCS = {name: json.loads(fr.emit_entry(fr.get_builtin(name))) for name in ALL_NAMES}


def _morphism_docs() -> list:
    z3, fib = fusion_data("vec_z3"), fusion_data("fib")
    morphisms = [
        fr.SemiringMorphism(fib, fib, ((1, 0), (0, 1))),
        fr.SemiringMorphism(z3, fusion_data("vec_r"), ((1, 1, 1),)),
        fr.SemiringMorphism(z3, z3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), twist=z3.one()),
    ]
    return [json.loads(fr.emit_morphism_file(f)) for f in morphisms]


MORPHISM_DOCS = _morphism_docs()

def fuzz(examples: int):
    return settings(
        max_examples=examples,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )

JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 5),
    st.sampled_from([2**64, -(2**31), 0.5, 1.0, float("nan")]),
    st.sampled_from(["", "1", "x", "g", "trivial", "R", "C", "H", "a|b", "1|1", "morphism"]),
)
JSON_VALUES = st.one_of(
    JSON_SCALARS,
    st.lists(JSON_SCALARS, max_size=2),
    st.dictionaries(st.sampled_from(["1", "x", "label", "group_element"]), JSON_SCALARS, max_size=2),
)


def _paths(node, path=()):
    """Every path (tuple of keys and indices) into a JSON tree, the root's
    () first."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _mutated(draw, doc):
    """A deep copy of doc with one or two random edits."""
    doc = json.loads(json.dumps(doc))
    rng = draw(st.randoms(use_true_random=False))  # uniform over the paths
    for _ in range(draw(st.integers(1, 2))):
        path = rng.choice(list(_paths(doc))[1:])
        value = draw(JSON_VALUES)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        edit = draw(st.sampled_from(("shift", "shift", "replace", "delete", "add")))
        target = parent[path[-1]]
        if edit == "shift" and type(target) is int:  # keeps the schema, mostly
            parent[path[-1]] = target + draw(st.integers(-2, 2))
        elif edit in ("shift", "replace"):
            parent[path[-1]] = value
        elif edit == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(["x", "extra", "unit", "twist", "group"]))] = value
        else:
            parent.append(value)
    return doc


@contextlib.contextmanager
def _piped(text: str):
    """stdin reads text; stdout and stderr are swallowed."""
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            yield
    finally:
        sys.stdin = stdin


@fuzz(300)
@given(st.data())
def test_mutated_fusion_documents_end_in_an_exit_code(data):
    doc = _mutated(data.draw, FUSION_DOCS[data.draw(st.sampled_from(ALL_NAMES))])
    command = data.draw(st.sampled_from(COMMANDS))
    with _piped(json.dumps(doc)):
        code = run_command([command, "-"])
    assert code in (0, 1, 2)


@fuzz(150)
@given(st.data())
def test_mutated_morphism_documents_parse_or_raise_fusion_errors(data):
    doc = _mutated(data.draw, data.draw(st.sampled_from(MORPHISM_DOCS)))
    try:
        parse_morphism_file(json.dumps(doc))
    except fr.FusionError:
        pass
