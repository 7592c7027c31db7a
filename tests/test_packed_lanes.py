"""Packed-lane signatures against the per-value semantics, lane by lane.

The enumeration keeps a signature as one int with example ``i`` in lane
``i``; every packed operator must give, in each lane, exactly what
``bound_operators`` gives for that lane's values, and the two acceptance
predicates and the example mask of ``agreement`` must mean what they mean on
the per-example tuple.  No other module of the package may know the layout.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bvsynth
from bvsynth.enumeration import EnumerationState, lane_ones, pack, packed_operators, unpack
from bvsynth.frontend import Example, Problem
from bvsynth.semantics import OPERATORS, bound_operators

from helpers import bits_where, grammar_of

ENUMERABLE = sorted(name for name in OPERATORS if name != "if0")


def edge_values(width: int) -> list[int]:
    """Lane values at the edges: shift amounts around ``width``, the sign bit."""
    mask = (1 << width) - 1
    top = 1 << (width - 1)
    picks = {0, 1, 2, width - 1, width, width + 1, 16, top - 1, top, top + 1, mask - 1, mask}
    return sorted(v for v in picks if 0 <= v <= mask)


@st.composite
def lane_columns(draw):
    """(width, columns): three columns of equal length, one value per lane."""
    width = draw(st.integers(1, 64))
    n = draw(st.integers(1, 40))
    value = st.one_of(st.sampled_from(edge_values(width)), st.integers(0, (1 << width) - 1))
    columns = [draw(st.lists(value, min_size=n, max_size=n)) for _ in range(3)]
    return width, columns


def assert_lanewise(width: int, columns: list[list[int]]) -> None:
    n = len(columns[0])
    packed = packed_operators(width, lane_ones(width, n))
    per_value = bound_operators(width)
    assert set(packed) == set(ENUMERABLE)
    sigs = [pack(column, width) for column in columns]
    for column, sig in zip(columns, sigs):
        assert unpack(sig, width, n) == tuple(column)
    for name in ENUMERABLE:
        arity = OPERATORS[name]
        got = packed[name](*sigs[:arity])
        assert 0 <= got < 1 << (width * n), (name, width, n)
        want = tuple(map(per_value[name], *columns[:arity]))
        assert unpack(got, width, n) == want, (name, width, columns[:arity])


@settings(max_examples=200, deadline=None)
@given(lane_columns())
def test_packed_operators_match_per_value_semantics(case):
    assert_lanewise(*case)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 15, 16, 17, 31, 32, 63, 64])
def test_packed_operators_on_edge_lanes(width):
    # Every pair of edge values meets in some lane: shift amounts of
    # exactly ``width - 1``, ``width`` and more, shr16 below width 16, the
    # sign fill of bvashr, and carries and borrows out of every lane.
    edges = edge_values(width)
    pairs = [(a, b) for a in edges for b in edges]
    for start in range(0, len(pairs), 40):
        chunk = pairs[start : start + 40]
        a_col = [a for a, _ in chunk]
        b_col = [b for _, b in chunk]
        assert_lanewise(width, [a_col, b_col, b_col[::-1]])


def engine_over(width: int, column: list[int]) -> EnumerationState:
    """An engine whose variable ``x`` packs ``column``; a signature can then
    be any packed value of that many lanes."""
    grammar = grammar_of(["bvnot"], width=width)
    return EnumerationState(Problem("f", ("x",), width, grammar, [Example((v,), 0) for v in column]))


@st.composite
def wide_columns(draw):
    """(width, column, want): up to 200 lanes.  A lane of ``column`` is an edge
    value or any; ``want`` differs from it there in no bit, the lowest, the
    top one, every bit, or any.  A ``Random`` seeded by Hypothesis draws the
    lanes, which keeps a 200-lane case cheap to generate."""
    width = draw(st.integers(1, 64))
    n = draw(st.integers(1, 200))
    rng = draw(st.randoms(use_true_random=True))

    def lane(edges: list[int]) -> int:
        return rng.choice(edges) if rng.random() < 0.6 else rng.getrandbits(width)

    column = [lane(edge_values(width)) for _ in range(n)]
    flips = [0, 0, 1, 1 << (width - 1), (1 << width) - 1]
    return width, column, [v ^ lane(flips) for v in column]


@settings(max_examples=200, deadline=None)
@given(wide_columns(), st.data())
def test_predicates_match_their_tuple_definitions(case, data):
    width, column, want = case
    n = len(column)
    eng = engine_over(width, column)
    sig = pack(column, width)
    lanes = unpack(sig, width, n)
    assert lanes == tuple(column)
    k, a, b = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    value = data.draw(st.one_of(st.just(column[k]), st.integers(0, (1 << width) - 1)))
    assert eng.example_equals(k, value)(sig) == (lanes[k] == value)
    separated = (lanes[a] == 1) != (lanes[b] == 1) and any(v != lanes[0] for v in lanes)
    assert eng.separates(a, b)(sig) == separated
    # A lone top bit must not read as equal, and a lane of all ones must not
    # carry into the next.
    agreed = [lane == w for lane, w in zip(lanes, want)]
    assert eng.agreement(sig, pack(want, width)) == bits_where(agreed, True)
    assert eng.agreement(sig, sig) == (1 << n) - 1
    assert eng.ones == pack((1,) * n, width)
    assert eng.agreement(sig, eng.ones) == bits_where(lanes, 1)


LANE_LAYOUT = {"pack", "unpack", "lane_ones", "packed_operators"}


def test_only_the_enumeration_knows_the_lane_layout():
    # Every other module handles signatures, predicates and example masks only:
    # none imports, calls or names the functions that build or read lanes.
    package = Path(bvsynth.__file__).parent
    users = {}
    for path in sorted(package.glob("*.py")):
        if path.name != "enumeration.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
            names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
            users[path.name] = sorted(names & LANE_LAYOUT)
    assert "unify.py" in users
    assert {name: used for name, used in users.items() if used} == {}


EVALUATORS_AND_CHECKS = {"eval_columns", "eval_expr", "signature_of", "check_grammar", "check_examples"}


def test_the_enumeration_runs_no_evaluator_and_no_check():
    # A Problem is checked when it is built and a solution is verified by the
    # per-value evaluator, so the engine only packs: it calls or names none of
    # them.  Its re-export import of signature_of is no name in its code.
    path = Path(bvsynth.__file__).parent / "enumeration.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert "pack" in names
    assert sorted(names & EVALUATORS_AND_CHECKS) == []
