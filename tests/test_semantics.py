"""Value normalisation, operator semantics, evaluation, and serialisation."""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvsynth.errors import UnboundVariable, WidthMismatch
from bvsynth.frontend import Example, Problem, read_sexprs
from bvsynth.semantics import (
    App,
    BitVecValue,
    Const,
    OPERATORS,
    Var,
    bound_operators,
    eval_columns,
    eval_expr,
    expr_to_sexpr,
    fold,
    signature_of,
)

import bruteforce
from helpers import app, const, grammar_of
from solution_reader import parse_term

MASK64 = (1 << 64) - 1


def bv64(bits):
    return BitVecValue(64, bits)


# -- BitVecValue --------------------------------------------------------------


def test_bits_are_reduced_modulo_width():
    assert BitVecValue(8, 0x1FF).bits == 0xFF
    assert BitVecValue(8, -1).bits == 0xFF
    assert BitVecValue(1, 2).bits == 0


@pytest.mark.parametrize("width", [0, 65, -3])
def test_width_out_of_range_rejected(width):
    with pytest.raises(ValueError):
        BitVecValue(width, 0)


@pytest.mark.parametrize("width", [0, 65])
@pytest.mark.parametrize("entry", ["signature_of", "eval_expr", "Problem", "Problem._replace"])
def test_every_evaluator_rejects_an_out_of_range_width(entry, width):
    # Each reaches BitVecValue's range check before any arithmetic on the width;
    # a Problem checks its width when it is built, so no engine over it exists.
    good = Problem("f", ("x",), 64, grammar_of(["bvnot"]), (Example((1,), 1),))
    calls = {
        "signature_of": lambda: signature_of(Var("x"), ("x",), [(1,)], width),
        "eval_expr": lambda: eval_expr(Var("x"), {}, width),
        "Problem": lambda: Problem("f", ("x",), width, good.grammar, good.examples),
        "Problem._replace": lambda: good._replace(width=width),
    }
    with pytest.raises(ValueError, match=rf"^width must be within \[1, 64\]: {width}$"):
        calls[entry]()


def test_literal_rendering():
    assert str(BitVecValue(64, 1)) == "#x0000000000000001"
    assert str(BitVecValue(8, 0xAB)) == "#xab"
    assert str(BitVecValue(5, 0b10110)) == "#b10110"


# -- evaluator ----------------------------------------------------------------


def test_eval_bvand_constants_width8():
    assert eval_expr(app("bvand", const(8, 0x0F), const(8, 0x09)), {}, 8) == BitVecValue(8, 0x09)


def test_eval_if0_selects_then_on_one():
    e = app("if0", const(8, 0x01), const(8, 0xAA), const(8, 0xBB))
    assert eval_expr(e, {}, 8) == BitVecValue(8, 0xAA)
    e2 = app("if0", const(8, 0x00), const(8, 0xAA), const(8, 0xBB))
    assert eval_expr(e2, {}, 8) == BitVecValue(8, 0xBB)
    e3 = app("if0", const(8, 0x02), const(8, 0xAA), const(8, 0xBB))
    assert eval_expr(e3, {}, 8) == BitVecValue(8, 0xBB)


def test_eval_bvadd_variable():
    e = app("bvadd", Var("x"), Var("x"))
    assert eval_expr(e, {"x": bv64(0x03)}, 64) == bv64(0x06)


def test_eval_shr4_constant():
    assert eval_expr(app("shr4", const(64, 0xF0)), {}, 64) == bv64(0x0F)


def test_eval_unbound_variable():
    with pytest.raises(UnboundVariable):
        eval_expr(Var("y"), {"x": bv64(1)}, 64)


def test_eval_mixed_width_rejected():
    e = app("bvand", Var("x"), const(8, 1))
    with pytest.raises(WidthMismatch, match="^variable x has width 64, expected 8$"):
        eval_expr(e, {"x": bv64(1)}, 8)
    with pytest.raises(WidthMismatch, match="^constant #x01 has width 8, expected 64$"):
        eval_expr(e, {"x": bv64(1)}, 64)
    # A variable's width is checked only where it occurs.
    env = {"x": BitVecValue(8, 0x81), "y": bv64(1)}
    assert eval_expr(app("shl1", Var("x")), env, 8) == BitVecValue(8, 0x02)
    with pytest.raises(WidthMismatch, match="variable y has width 64, expected 8"):
        eval_expr(app("bvand", Var("x"), Var("y")), env, 8)
    with pytest.raises(UnboundVariable):
        eval_expr(app("bvand", Var("z"), Var("y")), env, 8)


def test_shift_semantics_pinned():
    fns = bound_operators(8)
    assert fns["bvshl"](0xFF, 8) == 0
    assert fns["bvshl"](0xFF, 200) == 0
    assert fns["bvlshr"](0xFF, 8) == 0
    assert fns["bvashr"](0x80, 8) == 0xFF  # sign-fill
    assert fns["bvashr"](0x7F, 8) == 0x00
    assert fns["bvashr"](0x80, 1) == 0xC0
    assert fns["shr16"](0xFF) == 0  # fixed shift wider than the word
    assert fns["shl1"](0x80) == 0


def test_operator_arity_checked_at_construction():
    with pytest.raises(ValueError):
        App("bvand", (Var("x"),))
    with pytest.raises(ValueError):
        App("nosuch", (Var("x"),))


def test_if0_is_the_only_ternary_operator():
    assert [name for name, arity in OPERATORS.items() if arity == 3] == ["if0"]


def test_normalization_fuzz_100k():
    # Results of every operator stay below 2**width on in-range inputs.
    rng = random.Random(0xBEEF)
    ops = list(OPERATORS.items())
    for _ in range(100_000):
        width = rng.choice((1, 7, 8, 32, 63, 64))
        mask = (1 << width) - 1
        name, arity = rng.choice(ops)
        args = [rng.getrandbits(width) for _ in range(arity)]
        result = bound_operators(width)[name](*args)
        assert 0 <= result <= mask, (name, width, args, result)


# -- hypothesis properties ----------------------------------------------------


def exprs(width: int):
    unary = [n for n, arity in OPERATORS.items() if arity == 1]
    binary = [n for n, arity in OPERATORS.items() if arity == 2]
    leaves = st.one_of(
        st.just(Var("x")),
        st.integers(0, (1 << width) - 1).map(lambda b: Const(BitVecValue(width, b))),
    )
    return st.recursive(
        leaves,
        lambda ch: st.one_of(
            st.tuples(st.sampled_from(unary), ch).map(lambda t: App(t[0], (t[1],))),
            st.tuples(st.sampled_from(binary), ch, ch).map(lambda t: App(t[0], (t[1], t[2]))),
            st.tuples(ch, ch, ch).map(lambda t: App("if0", t)),
        ),
        max_leaves=12,
    )


@given(e=exprs(64), x=st.integers(0, MASK64))
def test_eval_deterministic_and_normalized(e, x):
    env = {"x": bv64(x)}
    first = eval_expr(e, env, 64)
    assert eval_expr(e, env, 64) == first
    assert 0 <= first.bits <= MASK64
    assert first.width == 64


@given(c=exprs(64), t=exprs(64), e=exprs(64), x=st.integers(0, MASK64))
def test_if0_branch_law(c, t, e, x):
    env = {"x": bv64(x)}
    whole = eval_expr(App("if0", (c, t, e)), env, 64)
    branch = t if eval_expr(c, env, 64).bits == 1 else e
    assert whole == eval_expr(branch, env, 64)


def edge_values(width: int):
    """Input values at the edges of the operators: shift amounts just below,
    at and above the width, the sign bit, and all ones."""
    mask = (1 << width) - 1
    edges = {0, 1, width - 1, width, width + 1, 16, 1 << (width - 1), mask}
    return st.sampled_from(sorted(v for v in edges if v <= mask)) | st.integers(0, mask)


@st.composite
def expr_on_columns(draw):
    width = draw(st.sampled_from([1, 2, 5, 8, 16, 17, 63, 64]))
    n = draw(st.integers(0, 6))
    xs = draw(st.lists(edge_values(width), min_size=n, max_size=n))
    return draw(exprs(width)), width, xs


@settings(max_examples=300, deadline=None)
@given(case=expr_on_columns())
def test_eval_columns_matches_bruteforce_evaluator(case):
    e, width, xs = case
    want = [bruteforce.value_on(e, ("x",), (x,), width) for x in xs]
    assert eval_columns(e, {"x": xs}, width, len(xs)) == want


@settings(max_examples=200)
@given(e=exprs(64))
def test_sexpr_round_trip_width64(e):
    text = expr_to_sexpr(e)
    parsed = parse_term(read_sexprs(text), 0, ("x",), 64)
    assert parsed == e


@given(e=exprs(8))
def test_sexpr_round_trip_width8(e):
    text = expr_to_sexpr(e)
    parsed = parse_term(read_sexprs(text), 0, ("x",), 8)
    assert parsed == e


def test_sexpr_examples():
    assert expr_to_sexpr(app("bvand", Var("x"), const(64, 1))) == "(bvand x #x0000000000000001)"
    assert expr_to_sexpr(Var("x")) == "x"
    e = app("if0", Var("x"), const(64, 0), const(64, 1))
    assert expr_to_sexpr(e) == "(if0 x #x0000000000000000 #x0000000000000001)"


def test_expr_size_is_node_count():
    assert Var("x").size == 1
    assert const(64, 0).size == 1
    assert app("bvadd", Var("x"), Var("x")).size == 3
    nested = app("if0", Var("x"), app("bvnot", Var("x")), const(64, 1))
    assert nested.size == 5


def test_deep_app_hashes_and_compares_without_recursion():
    depth = 3000
    built = []
    for leaf in (Var("x"), Var("x"), Var("y")):
        e = leaf
        for _ in range(depth):
            e = app("bvnot", e)
        built.append(e)
    body, copy, other = built
    assert body is not copy and hash(body) == hash(copy)
    assert body == copy and {body: 1}[copy] == 1
    assert body != other and other != body


def test_deep_app_repr_without_recursion():
    e = Var("x")
    for _ in range(3000):
        e = app("bvnot", e)
    assert repr(e) == "App('" + "(bvnot " * 3000 + "x" + ")" * 3000 + "')"


def test_fold_call_order():
    # (a (b 1 2) 3 (c (d 4)) (e)): a node is (name, children), a leaf an int
    tree = ("a", [("b", [1, 2]), 3, ("c", [("d", [4])]), ("e", [])])
    calls = []

    def children(n):
        calls.append(("children", n[0] if isinstance(n, tuple) else n))
        return n[1] if isinstance(n, tuple) else None

    def leaf(n):
        calls.append(("leaf", n))
        return n

    def node(n, values):
        calls.append(("node", n[0], values))
        return sum(values)

    assert fold(tree, children, leaf, node) == 10
    # children and leaf in preorder, left to right; each node right after
    # its last child is done
    assert calls == [
        ("children", "a"),
        ("children", "b"),
        ("children", 1),
        ("leaf", 1),
        ("children", 2),
        ("leaf", 2),
        ("node", "b", [1, 2]),
        ("children", 3),
        ("leaf", 3),
        ("children", "c"),
        ("children", "d"),
        ("children", 4),
        ("leaf", 4),
        ("node", "d", [4]),
        ("node", "c", [4]),
        ("children", "e"),
        ("node", "e", []),
        ("node", "a", [3, 3, 4, 0]),
    ]


def test_fold_deep_chain_without_recursion():
    def children(n):
        return n if isinstance(n, tuple) else None

    chain = 0
    for _ in range(100_000):
        chain = (chain,)
    assert fold(chain, children, lambda n: 0, lambda n, v: v[0] + 1) == 100_000


@given(exprs(8))
def test_app_repr_is_the_sexpr(e):
    if isinstance(e, App):
        assert repr(e) == f"App({expr_to_sexpr(e)!r})"
    assert repr(app("bvadd", Var("x"), const(8, 1))) == "App('(bvadd x #x01)')"
    assert repr(Var("x")) == "Var(name='x')"
    assert repr(const(8, 1)) == "Const(value=BitVecValue(width=8, bits=1))"


@given(a=exprs(8), b=exprs(8))
def test_app_equality_and_hash_follow_the_text(a, b):
    assert (a == b) == (expr_to_sexpr(a) == expr_to_sexpr(b))
    assert a == parse_term(read_sexprs(expr_to_sexpr(a)), 0, ("x",), 8)
    if a == b:
        assert hash(a) == hash(b)


def test_app_equality_under_a_hash_collision():
    # Ints equal modulo sys.hash_info.modulus hash alike, so the two Apps share a
    # hash and an operator, and only their leaves tell them apart.  Terminal
    # expressions are dict keys in TerminalMap.masks, so both must stay keys.
    a = App("bvnot", (Const(BitVecValue(64, 0)),))
    b = App("bvnot", (Const(BitVecValue(64, sys.hash_info.modulus)),))
    assert hash(a) == hash(b)
    assert not a == b and not b == a
    assert a != b and b != a
    assert len({a: 0, b: 1}) == 2
