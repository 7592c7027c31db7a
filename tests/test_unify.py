"""Terminal mapping, condition search, and decision-tree construction."""

from __future__ import annotations

from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvsynth.corpus import derivable_size_table, sample_expr
from bvsynth.errors import GrammarViolation, MissingIf0Rule, SynthesisFailure
from bvsynth.errors import UnsolvableExample, UnunifiablePair
from bvsynth.frontend import Grammar, OpRule, emit_solution
from bvsynth.semantics import App, BitVecValue, Const, Var, eval_expr
from bvsynth.solver import solve_problem, verify_solution
from bvsynth.unify import (
    Internal,
    Leaf,
    build_tree,
    condition_nonterminal,
    derives,
    find_condition,
    internal_node_count,
    map_terminals,
    tree_to_expr,
)

import bruteforce
from helpers import (
    app,
    assert_covers,
    assigned,
    bits_where,
    conditions,
    const,
    contains_op,
    engine_for,
    env_of,
    grammar_of,
    indices_of,
    leaves,
    problem_of,
    route,
    rows_of,
)

BASE_OPS = ["bvand", "bvor", "bvnot", "bvadd"]
# Conditions come from Cond, and both if0 branches from Term.
START_COND_TERM = Grammar(
    ("Start", "Cond", "Term"),
    {
        "Start": (OpRule("if0", ("Cond", "Term", "Term")), Var("x")),
        "Cond": (Var("x"), Const(BitVecValue(8, 1))),
        "Term": (Const(BitVecValue(8, 0)),),
    },
    "Start",
)


def assert_tree_sound(problem, tree, tmap):
    """Routing soundness plus the leaf/condition purity invariants."""
    for leaf in leaves(tree):
        assert leaf.bucket, "empty bucket"
        assert not contains_op(leaf.expr, "if0")
        for i in indices_of(leaf.bucket):
            example = problem.examples[i]
            reached, _path = route(problem, tree, example)
            assert reached is leaf, f"example {i} routes away from its bucket"
            env = env_of(problem.params, problem.width, example.inputs)
            assert eval_expr(leaf.expr, env, problem.width).bits == example.output
    rows = rows_of(problem)
    for node in conditions(tree):
        assert not contains_op(node.condition, "if0")
        sig = bruteforce.signature_on(node.condition, problem.params, rows, problem.width)
        assert node.mask == bits_where(sig, 1), "stored mask differs from evaluation"
        assert len(set(sig)) > 1, "constant condition"


# -- map_terminals ------------------------------------------------------------


def test_map_terminals_reuses_found_expressions():
    grammar = grammar_of(["bvadd", "bvand", "bvor"])
    p = problem_of(grammar, [(5, 5), (9, 9), (3, 6)])
    tmap = map_terminals(p, engine_for(p))
    assert assigned(tmap, 0) == Var("x")
    assert assigned(tmap, 1) == Var("x")
    assert assigned(tmap, 2) == app("bvadd", Var("x"), Var("x"))
    assert tmap.masks[Var("x")] == 0b011
    oracle = bruteforce.min_matching(
        grammar, ("x",), rows_of(p), 64, lambda sig: sig[2] == 6, 5, exclude=frozenset({"if0"})
    )
    assert oracle is not None and oracle[0] == 3


def test_map_terminals_single_example():
    p = problem_of(grammar_of(BASE_OPS), [(5, 5)])
    tmap = map_terminals(p, engine_for(p))
    assert tmap.masks == {Var("x"): 0b1}
    assert tmap.distinct() == 1


def test_map_terminals_conflict_free():
    p = problem_of(grammar_of(BASE_OPS), [(1, 1), (7, 7), (42, 42)])
    tmap = map_terminals(p, engine_for(p))
    assert tmap.distinct() == 1
    assert tmap.masks[Var("x")] == 0b111


def test_map_terminals_never_assigns_if0():
    p = problem_of(grammar_of(BASE_OPS, width=8), [(3, 1), (12, 9), (7, 2)], width=8)
    tmap = map_terminals(p, engine_for(p))
    for expr in tmap.masks:
        assert not contains_op(expr, "if0")


def test_map_terminals_unsolvable_within_budget():
    p = problem_of(grammar_of([]), [(3, 6)])  # only x, 0, 1: cannot reach 6
    with pytest.raises(UnsolvableExample) as info:
        map_terminals(p, engine_for(p))
    assert info.value.index == 0


def test_a_search_on_a_closed_engine_fails_its_example():
    p = problem_of(grammar_of(BASE_OPS), [(3, 6)])
    engine = engine_for(p)
    engine.close()
    with pytest.raises(UnsolvableExample) as info:
        map_terminals(p, engine)
    assert str(info.value) == "no terminal expression found for example 0: enumeration closed"
    assert type(info.value.__cause__) is SynthesisFailure


# -- find_condition -----------------------------------------------------------


def test_find_condition_low_bit_discriminator():
    mask = (1 << 64) - 1
    p = problem_of(grammar_of(BASE_OPS), [(0x0, 0), (mask, 1)])
    oracle = bruteforce.min_condition(p.grammar, ("x",), rows_of(p), 64, 0, 1, 6)
    assert oracle is not None and oracle[0] == 3
    expr, mask = find_condition(p, engine_for(p), 0, 1)
    assert expr == app("bvand", Var("x"), const(64, 1))
    assert mask == bits_where(bruteforce.signature_on(expr, ("x",), rows_of(p), 64), 1)
    assert mask == 0b10  # value 0 on A, 1 on B: B takes the then-branch


def test_find_condition_identity_when_one_input_is_one():
    p = problem_of(grammar_of(BASE_OPS), [(0x1, 0), (0x2, 1)])
    oracle = bruteforce.min_condition(p.grammar, ("x",), rows_of(p), 64, 0, 1, 4)
    assert oracle is not None and oracle[0] == 1
    expr, mask = find_condition(p, engine_for(p), 0, 1)
    assert expr == Var("x")
    assert mask == 0b01  # 1 on A only (2 on B): A takes the then-branch


def test_find_condition_ununifiable_when_language_runs_out():
    p = problem_of(grammar_of(["bvnot"], width=8, consts=()), [(5, 5), (9, 0xF6)], width=8)
    with pytest.raises(UnunifiablePair):
        find_condition(p, engine_for(p), 0, 1)


@pytest.mark.parametrize(
    "pairs, solution",
    [
        ([(1, 1), (7, 7)], Var("x")),  # one expression fits both: no split, no if0
        ([(1, 1), (7, 0)], None),  # a split needs the missing if0 rule
    ],
)
def test_a_grammar_without_if0_solves_only_what_needs_no_split(pairs, solution):
    p = problem_of(grammar_of(BASE_OPS, with_if0=False), pairs)
    if solution is not None:
        assert solve_problem(p).solution == solution
        return
    with pytest.raises(MissingIf0Rule) as info:
        solve_problem(p)
    assert str(info.value) == "grammar has no if0 production"


def test_condition_nonterminal_is_if0_first_operand():
    assert condition_nonterminal(grammar_of(BASE_OPS)) == "Start"
    assert condition_nonterminal(START_COND_TERM) == "Cond"


# -- route --------------------------------------------------------------------


def parity_problem(width=8):
    # even inputs map to x, odd inputs to bvnot x
    pairs = [(0x0, 0x0), (0x2, 0x2), (0x1, 0xFE), (0x3, 0xFC)]
    return problem_of(grammar_of(BASE_OPS, width=width), pairs, width=width)


def test_route_follows_condition_values():
    p = parity_problem()
    then_leaf = Leaf(app("bvnot", Var("x")), 0b1100)
    else_leaf = Leaf(Var("x"), 0b0011)
    tree = Internal(app("bvand", Var("x"), const(8, 1)), 0b1100, then_leaf, else_leaf)
    leaf, path = route(p, tree, p.examples[3])  # x = 3, 3 & 1 == 1
    assert leaf is then_leaf and path == (True,)
    leaf, path = route(p, tree, p.examples[1])  # x = 2
    assert leaf is else_leaf and path == (False,)


def test_route_single_leaf_is_empty_path():
    p = parity_problem()
    only = Leaf(Var("x"), 0b1)
    assert route(p, only, p.examples[0]) == (only, ())


# -- build_tree ---------------------------------------------------------------


def test_build_tree_two_conflicting_examples():
    p = problem_of(grammar_of(BASE_OPS, width=8), [(4, 4), (3, 0xFC)], width=8)
    engine = engine_for(p)
    tmap = map_terminals(p, engine)
    tree = build_tree(p, engine, tmap)
    assert internal_node_count(tree) == 1
    assert_tree_sound(p, tree, tmap)
    # Orientation: the then-side creation example evaluates the condition to 1.
    sig = bruteforce.signature_on(tree.condition, ("x",), rows_of(p), 8)
    then_leaf = tree.then_child
    assert all(sig[i] == 1 for i in indices_of(then_leaf.bucket))


def test_build_tree_parity_scenario():
    # Four examples, two terminal expressions.  The first split separates
    # example 0 (0x0) from the lowest example its expression x does not fit,
    # example 2 (0x1); the pairwise condition oracle accepts the size-1
    # condition x there (it is 1 on 0x1 only), so unifying the remaining odd
    # example needs one more node with bvand(x, #x01).
    p = parity_problem()
    engine = engine_for(p)
    tmap = map_terminals(p, engine)
    assert tmap.masks[Var("x")] == 0b0011
    assert tmap.masks[app("bvnot", Var("x"))] == 0b1100

    oracle_root = bruteforce.min_condition(p.grammar, ("x",), rows_of(p), 8, 0, 2, 6)
    assert oracle_root is not None
    assert oracle_root[0] == 1 and oracle_root[1] == Var("x")

    tree = build_tree(p, engine, tmap)
    assert internal_node_count(tree) == 2  # <= examples - 1
    assert tree.condition == Var("x")
    inner = tree.else_child
    assert isinstance(inner, Internal)
    assert inner.condition == app("bvand", Var("x"), const(8, 1))
    assert_tree_sound(p, tree, tmap)

    solution = tree_to_expr(tree, p.grammar)
    for ex in p.examples:
        env = env_of(p.params, p.width, ex.inputs)
        assert eval_expr(solution, env, p.width).bits == ex.output


def test_build_tree_splits_again_a_side_a_pairwise_condition_mixed():
    # The pairwise condition for the second split (shr4 x, separating 0x04
    # from 0x14) also evaluates to 1 on 0x12, which x fits like 0x04.  So
    # 0x12 lands beside 0x14, and that side needs a split of its own for
    # route() to stay sound.
    pairs = [(0x04, 0x04), (0x12, 0x12), (0x05, 0xFA), (0x14, 0xEB)]
    p = problem_of(
        grammar_of(
            ["bvnot", "shl1", "shr1", "shr4", "shr16", "bvand", "bvor", "bvxor", "bvadd"],
            width=8,
        ),
        pairs,
        width=8,
    )
    engine = engine_for(p)
    tmap = map_terminals(p, engine)
    assert tmap.masks[Var("x")] == 0b0011
    assert tmap.masks[app("bvnot", Var("x"))] == 0b1100

    second_split = bruteforce.min_condition(p.grammar, ("x",), rows_of(p), 8, 3, 0, 6)
    assert second_split is not None
    assert second_split[1] == app("shr4", Var("x"))
    # ... and that condition routes example 1 away from example 0:
    assert bruteforce.value_on(second_split[1], ("x",), (0x12,), 8) == 1

    tree = build_tree(p, engine, tmap)
    assert internal_node_count(tree) <= len(p.examples) - 1
    leaf_of_0, _ = route(p, tree, p.examples[0])
    leaf_of_1, _ = route(p, tree, p.examples[1])
    assert leaf_of_0 is not leaf_of_1
    assert_tree_sound(p, tree, tmap)


def test_build_tree_one_expression_is_one_leaf_of_every_example():
    p = problem_of(grammar_of(BASE_OPS), [(5, 5), (9, 9)])
    engine = engine_for(p)
    tmap = map_terminals(p, engine)
    assert tmap.distinct() == 1
    assert build_tree(p, engine, tmap) == Leaf(Var("x"), 0b11)


def test_an_expression_found_later_takes_every_example_it_fits():
    # Example 0 finds the constant 1; example 1 then finds x + 1, which
    # fits example 0 too, so one leaf holds both and no if0 is built.
    p = problem_of(grammar_of(BASE_OPS), [(0, 1), (5, 6)])
    result = solve_problem(p)
    assert result.solution == app("bvadd", Var("x"), const(64, 1))
    assert result.stats.internal_nodes == 0
    assert result.terminal_map.masks == {const(64, 1): 0b01, result.solution: 0b11}


# Each example's output is one of up to three small target expressions,
# picked by two bits of its (distinct) input, so every problem is solvable
# and every conflict is separable by a small condition.
MASK_OPS = ["bvnot", "shr1", "shr4", "bvand", "bvor", "bvadd"]
TARGETS = [
    Var("x"),
    app("bvnot", Var("x")),
    app("shr1", Var("x")),
    app("bvadd", Var("x"), Var("x")),
    app("bvor", Var("x"), const(64, 1)),
]


@st.composite
def mask_problems(draw):
    """A problem with 1-200 examples at width 8 or 64, so masks cross 64 bits.
    A ``Random`` seeded by Hypothesis draws the inputs."""
    width = draw(st.sampled_from([8, 64]))
    n = draw(st.integers(1, 200))
    targets = draw(st.lists(st.sampled_from(TARGETS), min_size=1, max_size=3, unique=True))
    shift = draw(st.sampled_from([0, 1, 4]))
    rng = draw(st.randoms(use_true_random=True))
    # Distinct inputs, so every pair is separable; 64-bit draws collide with
    # probability below 2**-40.
    inputs = rng.sample(range(256), n) if width == 8 else [rng.getrandbits(64) for _ in range(n)]
    pairs = []
    for x in inputs:
        target = targets[min(x >> shift & 3, len(targets) - 1)]
        pairs.append((x, bruteforce.value_on(target, ("x",), (x,), width)))
    return problem_of(grammar_of(MASK_OPS, width=width), pairs, width=width)


@settings(max_examples=100, deadline=None)
@given(mask_problems())
def test_terminal_masks_and_buckets_partition_the_examples(p):
    """The terminal masks cover the examples and may overlap; the tree's
    buckets partition them, soundly and with the cover property."""
    n = len(p.examples)
    engine = engine_for(p)
    tmap = map_terminals(p, engine)
    rows = rows_of(p)
    union = 0
    for expr, mask in tmap.masks.items():
        # The mask is every example the expression fits, and it holds the
        # example the expression was found for: the lowest one no earlier
        # mask holds.  Masks may overlap.
        sig = bruteforce.signature_on(expr, p.params, rows, p.width)
        assert mask == bits_where([v == ex.output for v, ex in zip(sig, p.examples)], True)
        missing = (1 << n) - 1 & ~union
        assert missing and mask & missing & -missing, "misses the lowest example not yet held"
        union |= mask
    assert union == (1 << n) - 1
    tree = build_tree(p, engine, tmap)
    buckets = [leaf.bucket for leaf in leaves(tree)]
    assert sum(b.bit_count() for b in buckets) == n
    assert reduce(or_, buckets) == (1 << n) - 1
    assert_tree_sound(p, tree, tmap)
    assert_covers(tree, tmap)


# -- tree_to_expr -------------------------------------------------------------


def test_tree_to_expr_single_leaf():
    p = parity_problem()
    assert tree_to_expr(Leaf(Var("x"), 0b1), p.grammar) == Var("x")


def test_tree_to_expr_composes_if0():
    p = parity_problem()
    cond = app("bvand", Var("x"), const(8, 1))
    tree = Internal(cond, 0b1100, Leaf(app("bvnot", Var("x")), 0b100), Leaf(Var("x"), 0b1))
    expr = tree_to_expr(tree, p.grammar)
    assert expr == app("if0", cond, app("bvnot", Var("x")), Var("x"))
    for ex in p.examples[:3]:
        env = env_of(p.params, p.width, ex.inputs)
        want = route(p, tree, ex)[0].expr
        assert eval_expr(expr, env, p.width) == eval_expr(want, env, p.width)


def test_tree_to_expr_grammar_violation():
    # The leaf x is not derivable from Term, the if0 branch nonterminal.
    tree = Internal(Var("x"), 0b01, Leaf(Var("x"), 0b01), Leaf(const(8, 0), 0b10))
    with pytest.raises(GrammarViolation):
        tree_to_expr(tree, START_COND_TERM)


def test_derives_respects_nonterminal_structure():
    g = grammar_of(["bvnot", "bvand"])
    assert derives(g, "Start", app("bvand", Var("x"), const(64, 1)))
    assert derives(g, "Start", app("if0", Var("x"), const(64, 0), Var("x")))
    assert not derives(g, "Start", app("bvadd", Var("x"), Var("x")))  # bvadd not in grammar
    assert not derives(g, "Start", const(64, 7))  # constant 7 is not a terminal


# Expressions over x, y and the constants 0-2 at width 8, and grammars whose
# nonterminals each take a random set of terminals (all but the constant 2)
# and of operator rules over random operand nonterminals.
ARITY = {"bvnot": 1, "shr1": 1, "bvand": 2, "bvadd": 2, "if0": 3}
TERMINALS = [
    Var("x"),
    Var("y"),
    Const(BitVecValue(8, 0)),
    Const(BitVecValue(8, 1)),
]


@st.composite
def grammars(draw):
    nts = ("Start", "A", "B")[: draw(st.integers(2, 3))]
    rule = st.one_of(
        st.sampled_from(TERMINALS),
        st.sampled_from(sorted(ARITY)).flatmap(
            lambda op: st.tuples(*[st.sampled_from(nts)] * ARITY[op]).map(
                lambda operands: OpRule(op, operands)
            )
        ),
    )
    productions = {
        nt: tuple(draw(st.lists(rule, min_size=1, max_size=6, unique=True))) for nt in nts
    }
    return Grammar(nts, productions, "Start")


def expressions():
    leaves = st.sampled_from([Var("x"), Var("y"), const(8, 0), const(8, 1), const(8, 2)])
    return st.recursive(
        leaves,
        lambda args: st.sampled_from(sorted(ARITY)).flatmap(
            lambda op: st.tuples(*[args] * ARITY[op]).map(lambda a: App(op, a))
        ),
        max_leaves=12,
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_derives_matches_recursive_reference(data):
    grammar = data.draw(st.one_of(st.just(START_COND_TERM), grammars()))
    exprs = [data.draw(expressions())]
    # ... and one derivable expression, when the start symbol derives any.
    table = derivable_size_table(grammar, 7)
    sizes = [s for s in range(1, 8) if table[grammar.start][s]]
    if sizes:
        rng = data.draw(st.randoms(use_true_random=False))
        exprs.append(sample_expr(grammar, rng, rng.choice(sizes)))
        assert derives(grammar, grammar.start, exprs[-1])
    for expr in exprs:
        for nt in grammar.nonterminals:
            assert derives(grammar, nt, expr) == bruteforce.derives(grammar, nt, expr), (nt, expr)


# Chains of 3,000 if0 nodes whose conditions are constants, so every
# example takes each else-branch (condition 0) or each then-branch
# (condition 1) down to the leaf x.  The walks descend then-sides first.
@pytest.mark.parametrize("side", ["else", "then"])
def test_deep_tree_walks_are_iterative(side):
    p = problem_of(grammar_of(BASE_OPS, width=8), [(5, 5), (9, 9)], width=8)
    tree = Leaf(Var("x"), 0b11)
    for _ in range(3000):
        if side == "else":
            tree = Internal(const(8, 0), 0, Leaf(const(8, 0), 0), tree)
        else:
            tree = Internal(const(8, 1), 0b11, tree, Leaf(const(8, 0), 0))
    assert internal_node_count(tree) == 3000
    solution = tree_to_expr(tree, p.grammar)
    assert solution.size == 3 * 3000 + 1
    verify_solution(p, solution)
    node_text = "(if0 #x00 #x00 " if side == "else" else "(if0 #x01 "
    assert emit_solution(p, solution).count(node_text) == 3000
