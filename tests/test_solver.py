"""The end-to-end pipeline: budgets, verification, and statistics."""

from __future__ import annotations

import gc
import re
import sys
import traceback
import weakref

import pytest

from bvsynth.enumeration import EnumerationState
from bvsynth.errors import Exhausted, NotFound, NotPBE, TimeoutExceeded, UnsolvableExample
from bvsynth.errors import InconsistentExamples, SygusSyntaxError, UnunifiablePair, VerificationFailed
from bvsynth.frontend import Example, Grammar, OpRule, Problem
from bvsynth.semantics import App, BitVecValue, Const, Var, eval_expr, subexpressions
from bvsynth.solver import SearchLimits, solve_problem, verify_solution
from bvsynth.unify import internal_node_count

import bruteforce
from helpers import app, buckets, const, contains_op, env_of, grammar_of, problem_of, rows_of

BASE_OPS = ["bvand", "bvor", "bvnot", "bvadd"]


def test_conflict_free_identity_instance():
    p = problem_of(grammar_of(BASE_OPS), [(1, 1), (9, 9), (42, 42), (7, 7)])
    result = solve_problem(p)
    assert result.solution == Var("x")
    assert buckets(p, result.solution) == {(): 0b1111}
    assert result.stats.internal_nodes == 0
    assert result.stats.solution_size == 1
    assert result.stats.examples == 4
    assert not contains_op(result.solution, "if0")
    # An explicit None means the default budgets.
    assert solve_problem(p, None).solution == Var("x")


def test_one_expression_solve_is_one_leaf_of_every_example():
    # One found expression fits all examples: the answer is still a tree,
    # one leaf that every example reaches, with no if0 node.
    p = problem_of(grammar_of(["bvadd"]), [(1, 2), (3, 6), (5, 10)])
    result = solve_problem(p)
    double = app("bvadd", Var("x"), Var("x"))
    assert result.terminal_map.masks == {double: 0b111}
    assert buckets(p, result.solution) == {(): 0b111}
    assert result.solution == double
    assert result.stats.internal_nodes == 0


def test_parity_instance_builds_two_nodes():
    # Derived with the brute-force condition oracle: the first conflicting
    # pair (0x0, 0x1) is separated by the size-1 condition x, which leaves
    # 0x3 to be split off later by bvand(x, #x01); hence two if0 nodes.
    p = problem_of(grammar_of(BASE_OPS, width=8), [(0x0, 0x0), (0x2, 0x2), (0x1, 0xFE), (0x3, 0xFC)], width=8)
    oracle_root = bruteforce.min_condition(p.grammar, ("x",), rows_of(p), 8, 0, 2, 6)
    assert oracle_root is not None and oracle_root[1] == Var("x")
    result = solve_problem(p)
    assert internal_node_count(result.solution) == 2
    assert result.stats.internal_nodes == 2
    if0_nodes = sum(
        1 for e in subexpressions(result.solution) if isinstance(e, App) and e.op == "if0"
    )
    assert if0_nodes == 2
    for ex in p.examples:
        env = env_of(p.params, p.width, ex.inputs)
        assert eval_expr(result.solution, env, p.width).bits == ex.output


def test_solution_size_and_node_bound_on_mixed_instance():
    pairs = [(0x04, 0x04), (0x12, 0x12), (0x05, 0xFA), (0x14, 0xEB)]
    p = problem_of(
        grammar_of(
            ["bvnot", "shl1", "shr1", "shr4", "shr16", "bvand", "bvor", "bvxor", "bvadd"],
            width=8,
        ),
        pairs,
        width=8,
    )
    result = solve_problem(p)
    assert result.stats.internal_nodes <= len(pairs) - 1
    verify_solution(p, result.solution)


@pytest.mark.parametrize(
    "examples, message",
    [
        ((), "no constraints"),
        ((Example((), 1),), "example 0 has 0 inputs, not 1"),
        ((Example((1, 5), 1),), "example 0 has 2 inputs, not 1"),
        ((Example((1,), 0x1FF),), "example 0 has value 511 outside [0, 255]"),
        ((Example((1,), -1),), "example 0 has value -1 outside [0, 255]"),
        ((Example((0x1FF,), 0xFF),), "example 0 has value 511 outside [0, 255]"),
        ((Example((1,), 1), Example((1, 2), 3)), "example 1 has 2 inputs, not 1"),
    ],
)
def test_a_problem_with_malformed_examples_is_not_pbe(examples, message):
    # Built directly, it skips detect_pbe, but a Problem checks its examples
    # when it is built, through _replace too, and names the first malformed one.
    grammar = grammar_of(["bvnot", "bvand", "bvadd"], width=8)
    good = Problem("f", ("x",), 8, grammar, (Example((1,), 1),))
    for build in (lambda: Problem("f", ("x",), 8, grammar, examples), lambda: good._replace(examples=examples)):
        with pytest.raises(NotPBE, match=f"^{re.escape('not a PBE task: ' + message)}$"):
            build()


LIBRARY_BASE = grammar_of(["bvnot", "bvand", "bvadd"], width=8)


def grammar_with(start_rules=(), **more) -> Grammar:
    """``LIBRARY_BASE`` with ``start_rules`` appended to Start, and each keyword a
    further nonterminal with its productions, declared after Start in that order."""
    start = LIBRARY_BASE.productions["Start"] + tuple(start_rules)
    return Grammar(("Start", *more), {"Start": start, **more}, "Start")


TWO = (Example((3,), 1), Example((5,), 4))
BINARY_BVNOT = grammar_of(["bvand", "bvadd"], width=8).productions["Start"] + (
    OpRule("bvnot", ("Start", "Start")),
)
# Each Problem the parser would reject, built without it, and the error the
# parser's checks raise for it.  At width 8 and SearchLimits(max_size=6), before
# any code ran those checks on a built Problem, these ended in a bare KeyError
# (bvmul, the undeclared operand, the start, the empty grammar), an
# AttributeError (Const(1)), a ValueError from building the binary bvnot hit,
# UnunifiablePair (equal inputs), or a solve (the other three).  The unbound and
# the wide leaf were the engine's UnboundVariable and WidthMismatch, raised by the
# evaluator it ran on each leaf, until check_grammar took the width.
NOT_A_LEAF = "is not a parameter's Var, a Const of width 8 or an OpRule"
LIBRARY_INPUT = {
    "unknown operator": (
        grammar_with([OpRule("bvmul", ("Start", "Start"))]), ("x",), TWO,
        SygusSyntaxError, "'bvmul' of 2 operands in 'Start' is not a catalogue operator",
    ),
    "undeclared operand": (
        grammar_with([OpRule("bvand", ("C", "B"))]), ("x",), TWO,
        SygusSyntaxError, "operand 'C' of 'bvand' in 'Start' is not a nonterminal",
    ),
    "start not a nonterminal": (
        LIBRARY_BASE._replace(start="S"), ("x",), TWO,
        SygusSyntaxError, "start symbol 'S' is not a nonterminal",
    ),
    "no productions": (
        grammar_with([OpRule("bvand", ("Start", "B"))], B=()), ("x",), TWO,
        SygusSyntaxError, "nonterminal 'B' has no productions",
    ),
    "empty grammar": (
        Grammar((), {}, "Start"), ("x",), TWO,
        SygusSyntaxError, "start symbol 'Start' is not a nonterminal",
    ),
    "plain-int constant": (
        grammar_with([Const(1)]), ("x",), TWO,
        SygusSyntaxError, f"Const(value=1) in 'Start' {NOT_A_LEAF}",
    ),
    "unbound leaf": (
        grammar_with([Var("y")]), ("x",), TWO,
        SygusSyntaxError, f"Var(name='y') in 'Start' {NOT_A_LEAF}",
    ),
    "wide leaf": (
        grammar_with([Const(BitVecValue(64, 0x1FF))]), ("x",), TWO,
        SygusSyntaxError, f"Const(value=BitVecValue(width=64, bits=511)) in 'Start' {NOT_A_LEAF}",
    ),
    "binary bvnot": (
        Grammar(("Start",), {"Start": BINARY_BVNOT}, "Start"), ("x",), (Example((0x0F,), 0xF0),),
        SygusSyntaxError, "'bvnot' of 2 operands in 'Start' is not a catalogue operator",
    ),
    "vacuous nonterminals": (
        grammar_with(
            [OpRule("bvand", ("Start", "C"))],
            C=(OpRule("bvnot", ("D",)),), D=(OpRule("bvand", ("C", "Start")),),
        ),
        ("x",), TWO,
        SygusSyntaxError, "nonterminal 'C' derives no finite expression",
    ),
    "equal inputs": (
        LIBRARY_BASE, ("x",), (Example((3,), 1), Example((5,), 4), Example((3,), 2)),
        InconsistentExamples, "examples 0 and 2 share inputs but disagree on output",
    ),
    "repeated parameter": (
        LIBRARY_BASE, ("x", "x"), (Example((3, 3), 1),),
        SygusSyntaxError, "parameter 'x' is repeated",
    ),
}


@pytest.mark.parametrize(
    "grammar, params, examples, error, message", LIBRARY_INPUT.values(), ids=list(LIBRARY_INPUT)
)
def test_a_problem_the_parser_rejects_fails_when_it_is_built(grammar, params, examples, error, message):
    # Built directly, it skips the parser, but a Problem runs the parser's own
    # checks when it is built, and so does ``_replace`` of a good one, so no
    # engine over it exists.  Each message names the first bad parameter,
    # nonterminal or operand in declaration order.
    good = Problem("f", ("x",), 8, LIBRARY_BASE, TWO)
    fields = dict(grammar=grammar, params=params, examples=examples)
    bad = {k: v for k, v in fields.items() if v != getattr(good, k)}  # the fields that differ
    assert bad
    for build in (lambda: Problem("f", params, 8, grammar, examples), lambda: good._replace(**bad)):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()


def test_a_hit_deeper_than_the_recursion_limit_is_solved():
    # The first expression worth 300 on input 1 over x and bvadd is the chain
    # (bvadd x (bvadd x ... x)), 299 applications deep.  No step from the hit to
    # the verified solution recurses, so it solves with the limit below that depth.
    p = problem_of(grammar_of(["bvadd"], consts=()), [(1, 300)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(sum(1 for _ in traceback.walk_stack(None)) + 100)
    try:
        result = solve_problem(p, SearchLimits(max_size=600))
    finally:
        sys.setrecursionlimit(limit)
    assert result.stats.solution_size == 599


def test_stats_counters_are_consistent():
    p = problem_of(grammar_of(BASE_OPS, width=8), [(3, 1), (12, 9), (7, 2)], width=8)
    stats = solve_problem(p).stats
    assert stats.pruned_duplicates + stats.signatures_stored == stats.evaluations
    assert stats.candidates > 0
    assert stats.solution_size >= 1
    assert stats.phase1_ms >= 0 and stats.phase2_ms >= 0


def test_verify_solution_raises_on_wrong_program():
    cases = [
        ([(3, 6)], 0),
        # x is wrong on examples 2 and 4; the first one is reported
        ([(1, 1), (2, 2), (3, 9), (4, 4), (5, 7)], 2),
    ]
    for pairs, first_wrong in cases:
        p = problem_of(grammar_of(BASE_OPS), pairs)
        with pytest.raises(VerificationFailed) as info:
            verify_solution(p, Var("x"))
        assert info.value.index == first_wrong


def test_size_budget_maps_to_unsolvable_example():
    p = problem_of(grammar_of(["bvadd"]), [(3, 6)])  # needs bvadd(x, x), size 3
    with pytest.raises(UnsolvableExample):
        solve_problem(p, SearchLimits(max_size=2))
    result = solve_problem(p, SearchLimits(max_size=3))
    assert result.solution == app("bvadd", Var("x"), Var("x"))


def test_grammar_violation_surfaces_from_solve():
    # Terminal search draws from Start, but the if0 branch nonterminal can
    # only derive the zero constant, so the assembled tree leaves the grammar.
    from bvsynth.errors import GrammarViolation
    from bvsynth.frontend import Example, Grammar, OpRule, Problem
    from bvsynth.semantics import BitVecValue, Const, Var

    w = 8
    grammar = Grammar(
        ("Start", "Cond", "Term"),
        {
            "Start": (
                Var("x"),
                Const(BitVecValue(w, 1)),
                OpRule("if0", ("Cond", "Term", "Term")),
            ),
            "Cond": (
                Var("x"),
                Const(BitVecValue(w, 1)),
                OpRule("bvand", ("Cond", "Cond")),
            ),
            "Term": (Const(BitVecValue(w, 0)),),
        },
        "Start",
    )
    examples = (
        Example((4,), 4),
        Example((3,), 1),
    )
    problem = Problem("f", ("x",), w, grammar, examples)
    with pytest.raises(GrammarViolation):
        solve_problem(problem)


def test_timeout_raises_between_batches():
    # An unreachable output forces a long search; a zero budget must stop it
    # at the first 4096-evaluation checkpoint, and fail the example it stopped.
    p = problem_of(grammar_of(BASE_OPS), [(0x1234, 0xDEADBEEF)])
    with pytest.raises(UnsolvableExample) as info:
        solve_problem(p, SearchLimits(max_size=30, timeout=0.0))
    assert isinstance(info.value.__cause__, TimeoutExceeded)
    assert str(info.value) == (
        "no terminal expression found for example 0: wall clock expired after 4096 evaluations"
    )


# Start derives x, 1 and if0 only; its conditions come from Cond, whose every
# expression is an even constant, so no condition ever separates two examples
# and only a budget or the deadline ends the search for one.
EVEN_CONDITIONS = Grammar(
    ("Start", "Cond"),
    {
        "Start": (Var("x"), const(64, 1), OpRule("if0", ("Cond", "Start", "Start"))),
        "Cond": (const(64, 2), const(64, 4), OpRule("bvadd", ("Cond", "Cond")),
                 OpRule("bvor", ("Cond", "Cond"))),
    },
    "Start",
)
FAR = [(0x1234, 0xDEADBEEF)]  # an output no small expression of BASE_OPS reaches


@pytest.mark.parametrize(
    "grammar, pairs, limits, failure, end",
    [
        # the size budget, the candidate budget, the deadline and exhaustion of a terminal search
        (grammar_of(BASE_OPS), FAR, SearchLimits(max_size=4),
         "no terminal expression found for example 0: size budget 4 exhausted", NotFound),
        (grammar_of(BASE_OPS), FAR, SearchLimits(max_size=30, max_candidates=2_000),
         "no terminal expression found for example 0: candidate budget 2000 exhausted", NotFound),
        (grammar_of(BASE_OPS), FAR, SearchLimits(max_size=30, timeout=0.0),
         "no terminal expression found for example 0: wall clock expired after", TimeoutExceeded),
        (grammar_of([]), [(1, 1), (3, 6)], SearchLimits(),
         "no terminal expression found for example 1: grammar language fully enumerated",
         Exhausted),
        # the same ends of a condition search, after both terminals are found
        (grammar_of(BASE_OPS), [(0, 0), (5, 1)], SearchLimits(max_size=1),
         "no condition separates examples 0 and 1: size budget 1 exhausted", NotFound),
        (EVEN_CONDITIONS, [(0, 0), (5, 1)], SearchLimits(max_size=400, max_candidates=100),
         "no condition separates examples 0 and 1: candidate budget 100 exhausted", NotFound),
        (EVEN_CONDITIONS, [(0, 0), (5, 1)], SearchLimits(max_size=400, timeout=0.0),
         "no condition separates examples 0 and 1: wall clock expired after", TimeoutExceeded),
        (grammar_of([]), [(0, 0), (5, 1)], SearchLimits(),
         "no condition separates examples 0 and 1: grammar language fully enumerated",
         Exhausted),
    ],
    ids=[f"{search}-{end}" for search in ("terminal", "condition")
         for end in ("size", "candidates", "deadline", "exhausted")],
)
def test_every_end_of_the_stream_fails_the_search_it_stopped(grammar, pairs, limits, failure, end):
    kind = UnsolvableExample if failure.startswith("no terminal") else UnunifiablePair
    with pytest.raises(kind) as info:
        solve_problem(problem_of(grammar, pairs), limits)
    assert str(info.value).startswith(failure)
    assert type(info.value.__cause__) is end


def test_run_stats_lines_render():
    p = problem_of(grammar_of(BASE_OPS), [(5, 5)])
    lines = solve_problem(p).stats.lines()
    assert any(line.startswith("candidates:") for line in lines)
    assert any(line.startswith("solution size:") for line in lines)


@pytest.fixture
def engine_refs(monkeypatch):
    """Weak references to every engine a solve builds, with cyclic GC off,
    so an engine stays alive exactly as long as something refers to it."""
    refs: list = []
    for_problem = EnumerationState.for_problem.__func__

    def capture(cls, *args, **kwargs):
        engine = for_problem(cls, *args, **kwargs)
        refs.append(weakref.ref(engine))
        return engine

    monkeypatch.setattr(EnumerationState, "for_problem", classmethod(capture))
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield refs
    finally:
        if enabled:
            gc.enable()


def test_engine_is_freed_when_solve_succeeds(engine_refs):
    p = problem_of(grammar_of(BASE_OPS, width=8), [(0x0, 0x0), (0x2, 0x2), (0x1, 0xFE), (0x3, 0xFC)], width=8)
    result = solve_problem(p)
    assert result.stats.internal_nodes == 2
    assert len(engine_refs) == 1 and engine_refs[0]() is None


def test_engine_is_freed_when_an_example_is_unsolvable(engine_refs):
    p = problem_of(grammar_of(BASE_OPS), [(0x1234, 0xDEADBEEF)])
    try:
        solve_problem(p, SearchLimits(max_size=4))
    except UnsolvableExample:
        pass
    else:
        pytest.fail("size budget 4 cannot reach the output")
    assert len(engine_refs) == 1 and engine_refs[0]() is None


def test_engine_is_freed_when_the_solve_times_out(engine_refs):
    p = problem_of(grammar_of(BASE_OPS), [(0x1234, 0xDEADBEEF)])
    try:
        solve_problem(p, SearchLimits(max_size=30, timeout=0.0))
    except UnsolvableExample as exc:
        assert isinstance(exc.__cause__, TimeoutExceeded)
    else:
        pytest.fail("a zero time budget must stop the search")
    assert len(engine_refs) == 1 and engine_refs[0]() is None
