"""Candidate ordering, signature pruning, search minimality, and exhaustion."""

from __future__ import annotations

import gc
import hashlib
import sys
import time
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bvsynth.enumeration import (
    EnumerationState, SearchLimits, expr_of, pack, signature_of, size_splits
)
from bvsynth.errors import Exhausted, NotFound, SynthesisFailure, TimeoutExceeded
from bvsynth.frontend import Example, Grammar, OpRule, Problem
from bvsynth.semantics import (
    COMMUTATIVE, App, BitVecValue, Const, Var, expr_to_sexpr, subexpressions
)

import bruteforce
from helpers import (
    UnskippedState, app, const, engine_for, events, grammar_of, mirror_pairs, problem_of,
    retained, rows_of,
)
from test_solver import EVEN_CONDITIONS
from test_unify import START_COND_TERM


def test_size_splits_are_lexicographic():
    assert list(size_splits(4, 2)) == [(1, 3), (2, 2), (3, 1)]
    assert list(size_splits(5, 3)) == [
        (1, 1, 3),
        (1, 2, 2),
        (1, 3, 1),
        (2, 1, 2),
        (2, 2, 1),
        (3, 1, 1),
    ]
    assert list(size_splits(1, 2)) == []


def test_signature_of_examples():
    rows = [(1,), (2,), (3,)]
    assert signature_of(Var("x"), ("x",), rows, 64) == (1, 2, 3)
    annihilated = app("bvand", Var("x"), const(64, 0))
    assert signature_of(annihilated, ("x",), rows, 64) == signature_of(const(64, 0), ("x",), rows, 64)
    assert signature_of(app("bvxor", Var("x"), Var("x")), ("x",), [(5,), (9,)], 64) == (0, 0)


def small_problem(pairs=((0x0, 0x0), (0xF, 0xF)), ops=("bvnot", "bvand"), width=8):
    return problem_of(grammar_of(list(ops), width=width), list(pairs), width=width)


def test_first_candidates_are_terminals_in_production_order():
    p = small_problem()
    eng = engine_for(p)
    first_three = [found.expr for found in islice(events(eng), 3)]
    assert first_three == [Var("x"), const(8, 0), const(8, 1)]


def test_indistinguishable_expr_never_composed():
    # bvand(#x0, x) evaluates like #x0 everywhere, so it is pruned: never
    # stored, never offered to a search and never inside a retained subexpression.
    p = small_problem()
    eng = engine_for(p, SearchLimits(max_size=4))
    dead = App("bvand", (const(8, 0), Var("x")))
    entries = retained(eng, "Start")
    assert all(dead not in subexpressions(e) for e, _ in entries)
    sig = signature_of(dead, ("x",), rows_of(p), 8)
    rep = dict((s, e) for e, s in entries)[sig]
    assert rep == const(8, 0)


def test_retained_signatures_match_unpruned_bruteforce_size3():
    p = small_problem()
    eng = engine_for(p, SearchLimits(max_size=3))
    kept = retained(eng, "Start")
    unpruned = bruteforce.signatures_up_to(
        p.grammar, "Start", 3, ("x",), rows_of(p), 8, exclude=frozenset({"if0"})
    )
    assert {s for _, s in kept} == unpruned
    assert len(kept) == len(unpruned)


@pytest.mark.parametrize("max_size", [4, 5])
def test_pruning_soundness_on_fixed_instance(max_size):
    p = problem_of(grammar_of(["bvnot", "shr1", "bvadd"], width=8), [(3, 1), (7, 2), (10, 5)], width=8)
    eng = engine_for(p, SearchLimits(max_size=max_size))
    kept = {s for _, s in retained(eng, "Start")}
    assert kept == bruteforce.signatures_up_to(
        p.grammar, "Start", max_size, ("x",), rows_of(p), 8, exclude=frozenset({"if0"})
    )


def test_enumerate_until_identity():
    p = problem_of(grammar_of(["bvnot", "bvand"]), [(5, 5)])
    eng = engine_for(p, SearchLimits(max_size=6, max_candidates=10_000))
    found = eng.enumerate_until(eng.example_equals(0, 5))
    assert found.expr == Var("x")
    assert found.expr.size == 1


def test_enumerate_until_doubling_needs_size3():
    grammar = grammar_of(["bvadd", "bvand", "bvor"])
    p = problem_of(grammar, [(5, 10)])
    oracle = bruteforce.min_matching(
        grammar, ("x",), rows_of(p), 64, lambda sig: sig[0] == 10, 5, exclude=frozenset({"if0"})
    )
    assert oracle is not None and oracle[0] == 3  # no size-1/2 solution exists
    eng = engine_for(p, SearchLimits(max_size=6, max_candidates=100_000))
    found = eng.enumerate_until(eng.example_equals(0, 10))
    assert found.expr == app("bvadd", Var("x"), Var("x"))


def test_enumerate_until_not_found_on_size_budget():
    p = problem_of(grammar_of(["bvnot", "bvand"]), [(5, 5)])
    eng = engine_for(p, SearchLimits(max_size=5, max_candidates=10_000_000))
    with pytest.raises(NotFound):
        eng.enumerate_until(lambda sig: False)


def test_enumerate_until_not_found_on_candidate_budget():
    p = problem_of(grammar_of(["bvnot", "bvand", "bvor", "bvadd"]), [(5, 5)])
    eng = engine_for(p, SearchLimits(max_size=30, max_candidates=100))
    with pytest.raises(NotFound, match="candidate budget"):
        eng.enumerate_until(lambda sig: False)


def test_deadline_checked_during_pool_rescan():
    # The pools already hold layer 9, so the search below constructs
    # nothing: only the re-scan of more than 4,096 entries can see the
    # expired deadline.
    grammar = grammar_of(["bvnot", "shr1", "bvand", "bvadd", "bvxor"])
    p = problem_of(grammar, [(3, 1), (7, 2), (10, 5), (200, 9)])
    eng = engine_for(p, SearchLimits(max_size=9, max_candidates=10**6))
    assert len(retained(eng, "Start")) > 4096
    built = (eng.evaluations, eng.stored, eng.pruned)
    eng.deadline = time.monotonic() - 1.0
    with pytest.raises(TimeoutExceeded):
        eng.enumerate_until(lambda sig: False)
    assert (eng.evaluations, eng.stored, eng.pruned) == built


def counters(eng):
    return eng.evaluations, eng.stored, eng.pruned, eng.inspected


def test_deadline_stops_the_stream_with_published_counters():
    # An expired deadline is seen at the 4,096th construction, which is
    # stored or pruned like any other but not inspected; of those before it,
    # only the stored ones were.
    eng = engine_for(LAZY_PROBLEM, SearchLimits(max_size=8, max_candidates=10**6))
    eng.deadline = time.monotonic() - 1.0
    with pytest.raises(TimeoutExceeded, match="after 4096 evaluations"):
        eng.enumerate_until(lambda sig: False)
    assert eng.evaluations == eng.stored + eng.pruned == 4096
    assert eng.inspected == 2015
    # The stream has ended; a later search raises the same end.
    with pytest.raises(TimeoutExceeded, match="^wall clock expired after 4096 evaluations$"):
        eng.enumerate_until(lambda sig: False)


def test_size_stop_ends_the_stream_before_the_next_layer():
    # Layer 2 holds 5 retained expressions (shl1(#x00) repeats #x00), and the
    # first construction of layer 3 would be shl1(shl1(x)).  The size-2 search
    # stops before building it, having inspected the 8 retained expressions
    # and not the pruned one, and the stream stays ended: a second search
    # re-scans the 8 and stops on the size budget again without building anything.
    p = problem_of(grammar_of(["shl1", "bvnot", "bvand"], width=8), [(3, 0), (5, 0)], width=8)
    eng = engine_for(p, SearchLimits(max_size=2))
    with pytest.raises(NotFound, match="^size budget 2 exhausted$"):
        eng.enumerate_until(lambda sig: False)
    assert counters(eng) == (9, 8, 1, 8)
    assert not any(layer for pools in eng._pools.values() for layer in pools[3:])
    with pytest.raises(NotFound, match="^size budget 2 exhausted$"):
        eng.enumerate_until(lambda sig: False)
    assert counters(eng) == (9, 8, 1, 16)


# x | bvadd: x, then (bvadd x x) at size 3 and (bvadd x (bvadd x x)) at size 5;
# no even size exists, and the language never runs out.  x | bvnot: x, (bvnot
# x), then (bvnot (bvnot x)) at size 3 repeats x, so the pruned language ends
# at size 2 and budgets from 3 on see it run out.  The last column counts the
# constructions of sizes up to the budget, the pruned double negation included.
SIZE_VERDICTS = [
    ("bvadd", 1, NotFound, "size budget 1 exhausted", 1),
    ("bvadd", 2, NotFound, "size budget 2 exhausted", 1),
    ("bvadd", 3, NotFound, "size budget 3 exhausted", 2),
    ("bvadd", 4, NotFound, "size budget 4 exhausted", 2),
    ("bvnot", 1, NotFound, "size budget 1 exhausted", 1),
    ("bvnot", 2, NotFound, "size budget 2 exhausted", 2),
    ("bvnot", 3, Exhausted, "grammar language fully enumerated", 3),
    ("bvnot", 4, Exhausted, "grammar language fully enumerated", 3),
]


@pytest.mark.parametrize(
    "op, budget, kind, text, built", SIZE_VERDICTS,
    ids=[f"{op}-{b}" for op, b, *_ in SIZE_VERDICTS],
)
def test_size_budget_verdicts_build_nothing_above_the_budget(op, budget, kind, text, built):
    p = problem_of(grammar_of([op], consts=()), [(5, 5)])
    eng = engine_for(p, SearchLimits(max_size=budget))
    with pytest.raises(kind) as verdict:
        eng.enumerate_until(lambda sig: False)
    assert str(verdict.value) == text
    # Exactly the constructions of sizes up to the budget are built.
    assert eng.evaluations == built
    assert all(e.size <= budget for e, _ in retained(eng, "Start"))


def never_grammar() -> Grammar:
    """``grammar_of(["shl1", "bvnot", "bvand"], width=8)`` plus a nonterminal
    ``Never`` whose one rule, ``(bvand Start Start)``, builds nothing below size 3,
    so its searches re-scan and inspect nothing while the stream ends sooner."""
    base = grammar_of(["shl1", "bvnot", "bvand"], width=8)
    never = (OpRule("bvand", ("Start", "Start")),)
    return Grammar(base.nonterminals + ("Never",), {**base.productions, "Never": never}, "Start")


NEVER_PROBLEM = problem_of(never_grammar(), [(3, 0), (5, 0)], width=8)


def test_candidate_budget_ends_the_stream_for_every_later_search():
    # The first search builds x, #x00, #x01, shl1 of each (shl1(#x00) repeats
    # #x00), bvnot(x) and then bvnot(#x00), the 8th construction, which is past
    # the budget of 7 and ends the stream.  The later searches build nothing.
    eng = engine_for(NEVER_PROBLEM, SearchLimits(max_size=4, max_candidates=7))
    for _ in range(3):
        with pytest.raises(NotFound, match="^candidate budget 7 exhausted$"):
            eng.enumerate_until(lambda sig: False, nt="Never")
        assert counters(eng) == (8, 7, 1, 0)


def test_a_search_after_close_raises_on_a_stream_that_never_ended():
    eng = engine_for(small_problem())
    eng.enumerate_until(lambda sig: True)
    eng.close()
    assert eng.enumerate_until(lambda sig: True).expr == Var("x")  # the re-scan still answers
    with pytest.raises(SynthesisFailure, match="^enumeration closed$"):
        eng.enumerate_until(lambda sig: False)
    assert counters(eng) == (1, 1, 0, 3)


def test_exhausted_when_pruned_language_is_finite():
    # With only x and bvnot, every expression beyond size 2 repeats a
    # signature, so the pruned language is finite.
    p = problem_of(grammar_of(["bvnot"], consts=()), [(5, 5)])
    limits = SearchLimits(max_size=50, max_candidates=10_000)
    eng = engine_for(p, limits)
    stream = [found.expr for found in events(eng)]
    assert stream == [Var("x"), app("bvnot", Var("x"))]
    assert [e for e, _ in retained(eng, "Start")] == stream
    # The double negation was constructed and pruned.
    assert (eng.evaluations, eng.stored, eng.pruned) == (3, 2, 1)
    with pytest.raises(Exhausted):
        eng.enumerate_until(lambda sig: False)
    eng2 = engine_for(p, limits)
    with pytest.raises(Exhausted):
        eng2.enumerate_until(lambda sig: False)


def test_emission_sizes_are_monotone():
    p = small_problem(ops=("bvnot", "shr1", "bvand", "bvadd"))
    eng = engine_for(p)
    sizes = [found.expr.size for found in islice(events(eng), 300)]
    assert sizes == sorted(sizes)


def test_two_runs_emit_identical_streams():
    p = small_problem(ops=("bvnot", "shr1", "bvand", "bvadd"))
    a = engine_for(p)
    b = engine_for(p)
    assert list(islice(events(a), 250)) == list(islice(events(b), 250))
    assert (a.evaluations, a.stored, a.pruned) == (b.evaluations, b.stored, b.pruned)


def test_resumed_search_preserves_minimality():
    # A second search over the shared stream must still return an
    # expression of globally minimal size, as a fresh engine would.
    grammar = grammar_of(["bvnot", "shr1", "bvand", "bvadd"], width=8)
    p = problem_of(grammar, [(3, 6), (5, 0xFA)], width=8)
    limits = SearchLimits(max_size=8, max_candidates=10**6)
    eng = engine_for(p, limits)
    eng.enumerate_until(eng.example_equals(0, 6))
    resumed = eng.enumerate_until(eng.example_equals(1, 0xFA))
    fresh_eng = engine_for(p, limits)
    fresh = fresh_eng.enumerate_until(fresh_eng.example_equals(1, 0xFA))
    assert resumed.expr.size == fresh.expr.size
    oracle = bruteforce.min_matching(
        grammar, ("x",), rows_of(p), 8, lambda sig: sig[1] == 0xFA, 8, exclude=frozenset({"if0"})
    )
    assert oracle is not None and oracle[0] == resumed.expr.size


def test_minimality_matches_oracle_on_random_predicates():
    import random

    rng = random.Random(20240817)
    grammar = grammar_of(["bvnot", "shr1", "bvadd"], width=8)
    p = problem_of(grammar, [(3, 0), (12, 0)], width=8)
    rows = rows_of(p)
    targets = set()
    memo: dict = {}
    for s in range(1, 5):
        for e in bruteforce.exprs_of_size(grammar, "Start", s, frozenset({"if0"}), memo):
            targets.add(bruteforce.signature_on(e, ("x",), rows, 8))
    for sig_target in sorted(targets):
        oracle = bruteforce.min_matching(
            grammar, ("x",), rows, 8, lambda sig: sig == sig_target, 4, exclude=frozenset({"if0"})
        )
        assert oracle is not None
        eng = engine_for(p, SearchLimits(max_size=4, max_candidates=10**6))
        found = eng.enumerate_until(lambda s: s == pack(sig_target, 8))
        assert found.expr.size == oracle[0], sig_target


def test_exclusion_set_is_respected():
    # if0 is never enumerated, not even as a pruned candidate: the engine
    # builds exactly what it builds for the same grammar without if0.
    p = small_problem(ops=("bvnot", "bvadd"))
    limits = SearchLimits(max_size=5)
    eng = engine_for(p, limits)
    kept = retained(eng, "Start")
    for expr, _ in kept:
        assert all(not (isinstance(e, App) and e.op == "if0") for e in subexpressions(expr))
    no_if0 = grammar_of(["bvnot", "bvadd"], width=8, with_if0=False)
    plain = EnumerationState(p._replace(grammar=no_if0), limits)
    assert retained(plain, "Start") == kept
    counters = lambda e: (e.evaluations, e.stored, e.pruned)
    assert counters(plain) == counters(eng)


def test_stats_counters_consistent():
    p = small_problem(ops=("bvnot", "bvand", "bvadd"))
    eng = engine_for(p, SearchLimits(max_size=5))
    retained(eng, "Start")
    assert eng.stored + eng.pruned == eng.evaluations
    pools = eng._pools.values()
    assert eng.stored == sum(len(layer) for layer_list in pools for layer in layer_list)


@pytest.fixture
def apps_built(monkeypatch):
    """A one-element list counting every ``App`` constructed from now on."""
    built = [0]
    init = App.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(App, "__init__", counting)
    return built


def _lazy_store_problem():
    """Three width-64 examples whose outputs no expression below size 7 gives
    on every lane, so a search for them builds thousands of candidates."""
    grammar = grammar_of(["bvnot", "shl1", "shr1", "shr4", "bvand", "bvor", "bvxor", "bvadd"])
    inputs = [(3,), (0x5A17,), (0xDEADBEEFC7,)]
    target = app("bvadd", app("shr1", app("shr4", Var("x"))), app("bvnot", app("shl1", Var("x"))))
    outputs = signature_of(target, ("x",), inputs, 64)
    return problem_of(grammar, [(i, o) for (i,), o in zip(inputs, outputs)]), outputs


# Built before any test counts App constructions.
LAZY_PROBLEM, LAZY_OUTPUTS = _lazy_store_problem()


# Each end of the stream: a problem, its budgets, and the type and text the end
# raises.  LAZY_PROBLEM's expired deadline is seen at the 4,096th construction.
STREAM_ENDS = {
    "size": (NEVER_PROBLEM, SearchLimits(max_size=2), NotFound, "size budget 2 exhausted"),
    "candidate": (
        NEVER_PROBLEM, SearchLimits(max_size=4, max_candidates=7),
        NotFound, "candidate budget 7 exhausted",
    ),
    "exhaustion": (
        problem_of(grammar_of(["bvnot"], consts=()), [(5, 5)]), SearchLimits(),
        Exhausted, "grammar language fully enumerated",
    ),
    "deadline": (
        LAZY_PROBLEM, SearchLimits(max_size=8, timeout=0.0),
        TimeoutExceeded, "wall clock expired after 4096 evaluations",
    ),
}


@pytest.mark.parametrize("end", sorted(STREAM_ENDS))
def test_every_end_of_the_stream_is_raised_again_by_every_later_search(end):
    problem, limits, kind, text = STREAM_ENDS[end]
    eng = engine_for(problem, limits)
    with pytest.raises(kind, match=f"^{text}$"):
        eng.enumerate_until(lambda sig: False)
    # A later search only re-scans the pools, then raises the same end.
    *built, inspected = counters(eng)
    rescanned = sum(map(len, eng._pools["Start"]))
    with pytest.raises(kind, match=f"^{text}$"):
        eng.enumerate_until(lambda sig: False)
    assert counters(eng) == (*built, inspected + rescanned)
    # Closing keeps the end, so a search after close() raises it too.
    eng.close()
    with pytest.raises(kind, match=f"^{text}$"):
        eng.enumerate_until(lambda sig: False)
    assert counters(eng) == (*built, inspected + 2 * rescanned)


def test_a_search_tests_each_stored_signature_once():
    # A pruned construction repeats a signature the search has already tested,
    # by the re-scan or by the stream, so it is never offered again: a search
    # that fails tests exactly the nodes of its pool, in pool order, whether
    # it resumes the stream in the middle of a layer or only re-scans.
    eng = engine_for(LAZY_PROBLEM, SearchLimits(max_size=6, max_candidates=10**6))
    eng.enumerate_until(eng.example_equals(2, 0xDEADBEEFC7 << 1))
    for _ in range(2):
        tested = []
        with pytest.raises(NotFound, match="^size budget 6 exhausted$"):
            eng.enumerate_until(lambda sig: tested.append(sig))  # None: rejects every one
        assert tested == [node[0] for layer in eng._pools["Start"] for node in layer]
    assert eng.pruned > eng.stored > 1000


def test_failed_search_builds_no_expression(apps_built):
    eng = engine_for(LAZY_PROBLEM, SearchLimits(max_size=6, max_candidates=10**6))
    with pytest.raises(NotFound):
        eng.enumerate_until(lambda sig: False)
    assert eng.evaluations > 1000
    assert apps_built[0] == 0


def test_successful_search_builds_only_the_accepted_expression(apps_built):
    eng = engine_for(LAZY_PROBLEM, SearchLimits(max_size=8, max_candidates=10**6))
    result = eng.enumerate_until(lambda sig: sig == pack(LAZY_OUTPUTS, 64))
    assert result.expr.size == 7 and eng.evaluations > 4000
    assert 1 <= apps_built[0] <= result.expr.size


def test_each_stored_expression_is_one_tracked_object():
    # A retained expression is one tuple that carries its own signature.  With
    # the collector off, tracked objects are freed only by reference counting,
    # so what is left after the search is the store plus a few lists and frames.
    eng = engine_for(LAZY_PROBLEM, SearchLimits(max_size=6, max_candidates=10**6))
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        try:
            eng.enumerate_until(lambda sig: False)
        except NotFound:
            pass
        grown = len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()
    assert eng.stored > 1000
    assert grown <= eng.stored + 50


@st.composite
def mirror_cases(draw):
    """A two-nonterminal grammar, its example inputs, a size budget and a
    search sequence.

    Start always has a commutative operator over Start and B and a bvsub over
    Start twice, neither of which has mirrors; the commutative productions over
    Start twice, B twice (at B) and B twice (at Start) come and go.  Lanes are
    at most 6 bits wide in all, so every store stays small."""
    width = draw(st.integers(2, 3))
    n = draw(st.integers(2, 6 // width))
    top = (1 << width) - 1
    commutative = st.sampled_from(sorted(COMMUTATIVE))
    some = st.lists(commutative, max_size=2, unique=True)
    start = [Var("x"), Const(BitVecValue(width, draw(st.integers(0, top))))]
    start += [OpRule(draw(commutative), ("Start", "B")), OpRule("bvsub", ("Start", "Start"))]
    start += [OpRule(op, ("Start", "Start")) for op in draw(some)]
    start += [OpRule(op, ("B", "B")) for op in draw(some)]
    start += [OpRule("bvnot", ("Start",))] * draw(st.integers(0, 1))
    b = [Const(BitVecValue(width, draw(st.integers(0, top)))), Var("x")]
    b += [OpRule(op, ("B", "B")) for op in draw(some)] + [OpRule("shl1", ("B",))]
    productions = {
        "Start": tuple(draw(st.permutations(start))) + (OpRule("if0", ("Start",) * 3),),
        "B": tuple(draw(st.permutations(b))),
    }
    grammar = Grammar(("Start", "B"), productions, "Start")
    rows = [(draw(st.integers(0, top)),) for _ in range(n)]
    search = st.tuples(
        st.sampled_from(["equals", "separates"]),
        st.integers(0, n - 1),
        st.integers(0, top),
        st.sampled_from(["Start", "B"]),
    )
    max_size = draw(st.integers(1, 5))
    return grammar, width, rows, max_size, draw(st.lists(search, min_size=1, max_size=6))


def engine_of(cls, grammar, width, rows, max_size):
    """An engine of ``cls`` over ``rows`` whose searches are bounded by
    ``max_size`` only; no search here reads the outputs, so each is 0."""
    examples = [Example(row, 0) for row in rows]
    return cls(Problem("f", ("x",), width, grammar, examples), SearchLimits(max_size, sys.maxsize))


def predicate(engine, kind, k, value):
    """The acceptance predicate one drawn search names."""
    if kind == "equals":
        return engine.example_equals(k, value)
    return engine.separates(k, value % engine.ones.bit_count())  # one bit per lane


def outcome(engine, kind, k, value, nt):
    """The hit of one search, or the name and text of the error that ends it."""
    try:
        found = engine.enumerate_until(predicate(engine, kind, k, value), nt)
    except (NotFound, Exhausted) as exc:
        return type(exc).__name__, str(exc)
    return found.expr, found.signature


def drive_to_budget(engine):
    """Build every layer up to the size budget with a search that accepts
    nothing; the name of the error that ends it."""
    with pytest.raises((NotFound, Exhausted)) as stop:
        engine.enumerate_until(lambda sig: False)
    return stop.type.__name__


MIRROR_GRAMMAR = Grammar(
    ("Start", "B"),
    {
        "Start": (
            Var("x"),
            OpRule("bvadd", ("B", "B")),
            OpRule("bvadd", ("Start", "B")),
            OpRule("bvsub", ("Start", "Start")),
            OpRule("bvadd", ("Start", "Start")),
            const(3, 0),
            OpRule("bvand", ("B", "B")),
            OpRule("if0", ("Start",) * 3),
        ),
        "B": (const(3, 3), Var("x"), OpRule("shl1", ("B",))),
    },
    "Start",
)


@settings(max_examples=150, deadline=None)
@given(mirror_cases())
# After the size-3 hit (bvadd #b011 x), the last search resumes the stream in
# the middle of layer 3: its hit (bvadd x x) is the next construction in the
# skipping engine, and the one after the mirror (bvadd x #b011) in the other.
@example(
    (
        MIRROR_GRAMMAR,
        3,
        [(4,), (1,)],
        3,
        [("equals", 0, 0, "Start"), ("equals", 0, 7, "Start"), ("equals", 1, 2, "Start")],
    )
)
def test_skipping_mirrors_keeps_every_hit_pool_and_store(case):
    # Against the stream that builds every mirror: the same hits in the same
    # order and the same retained pools after every search, and exactly the
    # mirrors fewer built.  A mirror repeats the signature of a construction
    # before it, so it is never stored and never the first hit.
    grammar, width, rows, max_size, searches = case
    skipping = engine_of(EnumerationState, grammar, width, rows, max_size)
    unskipped = engine_of(UnskippedState, grammar, width, rows, max_size)
    for search in searches:
        assert outcome(skipping, *search) == outcome(unskipped, *search)
        assert skipping._pools == unskipped._pools
    final = [drive_to_budget(engine) for engine in (skipping, unskipped)]
    assert final[0] == final[1]
    assert skipping._pools == unskipped._pools and skipping.stored == unskipped.stored
    assert unskipped.evaluations - skipping.evaluations == mirror_pairs(skipping)


# Start: x, #b00, (bvadd Start B), (bvsub Start Start); B: #b01, x, (shl1 B).
FIRST_HIT_GRAMMAR = Grammar(
    ("Start", "B"),
    {
        "Start": (
            Var("x"),
            const(2, 0),
            OpRule("bvadd", ("Start", "B")),
            OpRule("bvsub", ("Start", "Start")),
            OpRule("if0", ("Start",) * 3),
        ),
        "B": (const(2, 1), Var("x"), OpRule("shl1", ("B",))),
    },
    "Start",
)


@settings(max_examples=150, deadline=None)
@given(mirror_cases())
# The B search stops on (shl1 #b01), the first of the size-2 shl1 block.  The
# Start search re-scans x and #b00, then resumes that B block: its next node,
# (shl1 x), fits the Start predicate but is not a Start node, and Start has
# nothing of size 2, so the search ends on the size budget.
@example(
    (
        FIRST_HIT_GRAMMAR,
        2,
        [(1,), (0,)],
        2,
        [("equals", 0, 2, "B"), ("equals", 0, 2, "Start")],
    )
)
def test_each_search_finds_the_first_stored_node_that_fits(case):
    # On a shared stream, each search's hit is the first node, in pool order,
    # of the same nonterminal's complete store that its predicate accepts; a
    # search fails exactly when no such node exists.
    grammar, width, rows, max_size, searches = case
    shared = engine_of(EnumerationState, grammar, width, rows, max_size)
    complete = engine_of(EnumerationState, grammar, width, rows, max_size)
    drive_to_budget(complete)
    for kind, k, value, nt in searches:
        accept = predicate(complete, kind, k, value)
        pool = (node for layer in complete._pools[nt] for node in layer)
        first = next((node for node in pool if accept(node[0])), None)
        found = outcome(shared, kind, k, value, nt)
        if first is None:
            assert found[0] in ("NotFound", "Exhausted")
        else:
            assert found == (expr_of(first), first[0])


@settings(max_examples=100, deadline=None)
@given(mirror_cases())
def test_every_node_carries_its_own_signature(case):
    # Index 0 of every retained node, and of every hit, is the packed signature
    # the column evaluator gives the expression the node spells.
    grammar, width, rows, _, searches = case
    evaluated = lambda expr: pack(signature_of(expr, ("x",), rows, width), width)
    engine = engine_of(EnumerationState, grammar, width, rows, 5)
    for search in searches:
        found = outcome(engine, *search)
        if not isinstance(found[0], str):
            assert found[1] == evaluated(found[0])
    drive_to_budget(engine)
    nodes = [node for pools in engine._pools.values() for layer in pools for node in layer]
    assert len(nodes) == engine.stored
    assert all(node[0] == evaluated(expr_of(node)) for node in nodes)


# A three-row example list that fits every width below; with the size budget 5
# every grammar stores nodes at several nonterminals and sizes.
STREAM_ROWS = [(1,), (2,), (3,)]
STREAM_ORDER_SHA256 = "4b3f5fb05cc4959a81fc71fb81f746427de66a8190c0e4e132612cabb8d2e872"


def test_stream_order_of_multi_nonterminal_grammars_is_pinned():
    # Every retained node, as (nt, size, expression) in pool order, and the
    # counters of a stream driven to the size budget, over four grammars with
    # more than one nonterminal: a change to the order in which leaves, rules
    # or size splits are built changes the digest.
    digest = hashlib.sha256()
    for grammar, width in [
        (MIRROR_GRAMMAR, 3), (FIRST_HIT_GRAMMAR, 2), (START_COND_TERM, 8), (EVEN_CONDITIONS, 64)
    ]:
        engine = engine_of(EnumerationState, grammar, width, STREAM_ROWS, 5)
        drive_to_budget(engine)
        for nt in grammar.nonterminals:
            for size, layer in enumerate(engine._pools[nt]):
                for node in layer:
                    digest.update(repr((nt, size, expr_to_sexpr(expr_of(node)))).encode())
        digest.update(repr((engine.evaluations, engine.stored)).encode())
    assert digest.hexdigest() == STREAM_ORDER_SHA256


def test_expr_of_builds_a_deep_node_chain_without_recursion():
    node = (0, Var("x"))
    for _ in range(5_000):
        node = (0, "bvnot", node)
    expr = expr_of(node)
    assert expr.size == 5_001
    assert expr_to_sexpr(expr) == "(bvnot " * 5_000 + "x" + ")" * 5_000
