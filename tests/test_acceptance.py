"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion (add ``-s`` to also see the explicit summary prints).
"""

from __future__ import annotations

import csv
import random
import time
from functools import reduce
from operator import or_
from types import SimpleNamespace

import pytest

from bvsynth.cli import main as cli_main
from bvsynth.enumeration import EnumerationState
from bvsynth.errors import MissingIf0Rule, UnsupportedArity
from bvsynth.frontend import (
    Example,
    Grammar,
    OpRule,
    Problem,
    parse_problem,
)
from bvsynth.semantics import OPERATORS, BitVecValue, Const, Var, eval_expr, signature_of
from bvsynth.solver import SearchLimits, solve_problem
from bvsynth.corpus import derivable_size_table, sample_expr
from bvsynth.unify import Leaf, internal_node_count, map_terminals

import bruteforce
from helpers import (
    assert_covers,
    assigned,
    bits_where,
    conditions,
    contains_op,
    env_of,
    grammar_of,
    indices_of,
    leaves,
    problem_of,
    retained,
    route,
    rows_of,
)
from solution_reader import parse_solution

GEN_ARGS = [
    "gen", "--count", "200", "--seed", "1", "--size-min", "3", "--size-max", "7",
    "--examples", "8", "--width", "64",
]


def _gen_and_bench(base):
    corpus = base / "corpus"
    csv_path = base / "results.csv"
    solutions = base / "solutions"
    assert cli_main(GEN_ARGS + ["--out", str(corpus)]) == 0
    assert cli_main(["bench", str(corpus), "--csv", str(csv_path), "--solutions", str(solutions)]) == 0
    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    return SimpleNamespace(corpus=corpus, rows=rows, solutions=solutions)


@pytest.fixture(scope="session")
def run_a(tmp_path_factory):
    return _gen_and_bench(tmp_path_factory.mktemp("acceptance_a"))


@pytest.fixture(scope="session")
def run_b(tmp_path_factory):
    return _gen_and_bench(tmp_path_factory.mktemp("acceptance_b"))


def test_criterion_1_round_trip_corpus(run_a):
    """200/200 generated instances solve, verify, re-parse, and re-verify."""
    assert len(run_a.rows) == 200
    assert all(row["status"] == "solved" for row in run_a.rows)
    assert all(int(row["millis"]) < 10_000 for row in run_a.rows)
    for row in run_a.rows:
        problem = parse_problem(
            (run_a.corpus / row["file"]).read_text(encoding="utf-8")
        )
        sol_path = run_a.solutions / (row["file"].removesuffix(".sl") + ".sol")
        parsed = parse_solution(sol_path.read_text(encoding="utf-8"))
        assert parsed.name == problem.name
        assert parsed.width == problem.width
        assert parsed.body.size == int(row["solution_size"])
        for ex in problem.examples:
            env = env_of(parsed.params, problem.width, ex.inputs)
            assert eval_expr(parsed.body, env, problem.width).bits == ex.output
    print("criterion 1 (round-trip corpus, 200/200 solved+verified): PASS")


def _random_small_grammar(rng: random.Random, width: int) -> Grammar:
    # x, two constants, if0, and up to four sampled operators: at most
    # eight productions in total.
    op_pool = sorted(name for name in OPERATORS if name != "if0")
    ops = rng.sample(op_pool, rng.randint(2, 4))
    return grammar_of(ops, width=width)


def test_criterion_2_phase1_minimality_oracle():
    """Phase-1 sizes equal an independent unpruned brute-force minimum, 100/100."""
    started = time.monotonic()
    rng = random.Random(42)
    limits = SearchLimits(max_size=8, max_candidates=2_000_000)
    checked = 0
    while checked < 100:
        width = rng.choice((8, 64))
        grammar = _random_small_grammar(rng, width)
        assert sum(len(ps) for ps in grammar.productions.values()) <= 8
        # Targets come from the if0-free twin, which offers the same options
        # in the same order to the same rng calls, less if0.
        ops = [p.op for p in grammar.productions["Start"] if isinstance(p, OpRule)]
        twin = grammar_of([op for op in ops if op != "if0"], width=width, with_if0=False)
        table = derivable_size_table(twin, 6)
        feasible = [s for s in range(1, 7) if table["Start"][s]]
        target = sample_expr(twin, rng, rng.choice(feasible))
        value = rng.getrandbits(width)
        output = bruteforce.value_on(target, ("x",), (value,), width)
        problem = problem_of(grammar, [(value, output)], width=width)

        engine = EnumerationState.for_problem(problem, limits)
        tmap = map_terminals(problem, engine)
        solver_size = assigned(tmap, 0).size

        oracle = bruteforce.min_matching(
            grammar, ("x",), rows_of(problem), width,
            lambda sig: sig[0] == output, 6, exclude=frozenset({"if0"}),
        )
        assert oracle is not None
        assert solver_size == oracle[0], (grammar, value, output)
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"minimality oracle took {elapsed:.1f}s"
    print(f"criterion 2 (phase-1 minimality, 100/100 in {elapsed:.1f}s): PASS")


MULTI_NT_GRAMMARS = [
    Grammar(
        ("Start", "Cond"),
        {
            "Start": (
                Var("x"),
                Const(BitVecValue(8, 0)),
                OpRule("bvadd", ("Start", "Start")),
                OpRule("if0", ("Cond", "Start", "Start")),
            ),
            "Cond": (
                Var("x"),
                Const(BitVecValue(8, 1)),
                OpRule("bvand", ("Cond", "Cond")),
            ),
        },
        "Start",
    ),
    Grammar(
        ("Start", "Aux"),
        {
            "Start": (
                Var("x"),
                OpRule("bvxor", ("Start", "Aux")),
                OpRule("if0", ("Aux", "Start", "Start")),
            ),
            "Aux": (
                Const(BitVecValue(8, 1)),
                OpRule("shr1", ("Aux",)),
                OpRule("bvnot", ("Start",)),
            ),
        },
        "Start",
    ),
]


def test_criterion_3_pruning_soundness_oracle():
    """Pruned and unpruned signature sets agree at size <= 5, 50/50."""
    rng = random.Random(7)
    instances = []
    for grammar in MULTI_NT_GRAMMARS:
        rows = [(rng.getrandbits(8),) for _ in range(3)]
        instances.append((grammar, rows, 8))
    while len(instances) < 50:
        width = 8
        grammar = _random_small_grammar(rng, width)
        rows = [(rng.getrandbits(width),) for _ in range(rng.randint(2, 3))]
        instances.append((grammar, rows, width))

    for grammar, rows, width in instances:
        examples = [Example(row, 0) for row in rows]  # no search here reads the outputs
        engine = EnumerationState(Problem("f", ("x",), width, grammar, examples), SearchLimits(max_size=5))
        for nt in grammar.nonterminals:
            pruned = {sig for _, sig in retained(engine, nt)}
            unpruned = bruteforce.signatures_up_to(
                grammar, nt, 5, ("x",), rows, width, exclude=frozenset({"if0"})
            )
            assert pruned == unpruned, (nt, grammar)
    print("criterion 3 (pruning soundness, 50/50): PASS")


def test_criterion_4_tree_invariants_on_corpus(run_a):
    """Node bound, one-expression degenerate case, routing soundness, purity,
    and the cover property: a leaf wherever one found expression fits."""
    for path in sorted(run_a.corpus.glob("*.sl")):
        problem = parse_problem(path.read_text(encoding="utf-8"))
        result = solve_problem(problem)
        n = len(problem.examples)
        assert result.stats.internal_nodes <= n - 1  # (a)
        tree = result.tree
        if result.terminal_map.distinct() == 1:  # (b)
            assert tree == Leaf(result.solution, (1 << n) - 1)
            assert result.stats.internal_nodes == 0
            assert not contains_op(result.solution, "if0")
        assert internal_node_count(tree) == result.stats.internal_nodes
        buckets: list[int] = []
        for leaf in leaves(tree):
            assert leaf.bucket
            buckets.append(leaf.bucket)
            assert not contains_op(leaf.expr, "if0")  # (d)
            for i in indices_of(leaf.bucket):
                example = problem.examples[i]
                reached, _ = route(problem, tree, example)
                assert reached is leaf  # (c)
                env = env_of(problem.params, problem.width, example.inputs)
                assert eval_expr(leaf.expr, env, problem.width).bits == example.output
        covered = reduce(or_, buckets)
        assert covered == (1 << n) - 1
        assert sum(b.bit_count() for b in buckets) == n
        rows = rows_of(problem)
        for node in conditions(tree):
            assert not contains_op(node.condition, "if0")  # (d)
            sig = bruteforce.signature_on(node.condition, problem.params, rows, problem.width)
            assert len(set(sig)) > 1  # (e)
            assert node.mask == bits_where(
                signature_of(node.condition, problem.params, rows, problem.width), 1
            )  # (f) routing reads the stored mask
        assert_covers(tree, result.terminal_map)  # (g)
    print("criterion 4 (tree invariants on all 200 instances): PASS")


ARITY2_FIXTURE = """(set-logic BV)
(synth-fun f ((x (BitVec 64)) (y (BitVec 64))) (BitVec 64)
  ((Start (BitVec 64) (x y (if0 Start Start Start)))))
(constraint (= (f #x0000000000000001 #x0000000000000001) #x0000000000000001))
(check-synth)
"""

MISSING_IF0_FIXTURE = """(set-logic BV)
(synth-fun f ((x (BitVec 64))) (BitVec 64)
  ((Start (BitVec 64) (x (bvnot Start)))))
(constraint (= (f #x0000000000000001) #x0000000000000001))
(check-synth)
"""

HANDCRAFTED_FIXTURES = [
    # implication-form constraints
    """(set-logic BV)
(synth-fun f ((x (BitVec 64))) (BitVec 64)
  ((Start (BitVec 64) (x #x0000000000000001 (bvadd Start Start) (if0 Start Start Start)))))
(declare-var v0 (BitVec 64))
(declare-var vt (BitVec 64))
(constraint (=> (and (= v0 #x0000000000000001) (= vt (f v0))) (= vt #x0000000000000002)))
(constraint (=> (and (= v0 #x0000000000000003) (= (f v0) vt)) (= #x0000000000000006 vt)))
(check-synth)
""",
    # reversed equality order
    """(set-logic BV)
(synth-fun f ((x (BitVec 64))) (BitVec 64)
  ((Start (BitVec 64) (x (bvnot Start) (if0 Start Start Start)))))
(constraint (= #x0000000000000005 (f #x0000000000000005)))
(check-synth)
""",
    # comments everywhere
    """; header comment
(set-logic BV) ; trailing
(synth-fun f ((x (BitVec 64))) (BitVec 64) ; grammar follows
  ((Start (BitVec 64) (x (if0 Start Start Start)))))
(constraint (= (f #x0000000000000002) #x0000000000000002))
(check-synth)
""",
    # width 8 with binary literals
    """(set-logic BV)
(synth-fun f ((x (BitVec 8))) (BitVec 8)
  ((Start (BitVec 8) (x #b00000001 (bvadd Start Start) (if0 Start Start Start)))))
(constraint (= (f #b00000011) #b00000100))
(check-synth)
""",
    # define-fun spelling of helpers
    """(set-logic BV)
(define-fun shr4 ((x (BitVec 64))) (BitVec 64) (bvlshr x #x0000000000000004))
(define-fun if0 ((x (BitVec 64)) (y (BitVec 64)) (z (BitVec 64))) (BitVec 64)
  (ite (= x #x0000000000000001) y z))
(synth-fun f ((x (BitVec 64))) (BitVec 64)
  ((Start (BitVec 64) (x #x0000000000000000 (shr4 Start) (if0 Start Start Start)))))
(constraint (= (f #x00000000000000f0) #x000000000000000f))
(check-synth)
""",
    # two-nonterminal grammar
    """(set-logic BV)
(synth-fun f ((x (BitVec 64))) (BitVec 64)
  ((Start (BitVec 64) ((if0 Cond Start Start) x #x0000000000000000))
   (Cond (BitVec 64) ((bvand Cond Cond) x #x0000000000000001))))
(constraint (= (f #x0000000000000007) #x0000000000000007))
(check-synth)
""",
    # duplicated identical examples
    """(set-logic BV)
(synth-fun f ((x (BitVec 64))) (BitVec 64)
  ((Start (BitVec 64) (x (if0 Start Start Start)))))
(constraint (= (f #x0000000000000004) #x0000000000000004))
(constraint (= (f #x0000000000000004) #x0000000000000004))
(check-synth)
""",
    # full core operator catalogue
    """(set-logic BV)
(synth-fun f ((x (BitVec 64))) (BitVec 64)
  ((Start (BitVec 64) (x #x0000000000000000 #x0000000000000001
    (bvnot Start) (bvand Start Start) (bvor Start Start) (bvxor Start Start)
    (bvadd Start Start) (bvsub Start Start) (bvshl Start Start)
    (bvlshr Start Start) (bvashr Start Start) (if0 Start Start Start)))))
(constraint (= (f #x0000000000000010) #x0000000000000008))
(check-synth)
""",
]


def test_criterion_5_frontend_fidelity(run_a):
    """CRLF twins parse structurally equal; arity/if0 violations error out."""
    fixtures = [
        (run_a.corpus / f"instance_{i:04d}.sl").read_text(encoding="utf-8")
        for i in range(12)
    ]
    fixtures += HANDCRAFTED_FIXTURES
    assert len(fixtures) >= 20
    for i, text in enumerate(fixtures):
        assert "\r" not in text
        lf = parse_problem(text)
        crlf = parse_problem(text.replace("\n", "\r\n"))
        assert lf == crlf, f"fixture {i} differs under CRLF"
    with pytest.raises(UnsupportedArity):
        parse_problem(ARITY2_FIXTURE)
    with pytest.raises(MissingIf0Rule):
        parse_problem(MISSING_IF0_FIXTURE)
    print(f"criterion 5 (frontend fidelity on {len(fixtures)} fixture pairs): PASS")


def test_criterion_6_determinism(run_a, run_b):
    """Same seed: byte-identical corpora and solutions, identical candidate counts."""
    files_a = sorted(p.name for p in run_a.corpus.glob("*.sl"))
    files_b = sorted(p.name for p in run_b.corpus.glob("*.sl"))
    assert files_a == files_b
    for name in files_a:
        assert (run_a.corpus / name).read_bytes() == (run_b.corpus / name).read_bytes()
    sols_a = sorted(p.name for p in run_a.solutions.glob("*.sol"))
    sols_b = sorted(p.name for p in run_b.solutions.glob("*.sol"))
    assert sols_a == sols_b == [f"instance_{i:04d}.sol" for i in range(200)]
    for name in sols_a:
        assert (run_a.solutions / name).read_bytes() == (run_b.solutions / name).read_bytes()
    candidates_a = [(r["file"], r["candidates"]) for r in run_a.rows]
    candidates_b = [(r["file"], r["candidates"]) for r in run_b.rows]
    assert candidates_a == candidates_b
    print("criterion 6 (determinism across two seeded runs): PASS")
