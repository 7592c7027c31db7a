"""End-to-end solving pipeline with budgets, statistics, and verification."""

from __future__ import annotations

import time
from typing import NamedTuple

from .errors import VerificationFailed
from .enumeration import EnumerationState, SearchLimits
from .frontend import Problem
from .semantics import Expr, signature_of
from .unify import TerminalMap, Tree, build_tree, internal_node_count, map_terminals, tree_to_expr


class RunStats(NamedTuple):
    candidates: int  # stored candidates tested by searches, once per search; never a pruned one
    signatures_stored: int
    pruned_duplicates: int
    evaluations: int  # constructed subexpressions; stored + pruned
    phase1_ms: float
    phase2_ms: float
    internal_nodes: int
    solution_size: int
    examples: int

    def lines(self) -> list[str]:
        return [
            f"examples:          {self.examples}",
            f"candidates:        {self.candidates}",
            f"signatures stored: {self.signatures_stored}",
            f"pruned duplicates: {self.pruned_duplicates}",
            f"evaluations:       {self.evaluations}",
            f"phase 1:           {self.phase1_ms:.1f} ms",
            f"phase 2:           {self.phase2_ms:.1f} ms",
            f"internal nodes:    {self.internal_nodes}",
            f"solution size:     {self.solution_size}",
        ]


class SolveResult(NamedTuple):
    solution: Expr
    stats: RunStats
    tree: Tree
    terminal_map: TerminalMap


def verify_solution(problem: Problem, solution: Expr) -> None:
    """Concrete verification oracle: evaluate the solution once on all examples."""
    rows = [ex.inputs for ex in problem.examples]
    values = signature_of(solution, problem.params, rows, problem.width)
    for i, (example, value) in enumerate(zip(problem.examples, values)):
        if value != example.output:
            raise VerificationFailed(i)


def solve_problem(problem: Problem, limits: SearchLimits | None = None) -> SolveResult:
    """Run both phases, verify, and collect statistics.

    Terminal and condition enumeration both exclude the if0 production; all branching in the
    solution comes from the decision tree.  Every end of the enumeration fails the search it
    stopped, so a failure names an example or a pair (``UnsolvableExample``, ``UnunifiablePair``),
    the solver (``GrammarViolation``, ``VerificationFailed``) or the input (``MissingIf0Rule``).
    ``problem`` was checked when it was built, so the solve runs no check of its own on it.
    """
    engine = EnumerationState.for_problem(problem, limits or SearchLimits())

    try:
        t0 = time.perf_counter()
        tmap = map_terminals(problem, engine)
        t1 = time.perf_counter()

        tree = build_tree(problem, engine, tmap)
        solution = tree_to_expr(tree, problem.grammar)
        t2 = time.perf_counter()
    finally:
        engine.close()

    verify_solution(problem, solution)

    stats = RunStats(
        candidates=engine.inspected,
        signatures_stored=engine.stored,
        pruned_duplicates=engine.pruned,
        evaluations=engine.evaluations,
        phase1_ms=(t1 - t0) * 1000.0,
        phase2_ms=(t2 - t1) * 1000.0,
        internal_nodes=internal_node_count(tree),
        solution_size=solution.size,
        examples=len(problem.examples),
    )
    return SolveResult(solution=solution, stats=stats, tree=tree, terminal_map=tmap)
