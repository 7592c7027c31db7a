"""Two-phase unification: per-example terminal search, then an if0 decision tree.

Phase 1 maps every example to a branch-free (if0-free) expression that is
consistent with that example alone; one shared enumeration stream serves
all searches.  Phase 2 splits the examples top-down: a set of examples that
one found expression fits becomes a leaf, and any other set is split on the
smallest condition separating one conflicting pair of its examples.
Conditions are drawn from the first operand nonterminal of the grammar's
if0 production and are themselves if0-free.  Every set of examples is an int
*example mask* with bit ``i`` for example ``i``: a terminal's examples, or the
examples a condition evaluates to 1 on (``mask >> i & 1``: the then-branch).
The decision tree is the solution itself, nested ``(if0 c t e)`` applications.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import GrammarViolation, MissingIf0Rule, SynthesisFailure
from .errors import UnsolvableExample, UnunifiablePair
from .enumeration import EnumerationState
from .frontend import Grammar, OpRule, Problem
from .semantics import App, Expr, fold, operands


class TerminalMap(NamedTuple):
    """Found expressions, in discovery order, to the masks of all the examples
    each one fits.  The masks may overlap; together they cover every example."""

    masks: dict[Expr, int]

    def distinct(self) -> int:
        return len(self.masks)


def condition_nonterminal(grammar: Grammar) -> str:
    """Nonterminal conditions are enumerated from: the if0 rule's first operand."""
    rule = grammar.first_if0()
    if rule is None:
        raise MissingIf0Rule("grammar has no if0 production")
    return rule.operands[0]


def map_terminals(problem: Problem, engine: EnumerationState) -> TerminalMap:
    """Assign a consistent terminal expression to every example.

    The lowest example that no found expression fits is searched for next;
    each found expression keeps the mask of every example it fits.
    Enumeration resumes across searches instead of restarting.  Any end of
    the stream fails the example it stopped, as ``UnsolvableExample`` from it.
    """
    tmap = TerminalMap({})
    unmapped = (1 << len(problem.examples)) - 1
    while unmapped:
        k = (unmapped & -unmapped).bit_length() - 1
        try:
            expr, sig = engine.enumerate_until(engine.example_equals(k, problem.examples[k].output))
        except SynthesisFailure as exc:
            raise UnsolvableExample(k, str(exc)) from exc
        tmap.masks[expr] = fits = engine.agreement(sig, engine.outputs)
        unmapped &= ~fits
    return tmap


def find_condition(problem: Problem, engine: EnumerationState, a: int, b: int) -> tuple[Expr, int]:
    """Smallest condition that evaluates to 1 on exactly one of examples ``a``
    and ``b``, with its mask of the examples it evaluates to 1 on: those occupy
    the then-branch.  Any end of the stream fails the pair, as
    ``UnunifiablePair`` from it.
    """
    nt = condition_nonterminal(problem.grammar)
    try:
        expr, sig = engine.enumerate_until(engine.separates(a, b), nt)
    except SynthesisFailure as exc:
        raise UnunifiablePair(a, b, str(exc)) from exc
    return expr, engine.agreement(sig, engine.ones)


def build_tree(problem: Problem, engine: EnumerationState, tmap: TerminalMap) -> Expr:
    """Unify the terminal map into nested if0 applications, top-down from the
    set of all examples, then-sides first.  A set that one found expression
    fits is a leaf: the first such expression.  Any other set is split on
    ``find_condition`` for its lowest example ``a`` and the lowest example that
    ``a``'s first expression does not fit; the two land on opposite sides, so
    every split makes progress, and the condition's mask divides the set."""
    done: list[Expr] = []
    todo: list[tuple[int, Expr | None]] = [((1 << len(problem.examples)) - 1, None)]
    while todo:  # a split is pushed below its sides and popped once both are on done
        examples, condition = todo.pop()
        if condition is not None:
            done[-2:] = [App("if0", (condition, *done[-2:]))]
            continue
        expr = next((e for e, m in tmap.masks.items() if examples & m == examples), None)
        if expr is not None:
            done.append(expr)
            continue
        a = (examples & -examples).bit_length() - 1
        unfit = examples & ~next(m for m in tmap.masks.values() if m >> a & 1)
        b = (unfit & -unfit).bit_length() - 1
        condition, mask = find_condition(problem, engine, a, b)
        todo += ((examples, condition), (examples & ~mask, None), (examples & mask, None))
    return done[0]


def tree_to_expr(tree: Expr, grammar: Grammar) -> Expr:
    """``tree``, which ``build_tree`` assembles as the solution itself, once it
    is checked to derive from the grammar's start symbol.  The name stays for
    the benchmark's tracer (``perfbench/spans.py``), which times this check."""
    if not derives(grammar, grammar.start, tree):
        raise GrammarViolation("assembled solution is not derivable from the grammar")
    return tree


def derives(grammar: Grammar, nt: str, expr: Expr) -> bool:
    """Whether ``nt`` derives ``expr`` under the grammar.  A fold finds,
    bottom-up, the set of nonterminals deriving each node from the sets of
    its operands."""
    rules = [(owner, prod) for owner, prods in grammar.productions.items() for prod in prods]

    def leaf(e: Expr) -> set[str]:
        return {owner for owner, prod in rules if prod == e}

    def node(e: App, args: list[set[str]]) -> set[str]:
        return {
            owner
            for owner, prod in rules
            if type(prod) is OpRule and prod.op == e.op and len(prod.operands) == len(args)
            and all(o in a for o, a in zip(prod.operands, args))
        }

    return nt in fold(expr, operands, leaf, node)


def internal_node_count(expr: Expr) -> int:
    """The if0 nodes of a solution: its splits, as no terminal or condition holds one."""
    return fold(expr, operands, lambda e: 0, lambda e, v: (e.op == "if0") + sum(v))
