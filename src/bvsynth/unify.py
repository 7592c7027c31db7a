"""Two-phase unification: per-example terminal search, then an if0 decision tree.

Phase 1 maps every example to a branch-free (if0-free) expression that is
consistent with that example alone; one shared enumeration stream serves
all searches.  Phase 2 inserts examples into a decision tree in rank order,
enumerating a separating condition for each pair of conflicting examples.
Conditions are drawn from the first operand nonterminal of the grammar's
if0 production and are themselves if0-free.  Every set of examples is an int
*example mask* with bit ``i`` for example ``i``: a terminal's examples, a leaf's
bucket, and an if0 node's condition mask (``mask >> i & 1``: the then-branch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Iterator, Union

from .errors import (
    Exhausted,
    GrammarViolation,
    MissingIf0Rule,
    NotFound,
    UnsolvableExample,
    UnunifiablePair,
)
from .enumeration import EnumerationState, pack
from .frontend import Grammar, OpRule, Problem
from .semantics import App, Expr


@dataclass
class TerminalMap:
    """Found expressions, in discovery order, to disjoint masks covering all examples."""

    masks: dict[Expr, int] = field(default_factory=dict)

    def distinct(self) -> int:
        return len(self.masks)


@dataclass
class Leaf:
    expr: Expr
    bucket: int  # bit i set when example i is in the bucket


@dataclass
class Internal:
    condition: Expr
    mask: int  # bit i set when the condition is 1 on example i
    then_child: "Tree"
    else_child: "Tree"


Tree = Union[Leaf, Internal]


def bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def condition_nonterminal(grammar: Grammar) -> str:
    """Nonterminal conditions are enumerated from: the if0 rule's first operand."""
    rule = grammar.first_if0()
    if rule is None:
        raise MissingIf0Rule("grammar has no if0 production")
    return rule.operands[0]


def map_terminals(problem: Problem, engine: EnumerationState, limits) -> TerminalMap:
    """Assign a consistent terminal expression to every example.

    The lowest unmapped example is searched for next; each found expression
    is also assigned to every other still-unmapped example it happens to
    satisfy.  Enumeration resumes across searches instead of restarting.
    """
    outputs = pack([ex.output for ex in problem.examples], problem.width)
    tmap = TerminalMap()
    unmapped = (1 << len(problem.examples)) - 1
    while unmapped:
        k = (unmapped & -unmapped).bit_length() - 1
        try:
            expr, sig = engine.enumerate_until(
                engine.example_equals(k, problem.examples[k].output),
                max_size=limits.max_size,
                max_candidates=limits.max_candidates,
            )
        except (NotFound, Exhausted) as exc:
            raise UnsolvableExample(k, str(exc)) from exc
        tmap.masks[expr] = fits = engine.agreement(sig, outputs) & unmapped
        unmapped ^= fits
    return tmap


def rank_examples(tmap: TerminalMap) -> list[int]:
    """Example indices sorted by ascending popularity of their assigned
    expression (unique expressions first), ties by ascending index."""
    by_popularity = groupby(sorted(tmap.masks.values(), key=int.bit_count), int.bit_count)
    return [i for _, masks in by_popularity for i in bits(sum(masks))]  # disjoint: sum is union


def find_condition(
    problem: Problem, engine: EnumerationState, a: int, b: int, limits
) -> tuple[Expr, int]:
    """Smallest condition that is non-constant over all example inputs and
    evaluates to 1 on exactly one of examples ``a`` and ``b``, with its mask
    of the examples it evaluates to 1 on: those occupy the then-branch.
    """
    try:
        expr, sig = engine.enumerate_until(
            engine.separates(a, b),
            max_size=limits.max_size,
            max_candidates=limits.max_candidates,
            nt=condition_nonterminal(problem.grammar),
        )
    except (NotFound, Exhausted) as exc:
        raise UnunifiablePair(a, b, str(exc)) from exc
    return expr, engine.agreement(sig, engine.ones)


def insert_example(
    problem: Problem,
    engine: EnumerationState,
    tmap: TerminalMap,
    limits,
    tree: Tree,
    index: int,
) -> Tree:
    """Insert one example, preserving routing soundness for every bucket.

    An example landing on a leaf with its own terminal expression just joins
    the bucket (lazy expansion).  Otherwise the leaf is split on a condition
    separating the example from the leaf's lowest-index representative; any
    bucket member the new condition routes away is re-inserted.
    """
    work = [index]
    for i in work:  # displaced members are appended, so the walk is first in, first out
        parent: Internal | None = None
        node = tree
        while isinstance(node, Internal):
            parent = node
            node = node.then_child if node.mask >> i & 1 else node.else_child
        if tmap.masks[node.expr] >> i & 1:
            node.bucket |= 1 << i
            continue

        representative = (node.bucket & -node.bucket).bit_length() - 1
        condition, mask = find_condition(problem, engine, i, representative, limits)
        expr_i = next(e for e, m in tmap.masks.items() if m >> i & 1)
        if mask >> i & 1:
            replacement = Internal(condition, mask, Leaf(expr_i, 1 << i), node)
        else:
            replacement = Internal(condition, mask, node, Leaf(expr_i, 1 << i))
        # The pairwise condition constrains only the representative; the other
        # members whose bit in ``mask`` differs from its bit (``-1`` flips
        # ``mask`` when that bit is set) are re-inserted to keep every bucket sound.
        moved = node.bucket & (mask ^ -(mask >> representative & 1))
        node.bucket ^= moved
        work.extend(bits(moved))
        if parent is None:
            tree = replacement
        elif parent.mask >> i & 1:
            parent.then_child = replacement
        else:
            parent.else_child = replacement
    return tree


def build_tree(problem: Problem, engine: EnumerationState, tmap: TerminalMap, limits) -> Tree:
    """Unify a terminal map with at least two distinct expressions: the first
    example in rank order starts a leaf and every other one is inserted."""
    if tmap.distinct() < 2:
        raise ValueError("build_tree needs at least two distinct terminal expressions")
    first, *rest = rank_examples(tmap)
    tree: Tree = Leaf(next(e for e, m in tmap.masks.items() if m >> first & 1), 1 << first)
    for index in rest:
        tree = insert_example(problem, engine, tmap, limits, tree, index)
    return tree


def tree_to_expr(tree: Tree, grammar: Grammar) -> Expr:
    """Materialise the tree as nested if0 applications; must stay in-grammar."""
    done: list[Expr] = []
    todo: list[tuple[Tree, bool]] = [(tree, False)]  # True once both branches are on done
    while todo:
        node, branches_done = todo.pop()
        if isinstance(node, Leaf):
            done.append(node.expr)
        elif branches_done:
            then_expr, else_expr = done[-2:]
            done[-2:] = [App("if0", (node.condition, then_expr, else_expr))]
        else:
            todo += ((node, True), (node.else_child, False), (node.then_child, False))
    expr = done[0]
    if not derives(grammar, grammar.start, expr):
        raise GrammarViolation("assembled solution is not derivable from the grammar")
    return expr


def derives(grammar: Grammar, nt: str, expr: Expr) -> bool:
    """Whether ``nt`` derives ``expr`` under the grammar.  An iterative
    postorder walk finds, bottom-up, the set of nonterminals deriving each
    node from the sets of its operands."""
    leaf_nts: dict[Expr, set[str]] = {}
    op_rules: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    for owner, prods in grammar.productions.items():
        for prod in prods:
            if isinstance(prod, OpRule):
                op_rules.setdefault(prod.op, []).append((owner, prod.operands))
            else:
                leaf_nts.setdefault(prod, set()).add(owner)
    done: list[set[str]] = []
    todo: list[tuple[Expr, bool]] = [(expr, False)]  # True once the operands are on done
    while todo:
        e, operands_done = todo.pop()
        if operands_done:
            k = len(e.args)
            args = done[-k:]
            done[-k:] = [
                {
                    owner
                    for owner, operands in op_rules.get(e.op, ())
                    if len(operands) == k and all(o in a for o, a in zip(operands, args))
                }
            ]
        elif isinstance(e, App):
            todo.append((e, True))
            todo.extend((a, False) for a in reversed(e.args))
        else:
            done.append(leaf_nts.get(e, set()))
    return nt in done[0]


def internal_node_count(tree: Tree) -> int:
    count, todo = 0, [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, Internal):
            count += 1
            todo += (node.then_child, node.else_child)
    return count
