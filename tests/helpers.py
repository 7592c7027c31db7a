"""Small builders shared across the test suite."""

from __future__ import annotations

from typing import Iterator

from bvsynth.enumeration import EnumerationState, SearchLimits, SearchResult, expr_of, size_splits, unpack
from bvsynth.errors import Exhausted, NotFound
from bvsynth.frontend import Example, Grammar, OpRule, Problem
from bvsynth.semantics import (
    COMMUTATIVE, OPERATORS, App, BitVecValue, Const, Expr, Var, eval_expr, subexpressions
)
from bvsynth.unify import Internal, Leaf, Tree

LIMITS = SearchLimits()


def app(op: str, *args: Expr) -> App:
    return App(op, tuple(args))


def const(width: int, bits: int) -> Const:
    return Const(BitVecValue(width, bits))


def bits_where(values, value) -> int:
    """The example mask of a per-example tuple: bit ``i`` set where ``values[i] == value``."""
    return sum(1 << i for i, v in enumerate(values) if v == value)


def indices_of(mask: int) -> list[int]:
    """The examples of an example mask, ascending: every ``i`` with bit ``i`` set."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def assigned(tmap, i: int) -> Expr:
    """The expression a terminal map assigns to example ``i``: the one whose mask holds it."""
    return next(e for e, mask in tmap.masks.items() if mask >> i & 1)


def grammar_of(ops, width=64, consts=(0, 1), with_if0=True) -> Grammar:
    """Single-nonterminal grammar: x, the given constants, then ``ops`` in order."""
    prods = [Var("x")]
    prods += [Const(BitVecValue(width, c)) for c in consts]
    for name in ops:
        prods.append(OpRule(name, ("Start",) * OPERATORS[name]))
    if with_if0 and "if0" not in ops:
        prods.append(OpRule("if0", ("Start", "Start", "Start")))
    return Grammar(("Start",), {"Start": tuple(prods)}, "Start")


def problem_of(grammar, pairs, width=64, name="f") -> Problem:
    mask = (1 << width) - 1
    examples = tuple(Example((i & mask,), o & mask) for i, o in pairs)
    return Problem(name=name, params=("x",), width=width, grammar=grammar, examples=examples)


def engine_for(problem, limits=LIMITS) -> EnumerationState:
    return EnumerationState.for_problem(problem, limits)


def events(engine: EnumerationState) -> Iterator[SearchResult]:
    """The engine's retained expressions at the start nonterminal in stream
    order, one search result each, ending when the stream raises its end: the
    pruned language is exhausted, or the engine's size or candidate budget is
    reached.  Each comes from a search that accepts only a signature no earlier
    one returned; a search tests each stored signature once, in pool order, so
    it returns the next one stored.  Pruned constructions show only in the
    engine's counters."""
    returned: set[int] = set()
    while True:
        try:
            found = engine.enumerate_until(lambda sig: sig not in returned)
        except (NotFound, Exhausted):
            return
        returned.add(found.signature)
        yield found


def retained(engine: EnumerationState, nt: str) -> list[tuple[Expr, tuple[int, ...]]]:
    """Every retained (expr, signature) pair at ``nt``, in stream order.  A
    search that accepts nothing first drives the stream to the engine's size
    budget (or until it runs out of candidates or language).  Signatures are
    unpacked into per-example tuples."""
    try:
        engine.enumerate_until(lambda sig: False)
    except (NotFound, Exhausted):
        pass
    w, n = engine.width, engine.ones.bit_count()  # one bit per lane
    return [(expr_of(node), unpack(node[0], w, n)) for layer in engine._pools[nt] for node in layer]


class UnskippedState(EnumerationState):
    """The enumeration without commutative symmetry breaking: every size split
    of every production is one block, so ``(op b a)`` is built after ``(op a b)``
    and pruned.  The reference the skipping engine is tested against.  No layer
    is built before the first search, so the rules can be replaced after the
    engine is built."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._rules = [(*rule[:4], False) for rule in self._rules]


def mirror_pairs(engine: EnumerationState) -> int:
    """How many constructions of the layers from 2 to the size budget are
    commutative mirrors, once the stream has built all of them:
    per production ``op(A, A)`` with a commutative ``op``, ``|P_s|*|P_t|``
    per size split ``(s, t)`` with ``s > t`` and ``|P_s|*(|P_s|-1)/2`` per
    equal split, where ``P_s`` is the pool of ``A`` at size ``s``."""
    pairs = 0
    for prods in engine.grammar.productions.values():
        for prod in prods:
            if isinstance(prod, OpRule) and prod.op in COMMUTATIVE and len(set(prod.operands)) == 1:
                pool = engine._pools[prod.operands[0]]
                for size in range(2, min(len(pool), engine.max_size + 1)):
                    for s, t in size_splits(size - 1, 2):
                        if s > t:
                            pairs += len(pool[s]) * len(pool[t])
                        elif s == t:
                            pairs += len(pool[s]) * (len(pool[s]) - 1) // 2
    return pairs


def rows_of(problem) -> list[tuple[int, ...]]:
    return [ex.inputs for ex in problem.examples]


def env_of(params, width: int, inputs) -> dict[str, BitVecValue]:
    """An ``eval_expr`` environment binding ``params`` to an example's int ``inputs``."""
    return {p: BitVecValue(width, v) for p, v in zip(params, inputs)}


def route(problem, tree: Tree, example: Example) -> tuple[Leaf, tuple[bool, ...]]:
    """Follow the tree for one example, evaluating every condition with
    ``eval_expr`` rather than reading its stored mask.  Path entries
    are True for then-branches."""
    env = env_of(problem.params, problem.width, example.inputs)
    node = tree
    path: list[bool] = []
    while isinstance(node, Internal):
        taken = eval_expr(node.condition, env, problem.width).bits == 1
        path.append(taken)
        node = node.then_child if taken else node.else_child
    return node, tuple(path)


def leaves(tree: Tree) -> Iterator[Leaf]:
    if isinstance(tree, Leaf):
        yield tree
    else:
        yield from leaves(tree.then_child)
        yield from leaves(tree.else_child)


def conditions(tree: Tree) -> Iterator[Internal]:
    """The if0 nodes, each holding a condition and its stored example mask."""
    if isinstance(tree, Internal):
        yield tree
        yield from conditions(tree.then_child)
        yield from conditions(tree.else_child)


def contains_op(expr: Expr, name: str) -> bool:
    return any(isinstance(e, App) and e.op == name for e in subexpressions(expr))


def assert_covers(tree: Tree, tmap) -> None:
    """The cover property of phase 2: each leaf holds the first found
    expression whose mask holds its whole bucket, and no found expression's
    mask holds every example under an if0 node."""
    for leaf in leaves(tree):
        first = next(e for e, mask in tmap.masks.items() if leaf.bucket & mask == leaf.bucket)
        assert leaf.expr == first, "a leaf holds an expression other than the first that fits"
    for node in conditions(tree):
        under = sum(leaf.bucket for leaf in leaves(node))  # buckets are disjoint: sum is union
        assert not any(under & mask == under for mask in tmap.masks.values()), "split a cover"
