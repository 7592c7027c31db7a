"""Small builders shared across the test suite."""

from __future__ import annotations

from typing import Iterator

from bvsynth.enumeration import EnumerationState, SearchLimits, SearchResult, expr_of, size_splits, unpack
from bvsynth.errors import Exhausted, NotFound
from bvsynth.frontend import Example, Grammar, OpRule, Problem
from bvsynth.semantics import (
    COMMUTATIVE, OPERATORS, App, BitVecValue, Const, Expr, Var, eval_expr, subexpressions
)

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


def is_if0(expr: Expr) -> bool:
    return type(expr) is App and expr.op == "if0"


def route(problem, tree: Expr, example: Example) -> tuple[Expr, tuple[bool, ...]]:
    """Follow a solution's if0 nodes for one example, evaluating every
    condition (``args[0]``) with ``eval_expr``, to the leaf it reaches.  Path
    entries are True for then-branches (``args[1]``), False for else-branches
    (``args[2]``)."""
    env = env_of(problem.params, problem.width, example.inputs)
    node = tree
    path: list[bool] = []
    while is_if0(node):
        taken = eval_expr(node.args[0], env, problem.width).bits == 1
        path.append(taken)
        node = node.args[1] if taken else node.args[2]
    return node, tuple(path)


def tree_nodes(tree: Expr) -> Iterator[tuple[tuple[bool, ...], Expr]]:
    """Every if0 node and leaf of a solution with its path, in preorder,
    then-branches first; a leaf is any node that is not an if0 application."""
    todo: list[tuple[Expr, tuple[bool, ...]]] = [(tree, ())]
    while todo:
        node, path = todo.pop()
        yield path, node
        if is_if0(node):
            todo += ((node.args[2], path + (False,)), (node.args[1], path + (True,)))


def leaves(tree: Expr) -> list[tuple[tuple[bool, ...], Expr]]:
    return [(path, node) for path, node in tree_nodes(tree) if not is_if0(node)]


def conditions(tree: Expr) -> list[tuple[tuple[bool, ...], App]]:
    """The if0 nodes, each with its path; its condition is ``args[0]``."""
    return [(path, node) for path, node in tree_nodes(tree) if is_if0(node)]


def buckets(problem, tree: Expr) -> dict[tuple[bool, ...], int]:
    """Each leaf's bucket, keyed by the leaf's path: the example mask of the
    examples that ``route`` takes there, 0 for a leaf no example reaches."""
    masks = dict.fromkeys((path for path, _ in leaves(tree)), 0)
    for i, example in enumerate(problem.examples):
        masks[route(problem, tree, example)[1]] |= 1 << i
    return masks


def under(routed: dict[tuple[bool, ...], int], path: tuple[bool, ...]) -> int:
    """The examples in the buckets below the node at ``path``."""
    return sum(mask for p, mask in routed.items() if p[: len(path)] == path)  # disjoint: sum is union


def contains_op(expr: Expr, name: str) -> bool:
    return any(isinstance(e, App) and e.op == name for e in subexpressions(expr))


def assert_covers(problem, tree: Expr, tmap) -> None:
    """The cover property of phase 2: each leaf holds the first found
    expression whose mask holds its whole bucket, and no found expression's
    mask holds every example under an if0 node."""
    routed = buckets(problem, tree)
    for path, expr in leaves(tree):
        bucket = routed[path]
        first = next(e for e, mask in tmap.masks.items() if bucket & mask == bucket)
        assert expr == first, "a leaf holds an expression other than the first that fits"
    for path, _ in conditions(tree):
        examples = under(routed, path)
        assert not any(examples & mask == examples for mask in tmap.masks.values()), "split a cover"
