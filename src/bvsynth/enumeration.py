"""Size-ordered expression enumeration with signature-based pruning.

A signature is the tuple of an expression's values on every example input,
in example order; values are raw bits, the width lives on the state.  Per
nonterminal, only the first expression seen with a given signature is kept
as a reusable subexpression; later duplicates are still emitted as
top-level candidates but never composed into anything larger.  The if0
production is never enumerated: all branching comes from the decision tree.

Candidate order is fully deterministic: sizes ascend; within one size,
nonterminals and productions follow grammar declaration order, operand
size-splits are lexicographic, and pool entries are visited in insertion
order.
"""

from __future__ import annotations

import time
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import Exhausted, NotFound, TimeoutExceeded, UnboundVariable, WidthMismatch
from .frontend import ConstTerminal, Grammar, OpRule, Problem, VarTerminal
from .semantics import App, Const, Expr, OPERATORS, Var, bound_operators

Signature = tuple[int, ...]

# nonterminal, size, expression, signature
Event = tuple[str, int, Expr, Signature]


class SearchResult(NamedTuple):
    expr: Expr
    signature: Signature


def size_splits(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered compositions of ``total`` into ``parts`` positive ints, lexicographic."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for head in range(1, total - parts + 2):
        for rest in size_splits(total - head, parts - 1):
            yield (head, *rest)


def signature_of(
    expr: Expr, params: Sequence[str], rows: Sequence[tuple[int, ...]], width: int
) -> Signature:
    """Evaluate ``expr`` on every input row; rows carry parameter bits in order."""
    fns = bound_operators(width)
    col = {name: i for i, name in enumerate(params)}

    def ev(e: Expr, row: tuple[int, ...]) -> int:
        if isinstance(e, Var):
            if e.name not in col:
                raise UnboundVariable(e.name)
            return row[col[e.name]]
        if isinstance(e, Const):
            if e.value.width != width:
                raise WidthMismatch(f"constant width {e.value.width}, expected {width}")
            return e.value.bits
        return fns[e.op](*(ev(a, row) for a in e.args))

    return tuple(ev(expr, row) for row in rows)


class EnumerationState:
    """Shared enumeration stream over one grammar and one example-input list.

    The state is single-threaded: searches advance a single cursor and
    every retained subexpression stays available to later searches, so the
    per-example terminal searches and the condition searches of the
    unifier all resume the same stream.
    """

    def __init__(
        self,
        grammar: Grammar,
        params: Sequence[str],
        rows: Sequence[Sequence[int]],
        width: int,
        *,
        deadline: float | None = None,
    ):
        self.grammar = grammar
        self.params = tuple(params)
        self.rows = [tuple(r) for r in rows]
        self.width = width
        self.deadline = deadline

        self._fns = bound_operators(width)
        self._col = {name: i for i, name in enumerate(self.params)}
        # pools[nt][size] lists retained (expr, signature) pairs; index 0 unused
        self._pools: dict[str, list[list[tuple[Expr, Signature]]]] = {
            nt: [[]] for nt in grammar.nonterminals
        }
        self._store: dict[str, dict[Signature, Expr]] = {nt: {} for nt in grammar.nonterminals}
        self.completed_size = 0
        self.evaluations = 0  # every constructed (expr, signature), terminals included
        self.stored = 0
        self.pruned = 0
        self.inspected = 0  # candidates handed to acceptance predicates
        self._max_pooled = 0
        self._max_arity = max(
            (
                OPERATORS[p.op].arity
                for nt in grammar.nonterminals
                for p in grammar.productions[nt]
                if isinstance(p, OpRule) and p.op != "if0"
            ),
            default=0,
        )
        self._stream = self._event_stream()
        self._pending: Event | None = None

    @classmethod
    def for_problem(cls, problem: Problem, *, deadline: float | None = None) -> "EnumerationState":
        rows = [tuple(v.bits for v in ex.inputs) for ex in problem.examples]
        return cls(problem.grammar, problem.params, rows, problem.width, deadline=deadline)

    # -- construction stream ------------------------------------------------

    def _record(self, nt: str, size: int, expr: Expr, sig: Signature) -> Event:
        self.evaluations += 1
        if self.deadline is not None and (self.evaluations & 4095) == 0:
            if time.monotonic() > self.deadline:
                raise TimeoutExceeded(f"wall clock expired after {self.evaluations} evaluations")
        store = self._store[nt]
        if sig in store:
            self.pruned += 1
        else:
            store[sig] = expr
            self._pools[nt][size].append((expr, sig))
            self.stored += 1
            if size > self._max_pooled:
                self._max_pooled = size
        return (nt, size, expr, sig)

    def _event_stream(self) -> Iterator[Event]:
        grammar = self.grammar
        rows = self.rows
        n_rows = len(rows)
        size = 1
        while True:
            # Once a full layer cannot contain any composition (all operand
            # sizes are bounded by the largest pooled size), nothing larger
            # can exist either: the pruned language is exhausted.
            if size > 1 and size > self._max_arity * self._max_pooled + 1:
                return
            for nt in grammar.nonterminals:
                self._pools[nt].append([])
            for nt in grammar.nonterminals:
                for prod in grammar.productions[nt]:
                    if isinstance(prod, VarTerminal):
                        if size == 1:
                            column = self._col[prod.name]
                            sig = tuple(row[column] for row in rows)
                            yield self._record(nt, 1, Var(prod.name), sig)
                    elif isinstance(prod, ConstTerminal):
                        if size == 1:
                            sig = (prod.value.bits,) * n_rows
                            yield self._record(nt, 1, Const(prod.value), sig)
                    else:
                        if prod.op == "if0":
                            continue
                        arity = len(prod.operands)
                        if size - 1 < arity:
                            continue
                        fn = self._fns[prod.op]
                        op = prod.op
                        for split in size_splits(size - 1, arity):
                            pools = [
                                self._pools[o][s] for o, s in zip(prod.operands, split)
                            ]
                            if not all(pools):
                                continue
                            if arity == 1:
                                for ea, sa in pools[0]:
                                    yield self._record(
                                        nt, size, App(op, (ea,)), tuple(map(fn, sa))
                                    )
                            elif arity == 2:
                                for ea, sa in pools[0]:
                                    for eb, sb in pools[1]:
                                        yield self._record(
                                            nt, size, App(op, (ea, eb)), tuple(map(fn, sa, sb))
                                        )
                            else:
                                for ea, sa in pools[0]:
                                    for eb, sb in pools[1]:
                                        for ec, sc in pools[2]:
                                            yield self._record(
                                                nt,
                                                size,
                                                App(op, (ea, eb, ec)),
                                                tuple(map(fn, sa, sb, sc)),
                                            )
            self.completed_size = size
            size += 1

    def _next_event(self) -> Event | None:
        if self._pending is not None:
            event, self._pending = self._pending, None
            return event
        return next(self._stream, None)

    # -- public surface -----------------------------------------------------

    def enumerate_until(
        self,
        accept: Callable[[Signature], bool],
        *,
        max_size: int,
        max_candidates: int,
        nt: str | None = None,
    ) -> SearchResult:
        """First candidate whose signature satisfies ``accept``.

        ``accept`` must depend on a candidate only through its signature.
        Retained pools are re-scanned first, in size order, so searches that
        resume a shared stream still see every representative from size 1
        up; the returned expression's size is therefore the minimum size of
        any grammar-derivable expression satisfying ``accept``.

        The candidate budget counts pool re-scans plus every subexpression
        constructed while this search drives the stream.
        """
        target = nt if nt is not None else self.grammar.start
        used = 0
        pools = self._pools[target]
        top = min(max_size, len(pools) - 1)
        for s in range(1, top + 1):
            for expr, sig in pools[s]:
                used += 1
                if used > max_candidates:
                    raise NotFound(f"candidate budget {max_candidates} exhausted")
                self.inspected += 1
                if accept(sig):
                    return SearchResult(expr, sig)
        while True:
            event = self._next_event()
            if event is None:
                if self._max_pooled > max_size:
                    # the language continues past the size budget
                    raise NotFound(f"size budget {max_size} exhausted")
                raise Exhausted("grammar language fully enumerated")
            e_nt, e_size, expr, sig = event
            if e_size > max_size:
                self._pending = event
                raise NotFound(f"size budget {max_size} exhausted")
            used += 1
            if used > max_candidates:
                raise NotFound(f"candidate budget {max_candidates} exhausted")
            if e_nt == target:
                self.inspected += 1
                if accept(sig):
                    return SearchResult(expr, sig)

    def retained(self, nt: str, max_size: int) -> list[tuple[Expr, Signature]]:
        """Every retained (expr, signature) pair at ``nt`` of size at most
        ``max_size``, in stream order, once the stream has completed layer
        ``max_size`` (or run out)."""
        while self.completed_size < max_size:
            event = self._next_event()
            if event is None:
                break
            if event[1] > max_size:
                self._pending = event
                break
        return [pair for layer in self._pools[nt][: max_size + 1] for pair in layer]
