"""Size-ordered expression enumeration with signature-based pruning.

A signature is an expression's values on every example input.  Inside the
enumeration it is one packed int: lane ``i`` holds example ``i``'s value in
bits ``[i*width, (i+1)*width)``, and every operator acts on all lanes at once
(word-parallel, or lane by lane for the variable shifts).  Outside this module
a signature is the per-example tuple (:meth:`EnumerationState.lanes`), and
searches take their acceptance predicates from the state, so no other module
knows the lane layout.  Per nonterminal, only the first expression seen with
a given signature is kept as a reusable subexpression; later duplicates are
still emitted as top-level candidates but never composed into anything
larger.  The if0 production is never enumerated: all branching comes from
the decision tree.

The store keeps each expression as a node: a ``Var``/``Const`` terminal or
an ``(op, child_node, ...)`` tuple over retained children.  :func:`expr_of`
builds the ``App`` tree only for an accepted candidate and for
:meth:`EnumerationState.retained`, never for a pruned or rejected one.

Candidate order is fully deterministic: sizes ascend; within one size,
nonterminals and productions follow grammar declaration order, operand
size-splits are lexicographic, and pool entries are visited in insertion
order.
"""

from __future__ import annotations

import operator
import sys
import time
from typing import Callable, Iterator, NamedTuple, Sequence, Union

from .errors import Exhausted, NotFound, TimeoutExceeded
from .frontend import Grammar, OpRule, Problem
from .semantics import App, Const, Expr, OPERATORS, Var, bound_operators, eval_columns

Signature = tuple[int, ...]
Packed = int  # a signature with example i's value in lane i
Node = Union[Var, Const, tuple]  # a terminal, or (op, child_node, ...)

# nonterminal, size, node (expand with expr_of), packed signature
Event = tuple[str, int, Node, Packed]


class SearchResult(NamedTuple):
    expr: Expr
    signature: Signature


def expr_of(node: Node) -> Expr:
    """The expression a store node spells; recursion depth is its size at most."""
    if type(node) is tuple:
        return App(node[0], tuple(map(expr_of, node[1:])))
    return node


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
    columns = {name: [row[i] for row in rows] for i, name in enumerate(params)}
    return tuple(eval_columns(expr, columns, width, len(rows)))


def pack(values: Sequence[int], width: int) -> Packed:
    """One int holding ``values[i]`` in lane ``i``."""
    sig = 0
    for v in reversed(values):
        sig = (sig << width) | v
    return sig


def lane_ones(width: int, n: int) -> Packed:
    """Bit 0 of each of ``n`` lanes: the packed form of ``(1,) * n``."""
    return ((1 << (n * width)) - 1) // ((1 << width) - 1)


def unpack(sig: Packed, width: int, n: int) -> Signature:
    """The ``n`` lane values of ``sig``, lane 0 first."""
    mask = (1 << width) - 1
    return tuple((sig >> (i * width)) & mask for i in range(n))


def packed_operators(width: int, n: int) -> dict[str, Callable[..., Packed]]:
    """Every enumerable operator on ``n``-lane packed signatures: lane ``i``
    of the result is the ``bound_operators`` function applied to lane ``i``
    of the operands (Warren, *Hacker's Delight*, ch. 2)."""
    ones = lane_ones(width, n)
    full = ones * ((1 << width) - 1)
    high = ones << (width - 1)  # the top bit of every lane
    low = full ^ high
    fns = bound_operators(width)

    def shr(k: int) -> Callable[[Packed], Packed]:
        if k >= width:
            return lambda a: 0
        keep = ones * ((1 << (width - k)) - 1)
        return lambda a: (a >> k) & keep

    def lanewise(fn: Callable[[int, int], int]) -> Callable[[Packed, Packed], Packed]:
        return lambda a, b: pack(tuple(map(fn, unpack(a, width, n), unpack(b, width, n))), width)

    return {
        "bvnot": lambda a: a ^ full,
        "bvand": operator.and_,
        "bvor": operator.or_,
        "bvxor": operator.xor,
        # Add the low bits of every lane, which cannot carry out of it, then
        # set each top bit to the sum of the two top bits and the carry in.
        "bvadd": lambda a, b: ((a & low) + (b & low)) ^ ((a ^ b) & high),
        # Each lane of ``a | high`` covers the same lane of ``b & low``, so
        # no lane borrows from the next; the xor restores the top bits.
        "bvsub": lambda a, b: (((a | high) - (b & low)) ^ ((a ^ ~b) & high)) & full,
        "bvshl": lanewise(fns["bvshl"]),
        "bvlshr": lanewise(fns["bvlshr"]),
        "bvashr": lanewise(fns["bvashr"]),
        "shl1": lambda a: (a & low) << 1,
        "shr1": shr(1),
        "shr4": shr(4),
        "shr16": shr(16),
    }


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

        self._fns = packed_operators(width, len(self.rows))
        self._mask = (1 << width) - 1
        self._ones = lane_ones(width, len(self.rows))
        self._col = {name: i for i, name in enumerate(self.params)}
        # pools[nt][size] lists retained (node, signature) pairs; index 0 unused
        self._pools: dict[str, list[list[tuple[Node, Packed]]]] = {
            nt: [[]] for nt in grammar.nonterminals
        }
        self._store: dict[str, set[Packed]] = {nt: set() for nt in grammar.nonterminals}
        self.evaluations = 0  # every constructed (node, signature), terminals included
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

    def _record(self, nt: str, size: int, node: Node, sig: Packed) -> Event:
        self.evaluations += 1
        if self.deadline is not None and (self.evaluations & 4095) == 0:
            if time.monotonic() > self.deadline:
                raise TimeoutExceeded(f"wall clock expired after {self.evaluations} evaluations")
        store = self._store[nt]
        if sig in store:
            self.pruned += 1
        else:
            store.add(sig)
            self._pools[nt][size].append((node, sig))
            self.stored += 1
            if size > self._max_pooled:
                self._max_pooled = size
        return (nt, size, node, sig)

    def _event_stream(self) -> Iterator[Event]:
        grammar = self.grammar
        rows = self.rows
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
                    if isinstance(prod, Var):
                        if size == 1:
                            column = self._col[prod.name]
                            sig = pack([row[column] for row in rows], self.width)
                            yield self._record(nt, 1, prod, sig)
                    elif isinstance(prod, Const):
                        if size == 1:
                            yield self._record(nt, 1, prod, prod.value.bits * self._ones)
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
                                    yield self._record(nt, size, (op, ea), fn(sa))
                            else:  # binary: if0, the one ternary operator, is skipped above
                                for ea, sa in pools[0]:
                                    for eb, sb in pools[1]:
                                        yield self._record(nt, size, (op, ea, eb), fn(sa, sb))
            size += 1

    def _next_event(self) -> Event | None:
        if self._pending is not None:
            event, self._pending = self._pending, None
            return event
        return next(self._stream, None)

    # -- public surface -----------------------------------------------------

    def close(self) -> None:
        """End the construction stream, whose frame holds this state, so the
        store is freed without a cyclic collection; pools and counters stay."""
        self._stream.close()

    def lanes(self, sig: Packed) -> Signature:
        """The per-example tuple view of a packed signature."""
        return unpack(sig, self.width, len(self.rows))

    def example_equals(self, k: int, value: int) -> Callable[[Packed], bool]:
        """Acceptance predicate: the signature's value on example ``k`` is ``value``."""
        shift, mask = k * self.width, self._mask
        return lambda sig: ((sig >> shift) & mask) == value

    def separates(self, a: int, b: int) -> Callable[[Packed], bool]:
        """Acceptance predicate: the signature is 1 on exactly one of examples
        ``a`` and ``b``, and not the same value on every example."""
        shift_a, shift_b, mask, ones = a * self.width, b * self.width, self._mask, self._ones
        return lambda sig: (
            (((sig >> shift_a) & mask) == 1) != (((sig >> shift_b) & mask) == 1)
            and sig != (sig & mask) * ones
        )

    def enumerate_until(
        self,
        accept: Callable[[Packed], bool],
        *,
        max_size: int,
        max_candidates: int,
        nt: str | None = None,
    ) -> SearchResult:
        """First candidate whose packed signature satisfies ``accept``.

        ``accept`` must depend on a candidate only through its signature;
        :meth:`example_equals` and :meth:`separates` build the predicates
        the unifier needs.  Retained pools are re-scanned first, in size
        order, so searches that resume a shared stream still see every
        representative from size 1 up; the returned expression's size is
        therefore the minimum size of any grammar-derivable expression
        satisfying ``accept``.

        The candidate budget counts pool re-scans plus every subexpression
        constructed while this search drives the stream.  The deadline is
        checked every 4,096 re-scanned and every 4,096 constructed candidates.
        """
        target = nt if nt is not None else self.grammar.start
        used = 0
        pools = self._pools[target]
        top = min(max_size, len(pools) - 1)
        for s in range(1, top + 1):
            for node, sig in pools[s]:
                used += 1
                if used > max_candidates:
                    raise NotFound(f"candidate budget {max_candidates} exhausted")
                if (used & 4095) == 0 and self.deadline is not None:
                    if time.monotonic() > self.deadline:
                        raise TimeoutExceeded(
                            f"wall clock expired after {used} re-scanned candidates"
                        )
                self.inspected += 1
                if accept(sig):
                    return SearchResult(expr_of(node), self.lanes(sig))
        while True:
            event = self._next_event()
            if event is None:
                if self._max_pooled > max_size:
                    # the language continues past the size budget
                    raise NotFound(f"size budget {max_size} exhausted")
                raise Exhausted("grammar language fully enumerated")
            e_nt, e_size, node, sig = event
            if e_size > max_size:
                self._pending = event
                raise NotFound(f"size budget {max_size} exhausted")
            used += 1
            if used > max_candidates:
                raise NotFound(f"candidate budget {max_candidates} exhausted")
            if e_nt == target:
                self.inspected += 1
                if accept(sig):
                    return SearchResult(expr_of(node), self.lanes(sig))

    def retained(self, nt: str, max_size: int) -> list[tuple[Expr, Signature]]:
        """Every retained (expr, signature) pair at ``nt`` of size at most
        ``max_size``, in stream order.  A search that accepts nothing first
        drives the stream until layer ``max_size`` is complete (or the stream
        runs out).  Signatures are per-example tuples."""
        try:
            self.enumerate_until(lambda sig: False, max_size=max_size, max_candidates=sys.maxsize)
        except (NotFound, Exhausted):
            pass
        layers = self._pools[nt][: max_size + 1]
        return [(expr_of(node), self.lanes(sig)) for layer in layers for node, sig in layer]
