"""Size-ordered expression enumeration with signature-based pruning.

A signature is an expression's values on every example input.  Inside the
enumeration it is one packed int: lane ``i`` holds example ``i``'s value in
bits ``[i*width, (i+1)*width)``, and every operator acts on all lanes at once
(word-parallel, or lane by lane for the variable shifts).  The state packs
the example inputs and outputs once, and no other module knows the lane
layout: searches take their acceptance predicates from the state, and
:meth:`EnumerationState.agreement` turns a hit's signature into an *example
mask*, an int whose bit ``i`` stands for example ``i``.  Per
nonterminal, only the first expression seen with a given signature is
stored; a later duplicate is pruned: counted, but never offered to a search
and never composed into anything larger.

One generator, ``_search_loop``, loops over the size layers in order, building
the blocks of constructions ``_layer(size)`` lists, and is the search over them:
:meth:`EnumerationState.enumerate_until` re-scans the retained pools, then
sends the generator its search, which yields only hits (see there).
The state owns the solve's :class:`SearchLimits`, and every budget in them
is per solve: the size bound, the candidate budget and the deadline each end
the stream for good, as exhaustion does, and every later search raises the
same end after its re-scan.
Each construction computes its signature and is deduplicated by one set
insertion; only a new signature builds its node, which is stored and then
tested by a search at its nonterminal, so a hit is the node just stored.  A
node is one tuple with its signature at index 0: ``(sig, leaf)`` for a
``Var``/``Const`` terminal, ``(sig, op, child_node, ...)`` over retained
children.  :func:`expr_of` builds the ``App`` tree only for a hit.

The state reads its grammar once, in declaration order: each leaf as its
terminal node (a ``Var``'s packed input column, a ``Const``'s value in every
lane), each operator rule but if0 (the decision tree does all branching) with its
packed operator and mirror flag, the first if0 rule's first operand as ``condition``;
the ``Problem`` checked them.  Candidate order is fully deterministic: sizes ascend;
within one size, nonterminals and productions keep that order, operand size-splits
are lexicographic, and pool entries are visited in insertion order.  Commutative
mirrors are never constructed: ``(op b a)`` for ``op(A, A)`` with a commutative
``op`` would only repeat the signature of the earlier ``(op a b)``.  A candidate
budget counts constructions, so it binds later in the language than if mirrors were built.
"""

from __future__ import annotations

import operator
import time
from typing import Callable, Generator, Iterator, NamedTuple, Sequence

from .errors import Exhausted, NotFound, SynthesisFailure, TimeoutExceeded
from .frontend import OpRule, Problem
from .semantics import COMMUTATIVE, App, Expr, Var, bound_operators, fold
from .semantics import signature_of  # re-exported: perfbench/workloads.py imports it from here

Packed = int  # a signature with example i's value in lane i
Node = tuple  # (sig, leaf) for a Var/Const terminal, or (sig, op, child_node, ...)

Search = tuple[Callable[[Packed], bool], str]  # accept, nt
_UNIT = [(0,)]  # the second operand list of a terminal or a unary block
_first = operator.or_  # a terminal's signature: its own, or'ed with _UNIT's 0


class SearchLimits(NamedTuple):
    # The largest expression any search may find; the enumeration ends
    # before it builds anything larger, so it bounds the whole store.
    max_size: int = 12
    # Constructions per solve, the ``evaluations`` counter; mirrors are never
    # constructed.  The first construction past it is built and ends the
    # enumeration, so a solve succeeds exactly when the budget is at least its
    # unbudgeted count.  Re-scans of the pools count against the deadline only.
    max_candidates: int = 5_000_000
    # Seconds of wall clock for the whole solve.  The enumeration checks it
    # every 4,096 constructed and every 4,096 re-scanned candidates, so a
    # search overshoots by at most that much work.  Outside its searches,
    # phase 2 only tests covers, one AND per found expression per set of
    # examples, and does not check it; nor does verification: one pass over
    # the solution costing its node count times the example count.
    timeout: float | None = None


class SearchResult(NamedTuple):
    expr: Expr
    signature: Packed


def expr_of(node: Node) -> Expr:
    """The expression a store node spells, built by one fold, so at any depth."""
    return fold(node, lambda n: n[2:] or None, lambda n: n[1], lambda n, args: App(n[1], tuple(args)))


def size_splits(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered compositions of ``total`` into ``parts`` positive ints, lexicographic."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for head in range(1, total - parts + 2):
        for rest in size_splits(total - head, parts - 1):
            yield (head, *rest)


def pack(values: Sequence[int], width: int) -> Packed:
    """One int holding ``values[i]`` in lane ``i``."""
    sig = 0
    for v in reversed(values):
        sig = (sig << width) | v
    return sig


def lane_ones(width: int, n: int) -> Packed:
    """Bit 0 of each of ``n`` lanes: the packed form of ``(1,) * n``."""
    return ((1 << (n * width)) - 1) // ((1 << width) - 1)


def unpack(sig: Packed, width: int, n: int) -> tuple[int, ...]:
    """The ``n`` lane values of ``sig``, lane 0 first."""
    mask = (1 << width) - 1
    return tuple((sig >> (i * width)) & mask for i in range(n))


def packed_operators(width: int, ones: Packed) -> dict[str, Callable[..., Packed]]:
    """Every enumerable operator on packed signatures with one lane per set bit of
    ``ones``, as ``lane_ones`` gives it: lane ``i`` of the result is the ``bound_operators``
    function applied to lane ``i`` of the operands (Warren, *Hacker's Delight*, ch. 2).
    A unary operator also takes, and ignores, a second operand: the search loop passes two."""
    fns = bound_operators(width)
    n = (ones.bit_length() + width - 1) // width
    full = ones * ((1 << width) - 1)
    high = ones << (width - 1)  # the top bit of every lane
    low = full ^ high

    def shr(k: int) -> Callable[[Packed], Packed]:
        keep = ones * ((1 << (width - k)) - 1) if k < width else 0
        return lambda a, _=0: (a >> k) & keep

    def lanewise(fn: Callable[[int, int], int]) -> Callable[[Packed, Packed], Packed]:
        return lambda a, b: pack(tuple(map(fn, unpack(a, width, n), unpack(b, width, n))), width)

    return {
        "bvnot": lambda a, _=0: a ^ full,
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
        "shl1": lambda a, _=0: (a & low) << 1,
        "shr1": shr(1),
        "shr4": shr(4),
        "shr16": shr(16),
    }


class EnumerationState:
    """Shared enumeration stream over one problem's grammar and examples.

    The state is single-threaded: searches advance a single cursor and
    every retained subexpression stays available to later searches, so the
    per-example terminal searches and the condition searches of the
    unifier all resume the same stream, under the budgets of ``limits``;
    the deadline starts when the state is built.  The ``Problem`` was
    checked when it was built, leaves too, so the state runs no check or
    evaluator: it packs each input column and constant once, as its leaf's
    signature, and the outputs as ``outputs``.
    """

    def __init__(self, problem: Problem, limits: SearchLimits = SearchLimits()):
        grammar, width, examples = problem.grammar, problem.width, problem.examples
        self.grammar, self.width = grammar, width
        self.max_size, self.max_candidates = limits.max_size, limits.max_candidates
        self.deadline = None if limits.timeout is None else time.monotonic() + limits.timeout

        self._mask = (1 << width) - 1
        self.ones = lane_ones(width, len(examples))  # the signature of the constant 1
        self.all_examples = (1 << len(examples)) - 1  # bit i for every example i
        self._high = self.ones << (width - 1)  # the top bit of every lane
        self._low, self._digits = self._high - self.ones, f"0{len(examples) * width}b"
        inputs, outputs = zip(*examples)
        self.outputs = pack(outputs, width)
        variables = {x: pack(column, width) for x, column in zip(problem.params, zip(*inputs))}
        fns = packed_operators(width, self.ones)
        # in declaration order, (nt, node) per leaf and (nt, op, operands, fn, mirrored) per rule but if0
        self._leaves, self._rules, self.condition = [], [], None
        for nt in grammar.nonterminals:
            for p in grammar.productions[nt]:
                if not isinstance(p, OpRule):
                    sig = variables[p.name] if isinstance(p, Var) else p.value.bits * self.ones
                    self._leaves.append((nt, (sig, p)))
                elif p.op != "if0":
                    mirrored = p.op in COMMUTATIVE and p.operands[0] == p.operands[1]
                    self._rules.append((nt, p.op, p.operands, fns[p.op], mirrored))
                elif self.condition is None:  # phase 2's conditions derive from it; None with no if0
                    self.condition = p.operands[0]
        # pools[nt][size] lists retained nodes; index 0 unused
        self._pools: dict[str, list[list[Node]]] = {nt: [[]] for nt in grammar.nonterminals}
        self._store: dict[str, set[Packed]] = {nt: set() for nt in grammar.nonterminals}
        self._end: tuple[type[SynthesisFailure], str] | None = None  # how the stream ended
        self._stream = self._search_loop()
        next(self._stream)  # sets the counters to 0 and waits for the first search

    @classmethod
    def for_problem(cls, problem: Problem, limits: SearchLimits = SearchLimits()) -> EnumerationState:
        """The state over ``problem``: the one constructor ``solve_problem`` calls, so a caller
        that replaces it (wrapping ``for_problem.__func__``) sees the engine of every solve."""
        return cls(problem, limits)

    # -- the search loop ----------------------------------------------------

    def _layer(self, size: int) -> Iterator[tuple]:
        """One size layer's blocks of constructions in stream order, as ``(nt, op, arity,
        fn, first, second)``, with ``second = [(0,)]`` for terminal and unary blocks."""
        for nt, node in self._leaves if size == 1 else ():  # a rule has no split of 0
            yield nt, None, 0, _first, [node], _UNIT
        for nt, op, operands, fn, mirrored in self._rules:
            for split in size_splits(size - 1, len(operands)):
                lists = [self._pools[o][s] for o, s in zip(operands, split)] + [_UNIT]
                if not all(lists) or mirrored and split[0] > split[1]:
                    continue  # (op b a) repeats the earlier (op a b)
                if mirrored and split[0] == split[1]:
                    for i, node in enumerate(lists[0]):
                        yield nt, op, 2, fn, [node], lists[0][i:]
                else:
                    yield nt, op, len(split), fn, *lists[:2]

    def _publish(self, count: int, inspected: int) -> None:
        self.stored = sum(map(len, self._store.values()))  # every new signature is stored
        self.evaluations, self.inspected, self.pruned = count, inspected, count - self.stored

    def _search_loop(self) -> Generator[Node | None, Search, None]:
        """Build the size layers in order and yield each accepted node, just stored.  Any other end
        is raised once with the counters published; later searches raise its type and text."""
        count, inspected, max_size, budget = 0, 0, self.max_size, self.max_candidates
        due = min(budget, 4095) + 1  # the count at which the budget and deadline are checked
        nonterminals, pools = self.grammar.nonterminals, self._pools
        max_arity = max([len(rule[2]) for rule in self._rules], default=0)
        size, pooled = 1, 0  # pooled: the largest size with a stored node
        try:
            self._publish(count, inspected)
            accept, target = yield None
            while size <= max_arity * pooled + 1:  # beyond, every operand split has an empty layer
                for nt in nonterminals:
                    pools[nt].append([])
                blocks = self._layer(size)
                if size > max_size and next(blocks, None) is not None:  # none of it is built
                    raise NotFound(f"size budget {max_size} exhausted")
                for nt, op, arity, fn, first, second in blocks:
                    layer, store, looking = pools[nt][size], self._store[nt], nt == target
                    add = store.add
                    for ea in first:
                        sa = ea[0]
                        for eb in second:
                            sig = fn(sa, eb[0])
                            n = len(store)
                            add(sig)
                            if new := len(store) != n:
                                node = (sig, op, ea, eb) if arity == 2 else (sig, op, ea) if arity else ea
                                layer.append(node)
                            count += 1
                            if count >= due:
                                if count > budget:
                                    raise NotFound(f"candidate budget {budget} exhausted")
                                self._enforce_deadline(f"{count} evaluations")
                                due = min(budget, count | 4095) + 1
                            if new and looking:
                                inspected += 1
                                if accept(sig):
                                    self._publish(count, inspected)
                                    accept, target = yield node
                                    looking, inspected = nt == target, self.inspected
                if any(pools[nt][size] for nt in nonterminals):
                    pooled = size
                size += 1
            raise Exhausted("grammar language fully enumerated")
        except SynthesisFailure as end:  # kept as type and text: its traceback holds this state
            self._publish(count, inspected)
            self._end = type(end), str(end)
            raise

    def _enforce_deadline(self, spent: str) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise TimeoutExceeded(f"wall clock expired after {spent}")

    # -- public surface -----------------------------------------------------

    def close(self) -> None:
        """End the search loop, whose frame holds this state, so the store is
        freed without a cyclic collection; pools and counters stay, and a
        later search only re-scans them."""
        self._stream.close()
        self._end = self._end or (SynthesisFailure, "enumeration closed")

    def agreement(self, sig: Packed, want: Packed) -> int:
        """Example mask: bit ``i`` is set when lane ``i`` of ``sig`` equals lane ``i`` of ``want``."""
        x, high, low = sig ^ want, self._high, self._low
        zero = high & ~(((x & low) + low) | x)  # zero-lane test (Warren, Hacker's Delight, ch. 6)
        return int(format(zero, self._digits)[:: self.width], 2)  # top bits, last lane first

    def example_equals(self, k: int, value: int) -> Callable[[Packed], bool]:
        """Acceptance predicate: the signature's value on example ``k`` is ``value``."""
        lane, want = self._mask << k * self.width, value << k * self.width
        return lambda sig: (sig & lane) == want

    def separates(self, a: int, b: int) -> Callable[[Packed], bool]:
        """Acceptance predicate: the signature is 1 on exactly one of examples
        ``a`` and ``b``; it differs between them, so it is never constant."""
        w, mask = self.width, self._mask
        lane_a, one_a, lane_b, one_b = mask << a * w, 1 << a * w, mask << b * w, 1 << b * w
        return lambda sig: ((sig & lane_a) == one_a) != ((sig & lane_b) == one_b)

    def enumerate_until(
        self, accept: Callable[[Packed], bool], nt: str | None = None
    ) -> SearchResult:
        """First candidate whose packed signature satisfies ``accept``.

        ``accept`` must depend on a candidate only through its signature;
        :meth:`example_equals` and :meth:`separates` build the predicates
        the unifier needs.  Retained pools are re-scanned first, in size
        order, so searches that resume a shared stream still see every
        representative from size 1 up; the returned expression's size is
        therefore the minimum size of any grammar-derivable expression
        satisfying ``accept``.

        Then the search is sent to the stream's generator, which yields only an accepted node
        and raises every other end of the stream: the size budget, at the first block of
        constructions above it, none of which is built; the candidate budget, on building its
        first construction past the budget; the deadline; or exhaustion.  Every later search
        re-scans the pools and raises the same end again.  So a search tests each signature
        stored at its nonterminal once, in pool order, and never a pruned construction.  The
        deadline is checked every 4,096 re-scanned and every 4,096 constructed candidates.
        """
        target = nt if nt is not None else self.grammar.start
        rescanned = 0
        for layer in self._pools[target][1:]:  # no layer above the size budget is built
            for node in layer:
                rescanned += 1
                if (rescanned & 4095) == 0:
                    self._enforce_deadline(f"{rescanned} re-scanned candidates")
                self.inspected += 1
                if accept(node[0]):
                    return SearchResult(expr_of(node), node[0])
        if self._end is not None:
            kind, text = self._end
            raise kind(text)
        node = self._stream.send((accept, target))
        return SearchResult(expr_of(node), node[0])
