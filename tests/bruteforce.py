"""Independent unpruned brute-force enumeration, used as a test oracle.

Deliberately naive: materialises every expression of every size with no
signature store, so it checks the pruned engine from the outside.  Only
usable on small grammars and sizes.
"""

from __future__ import annotations

import itertools

from bvsynth.frontend import Grammar
from bvsynth.semantics import App, Const, Expr, Var, bound_operators


def _splits(total: int, parts: int):
    if parts == 1:
        return [(total,)] if total >= 1 else []
    return [
        (head, *rest)
        for head in range(1, total - parts + 2)
        for rest in _splits(total - head, parts - 1)
    ]


def exprs_of_size(
    grammar: Grammar,
    nt: str,
    size: int,
    exclude: frozenset[str] = frozenset(),
    _memo: dict | None = None,
) -> list[Expr]:
    """Every expression of exactly ``size`` derivable from ``nt``, unpruned."""
    if _memo is None:
        _memo = {}
    key = (nt, size)
    if key in _memo:
        return _memo[key]
    out: list[Expr] = []
    for prod in grammar.productions[nt]:
        if isinstance(prod, Var):
            if size == 1:
                out.append(Var(prod.name))
        elif isinstance(prod, Const):
            if size == 1:
                out.append(Const(prod.value))
        else:
            if prod.op in exclude:
                continue
            arity = len(prod.operands)
            if size - 1 < arity:
                continue
            for split in _splits(size - 1, arity):
                pools = [
                    exprs_of_size(grammar, o, s, exclude, _memo)
                    for o, s in zip(prod.operands, split)
                ]
                if not all(pools):
                    continue
                for combo in itertools.product(*pools):
                    out.append(App(prod.op, combo))
    _memo[key] = out
    return out


def value_on(expr: Expr, params: tuple[str, ...], row: tuple[int, ...], width: int) -> int:
    fns = bound_operators(width)
    col = {p: i for i, p in enumerate(params)}

    def ev(e: Expr) -> int:
        if isinstance(e, Var):
            return row[col[e.name]]
        if isinstance(e, Const):
            return e.value.bits
        return fns[e.op](*map(ev, e.args))

    return ev(expr)


def signature_on(expr, params, rows, width) -> tuple[int, ...]:
    return tuple(value_on(expr, params, row, width) for row in rows)


def signatures_up_to(
    grammar: Grammar,
    nt: str,
    max_size: int,
    params: tuple[str, ...],
    rows: list[tuple[int, ...]],
    width: int,
    exclude: frozenset[str] = frozenset(),
) -> set[tuple[int, ...]]:
    """All signatures reachable by any expression of size <= ``max_size``."""
    memo: dict = {}
    found: set[tuple[int, ...]] = set()
    for s in range(1, max_size + 1):
        for expr in exprs_of_size(grammar, nt, s, exclude, memo):
            found.add(signature_on(expr, params, rows, width))
    return found


def min_matching(
    grammar: Grammar,
    params: tuple[str, ...],
    rows: list[tuple[int, ...]],
    width: int,
    pred,
    max_size: int,
    exclude: frozenset[str] = frozenset(),
    nt: str | None = None,
):
    """Smallest expression (by exhaustive search) whose signature satisfies ``pred``.

    Returns (size, expr) or None when nothing matches within ``max_size``.
    """
    nt = nt if nt is not None else grammar.start
    memo: dict = {}
    for s in range(1, max_size + 1):
        for expr in exprs_of_size(grammar, nt, s, exclude, memo):
            if pred(signature_on(expr, params, rows, width)):
                return s, expr
    return None


def min_condition(
    grammar: Grammar,
    params: tuple[str, ...],
    rows: list[tuple[int, ...]],
    width: int,
    a: int,
    b: int,
    max_size: int,
    nt: str | None = None,
):
    """Oracle for the pairwise condition criterion: non-constant over all
    rows and equal to 1 on exactly one of rows ``a`` and ``b``."""

    def pred(sig):
        if (sig[a] == 1) == (sig[b] == 1):
            return False
        return any(v != sig[0] for v in sig)

    return min_matching(
        grammar, params, rows, width, pred, max_size, exclude=frozenset({"if0"}), nt=nt
    )


def derives(grammar: Grammar, nt: str, expr: Expr, _memo: dict | None = None) -> bool:
    """Reference for ``unify.derives``: recursive, memoised on (nt, expr)."""
    if _memo is None:
        _memo = {}
    key = (nt, expr)
    cached = _memo.get(key)
    if cached is not None:
        return cached
    result = False
    for prod in grammar.productions[nt]:
        if isinstance(prod, Var):
            if isinstance(expr, Var) and expr.name == prod.name:
                result = True
                break
        elif isinstance(prod, Const):
            if isinstance(expr, Const) and expr.value == prod.value:
                result = True
                break
        else:
            if (
                isinstance(expr, App)
                and expr.op == prod.op
                and len(expr.args) == len(prod.operands)
                and all(
                    derives(grammar, o, a, _memo) for o, a in zip(prod.operands, expr.args)
                )
            ):
                result = True
                break
    _memo[key] = result
    return result
