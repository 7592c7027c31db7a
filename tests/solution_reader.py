"""Reads back a solution printed by ``emit_solution``, for tests only.

The package reads problems and writes solutions; it never reads a solution.
Tests that round-trip an answer, or check one from the command line, parse it
here with the frontend's own pieces: its reader, its position reporting, its
``define-fun`` header and literal parsers and its operator check, so a
solution is read by the same rules as a problem.
"""

from __future__ import annotations

from typing import NamedTuple

from bvsynth.errors import SygusSyntaxError
from bvsynth.frontend import _error, _head, _operator, _parse_fun, _reporting_positions, parse_literal
from bvsynth.semantics import App, BitVecValue, Const, Expr, Var, fold


class ParsedSolution(NamedTuple):
    name: str
    params: tuple[str, ...]
    width: int
    body: Expr


def parse_term(parent: list, index: int, params: tuple[str, ...], width: int) -> Expr:
    """Parse the ground term ``parent[index]`` over the parameters and the operator catalogue.

    A fold over (parent, index) pairs, so nesting depth is not bounded by the
    interpreter's recursion limit.  Nodes are checked in preorder, left to
    right, so the first error raised is the one a recursive descent would raise.
    """

    def children(at: tuple[list, int]) -> list[tuple[list, int]] | None:
        node = at[0][at[1]]
        if type(node) is str:
            return None
        _operator(node)
        return [(node, i) for i in range(1, len(node))]

    def leaf(at: tuple[list, int]) -> Expr:
        bits = parse_literal(*at, width)
        if bits is not None:
            return Const(BitVecValue(width, bits))
        name = at[0][at[1]]
        if name in params:
            return Var(name)
        raise _error(f"unknown symbol {name!r}", *at)

    return fold((parent, index), children, leaf, lambda at, args: App(at[0][at[1]][0], tuple(args)))


def parse_solution(text: str) -> ParsedSolution:
    """Parse a define-fun produced by ``emit_solution``."""
    return _reporting_positions(text, _solution)


def _solution(forms: list) -> ParsedSolution:
    if len(forms) != 1 or _head(forms[0]) != "define-fun":
        raise SygusSyntaxError("expected a single define-fun")
    name, params, width = _parse_fun(forms[0])
    return ParsedSolution(name, params, width, parse_term(forms[0], 4, params, width))
