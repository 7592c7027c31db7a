"""The character-by-character s-expression reader, kept as a test oracle.

It walks the text one character at a time and counts lines and columns by
hand, so it checks the frontend's regex reader from the outside: both must
give the same tree, the same position on every node, and the same error.
"""

from __future__ import annotations

from typing import Iterator

from bvsynth.errors import SygusSyntaxError
from bvsynth.frontend import Atom, SExpr, SList

_DELIMS = frozenset(" \t\r\n();")


def _tokens(text: str) -> Iterator[tuple[str, str, int, int]]:
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            yield (ch, ch, line, col)
            col += 1
            i += 1
        else:
            start = i
            start_col = col
            while i < n and text[i] not in _DELIMS:
                i += 1
                col += 1
            yield ("atom", text[start:i], line, start_col)


def read_sexprs(text: str) -> list[SExpr]:
    """Parse a whole document into top-level S-expressions."""
    root = SList()
    stack: list[SList] = [root]
    for kind, tok, line, col in _tokens(text):
        if kind == "(":
            node = SList(line, col)
            stack[-1].append(node)
            stack.append(node)
        elif kind == ")":
            if len(stack) == 1:
                raise SygusSyntaxError("unbalanced ')'", line, col)
            stack.pop()
        else:
            stack[-1].append(Atom(tok, line, col))
    if len(stack) != 1:
        raise SygusSyntaxError("unclosed '('", stack[-1].line, stack[-1].col)
    return list(root)
