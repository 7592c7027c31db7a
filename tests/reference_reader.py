"""Earlier versions of two frontend pieces, and a literal parser of their own,
kept as test oracles.

The character-by-character s-expression reader walks the text one character
at a time and counts lines and columns by hand, so it checks the frontend's
split reader from the outside: both must give the same tree, the same
position on every node, and the same error.  Its nodes keep their own line
and column, where the frontend's lists and atoms are plain ``list`` and
``str`` with no position, and the frontend derives a node's position only
by reading the text again in step with its tree.

The example matcher has one function per constraint shape (direct and
implication), where the frontend shares one consequent loop and one argument
resolution between them: both must accept the same examples and reject the
same terms.  It reads literals with its own parser, which checks and adds up
one digit at a time, so a fault in the frontend's ``parse_literal`` shows as
a disagreement instead of being shared by both sides.
"""

from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple, Union

from bvsynth.errors import SygusSyntaxError
from bvsynth.frontend import SExpr

_DELIMS = frozenset(" \t\r\n();")
_HEX = "0123456789abcdef"
# radix letter -> (bits per digit, {digit: value})
_RADIX = {
    "x": (4, {**{d: v for v, d in enumerate(_HEX)}, **{d.upper(): v for v, d in enumerate(_HEX)}}),
    "b": (1, {"0": 0, "1": 1}),
}


def parse_literal(sx: SExpr, width: int) -> int | None:
    """A ``#x``/``#b`` literal's value, or None for anything else; a malformed
    literal, or one of another width, raises the frontend's message (with no
    position: the matcher tests compare messages)."""
    text = sx if isinstance(sx, str) else ""
    if len(text) < 2 or text[0] != "#" or text[1] not in "xXbB":
        return None
    bits_per_digit, values = _RADIX[text[1].lower()]
    body = text[2:]
    if not body or any(ch not in values for ch in body):
        raise SygusSyntaxError(f"malformed literal {text!r}")
    bits = len(body) * bits_per_digit
    if bits != width:
        raise SygusSyntaxError(f"literal {text!r} has width {bits}, expected {width}")
    value = 0
    for ch in body:
        value = (value << bits_per_digit) | values[ch]
    return value


class LineAtom(NamedTuple):
    text: str
    line: int
    col: int


class LineList(list):
    """A list node that remembers the line and column of its '('."""

    def __init__(self, line: int = 0, col: int = 0):
        self.line = line
        self.col = col


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


def read_sexprs(text: str) -> list[Union[LineAtom, LineList]]:
    """Parse a whole document into top-level S-expressions."""
    root = LineList()
    stack: list[LineList] = [root]
    for kind, tok, line, col in _tokens(text):
        if kind == "(":
            node = LineList(line, col)
            stack[-1].append(node)
            stack.append(node)
        elif kind == ")":
            if len(stack) == 1:
                raise SygusSyntaxError("unbalanced ')'", line, col)
            stack.pop()
        else:
            stack[-1].append(LineAtom(tok, line, col))
    if len(stack) != 1:
        raise SygusSyntaxError("unclosed '('", stack[-1].line, stack[-1].col)
    return list(root)


def _head(sx: SExpr) -> str | None:
    if isinstance(sx, list) and sx and isinstance(sx[0], str):
        return sx[0]
    return None


def _app_args(sx: SExpr, fname: str) -> list[SExpr] | None:
    if isinstance(sx, list) and sx and isinstance(sx[0], str) and sx[0] == fname:
        return list(sx[1:])
    return None


def _direct_example(
    term: SExpr, fname: str, width: int
) -> tuple[tuple[int, ...], int] | None:
    if not (isinstance(term, list) and len(term) == 3 and _head(term) == "="):
        return None
    for call, lit in ((term[1], term[2]), (term[2], term[1])):
        args = _app_args(call, fname)
        if args is None:
            continue
        output = parse_literal(lit, width)
        if output is None:
            continue
        inputs = [parse_literal(a, width) for a in args]
        if any(v is None for v in inputs):
            return None
        return tuple(inputs), output  # type: ignore[return-value]
    return None


def _implication_example(
    term: SExpr, fname: str, width: int, declared: Mapping[str, int]
) -> tuple[tuple[int, ...], int] | None:
    if not (isinstance(term, list) and len(term) == 3 and _head(term) == "=>"):
        return None
    antecedent, consequent = term[1], term[2]
    equalities = list(antecedent[1:]) if _head(antecedent) == "and" else [antecedent]

    pinned: dict[str, int] = {}
    out_var: str | None = None
    call_args: list[SExpr] | None = None
    for eq in equalities:
        if not (isinstance(eq, list) and len(eq) == 3 and _head(eq) == "="):
            return None
        matched = False
        for var_side, other in ((eq[1], eq[2]), (eq[2], eq[1])):
            if not (isinstance(var_side, str) and var_side in declared):
                continue
            lit = parse_literal(other, width)
            if lit is not None:
                pinned[var_side] = lit
                matched = True
                break
            args = _app_args(other, fname)
            if args is not None:
                if out_var is not None:
                    return None
                out_var = var_side
                call_args = args
                matched = True
                break
        if not matched:
            return None
    if out_var is None or call_args is None:
        return None

    if not (isinstance(consequent, list) and len(consequent) == 3 and _head(consequent) == "="):
        return None
    output: int | None = None
    for var_side, other in ((consequent[1], consequent[2]), (consequent[2], consequent[1])):
        if isinstance(var_side, str) and var_side == out_var:
            output = parse_literal(other, width)
            break
    if output is None:
        return None

    inputs: list[int] = []
    for a in call_args:
        lit = parse_literal(a, width)
        if lit is None:
            if isinstance(a, str) and a in pinned:
                lit = pinned[a]
            else:
                return None
        inputs.append(lit)
    return tuple(inputs), output


def example_of(
    term: SExpr, fname: str, width: int, declared: Mapping[str, int]
) -> tuple[tuple[int, ...], int] | None:
    """The matcher ``detect_pbe`` used before the two shapes shared one."""
    return _direct_example(term, fname, width) or _implication_example(
        term, fname, width, declared
    )
