"""Fixed-width bitvector values, the expression AST, and the concrete evaluator.

Every operator is total on in-range inputs: results are reduced modulo
2**width, logical shifts by amounts >= width yield 0, and the arithmetic
shift fills with the sign bit.  ``if0`` selects its second operand exactly
when the condition value equals 1.

``signature_of`` evaluates one expression on every example input.  It is the
evaluator that verification and the corpus generator use: it applies each
operator value by value, never on the enumeration's packed lanes, so a
solution is checked without the engine that found it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Sequence, Union

from .errors import UnboundVariable, WidthMismatch

MIN_WIDTH = 1
MAX_WIDTH = 64


def literal_format(width: int) -> str:
    """The format string of a ``width``-bit SMT-LIB literal, for one int in
    ``[0, 2**width)``: ``#b`` when the width is not a whole hex digit count."""
    return f"#x{{:0{width // 4}x}}" if width % 4 == 0 else f"#b{{:0{width}b}}"


class BitVecValue(NamedTuple("BitVecValue", [("width", int), ("bits", int)])):
    """Unsigned bitvector; ``bits`` is kept reduced modulo 2**width."""

    __slots__ = ()

    def __new__(cls, width: int, bits: int) -> BitVecValue:
        if not MIN_WIDTH <= width <= MAX_WIDTH:
            raise ValueError(f"width must be within [{MIN_WIDTH}, {MAX_WIDTH}]: {width}")
        return super().__new__(cls, width, bits & ((1 << width) - 1))

    def __str__(self) -> str:
        """SMT-LIB literal text."""
        return literal_format(self.width).format(self.bits)


# Each catalogue operator's arity; ``bound_operators`` holds its int-level function.
OPERATORS: dict[str, int] = {
    "bvnot": 1,
    "bvand": 2,
    "bvor": 2,
    "bvxor": 2,
    "bvadd": 2,
    "bvsub": 2,
    "bvshl": 2,
    "bvlshr": 2,
    "bvashr": 2,
    "shl1": 1,
    "shr1": 1,
    "shr4": 1,
    "shr16": 1,
    "if0": 3,
}
COMMUTATIVE = frozenset({"bvand", "bvor", "bvxor", "bvadd"})  # (op a b) = (op b a)


@lru_cache(maxsize=None)
def bound_operators(width: int) -> dict[str, Callable[..., int]]:
    """Width-specialised implementations for every catalogue operator."""
    mask = BitVecValue(width, -1).bits  # checks the width
    sign = 1 << (width - 1)

    def ashr(a: int, b: int) -> int:
        signed = a - (sign << 1) if a & sign else a
        return (signed >> (b if b < width else width - 1)) & mask

    return {
        "bvnot": lambda a: ~a & mask,
        "bvand": lambda a, b: a & b,
        "bvor": lambda a, b: a | b,
        "bvxor": lambda a, b: a ^ b,
        "bvadd": lambda a, b: (a + b) & mask,
        "bvsub": lambda a, b: (a - b) & mask,
        "bvshl": lambda a, b: (a << b) & mask if b < width else 0,
        "bvlshr": lambda a, b: a >> b if b < width else 0,
        "bvashr": ashr,
        "shl1": lambda a: (a << 1) & mask,
        "shr1": lambda a: a >> 1,
        "shr4": lambda a: a >> 4,
        "shr16": lambda a: a >> 16,
        # The then-branch is taken exactly when the condition equals 1.
        "if0": lambda c, t, e: t if c == 1 else e,
    }


class Var(NamedTuple):
    name: str
    size = 1


class Const(NamedTuple):
    value: BitVecValue
    size = 1


class App:
    """An operator application; never mutated once built.  Hashing, equality
    and repr never recurse: the hash is computed at construction from the
    operands' hashes, ``==`` walks the trees with an explicit stack, and
    ``repr`` is the S-expression."""

    __slots__ = ("op", "args", "size", "_hash")

    def __init__(self, op: str, args: tuple[Expr, ...]) -> None:
        arity = OPERATORS.get(op)
        if arity is None:
            raise ValueError(f"unknown operator: {op}")
        if len(args) != arity:
            raise ValueError(f"{op} expects {arity} operands, got {len(args)}")
        self.op, self.args = op, args
        self.size = 1 + sum(a.size for a in args)
        self._hash = hash((op, *map(hash, args)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, App):
            return NotImplemented
        todo: list[tuple[Expr, Expr]] = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if type(a) is not App or type(b) is not App:
                if a != b:  # a leaf: Var or Const
                    return False
            elif a._hash != b._hash or a.op != b.op:
                return False
            else:
                todo.extend(zip(a.args, b.args))
        return True

    def __repr__(self) -> str:
        return f"App({expr_to_sexpr(self)!r})"


Expr = Union[Var, Const, App]


def operands(expr: Expr) -> tuple[Expr, ...] | None:
    """The operands of an application, or None for a leaf: ``fold``'s ``children``."""
    return expr.args if type(expr) is App else None


def subexpressions(expr: Expr) -> Iterator[Expr]:
    """Preorder traversal, the expression itself included; iterative."""
    todo = [expr]
    while todo:
        e = todo.pop()
        yield e
        if isinstance(e, App):
            todo.extend(reversed(e.args))


def fold(root: Any, children: Callable, leaf: Callable, node: Callable) -> Any:
    """Fold ``root``'s tree bottom-up without recursion.  ``children(n)`` (None
    for a leaf) is called on every node, and ``leaf(n)`` just after it on every
    leaf, in preorder, left to right; ``node(n, values)`` is called in postorder,
    with the values of all of ``n``'s children, in order."""
    done: list = []
    todo: list[tuple[Any, int]] = [(root, -1)]  # -1, or where n's values start on done
    while todo:
        n, start = todo.pop()
        if start >= 0:
            done[start:] = [node(n, done[start:])]
        elif (kids := children(n)) is None:
            done.append(leaf(n))
        else:
            todo.append((n, len(done)))
            todo.extend([(c, -1) for c in reversed(kids)])
    return done[0]


def eval_columns(expr: Expr, columns: Mapping[str, Sequence[int]], width: int, n: int) -> list[int]:
    """The values of ``expr`` on ``n`` inputs; ``columns`` maps each variable
    to its ``n`` values.  A fold applies each operator across all inputs at
    once.  Leaves are met in preorder, left to right, so the first error
    raised is the one a recursive evaluator would raise."""
    fns = bound_operators(width)

    def leaf(e: Expr) -> Sequence[int]:
        if isinstance(e, Var):
            if e.name not in columns:
                raise UnboundVariable(e.name)
            return columns[e.name]
        if e.value.width != width:
            raise WidthMismatch(f"constant {e.value} has width {e.value.width}, expected {width}")
        return [e.value.bits] * n

    return list(fold(expr, operands, leaf, lambda e, values: list(map(fns[e.op], *values))))


def signature_of(
    expr: Expr, params: Sequence[str], rows: Sequence[tuple[int, ...]], width: int
) -> tuple[int, ...]:
    """Evaluate ``expr`` on every input row; rows carry parameter bits in order."""
    columns = {name: [row[i] for row in rows] for i, name in enumerate(params)}
    return tuple(eval_columns(expr, columns, width, len(rows)))


def eval_expr(expr: Expr, env: Mapping[str, BitVecValue], width: int) -> BitVecValue:
    """Evaluate ``expr`` under ``env`` at ``width``; total on in-range inputs."""
    # A variable of another width is left out, so it fails only where it occurs.
    columns = {name: (v.bits,) for name, v in env.items() if v.width == width}
    try:
        return BitVecValue(width, eval_columns(expr, columns, width, 1)[0])
    except UnboundVariable as exc:
        if exc.name not in env:
            raise
        bad = env[exc.name].width
        raise WidthMismatch(f"variable {exc.name} has width {bad}, expected {width}") from None


def expr_to_sexpr(expr: Expr) -> str:
    """Canonical S-expression text, in the syntax the frontend reader reads."""
    parts: list[str] = []
    todo: list[Union[Expr, str]] = [expr]  # expressions, and text to copy as is
    while todo:
        e = todo.pop()
        if isinstance(e, App):
            parts.append("(" + e.op)
            todo.append(")")
            for a in reversed(e.args):
                todo += (a, " ")
        elif isinstance(e, Var):
            parts.append(e.name)
        else:
            parts.append(e if isinstance(e, str) else str(e.value))
    return "".join(parts)
