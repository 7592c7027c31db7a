"""Independent answer checker: its own s-expression reader and operator table.

Nothing here imports bvsynth, so a bug in the package's evaluator or
printer cannot hide a wrong answer.  Expressions are evaluated on a whole
list of inputs at once, one list per node.
"""

from __future__ import annotations

import re

_TOKEN = re.compile(r"\(|\)|[^\s();]+")


def read(text: str) -> list:
    """Top-level s-expressions of ``text``; ``;`` comments run to end of line."""
    text = "\n".join(line.split(";", 1)[0] for line in text.splitlines())
    root: list = []
    stack = [root]
    for tok in _TOKEN.findall(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise ValueError("unbalanced ')'")
            node = stack.pop()
            stack[-1].append(node)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise ValueError("unclosed '('")
    return root


def literal(tok: str, width: int) -> int | None:
    if tok.startswith("#x") and width % 4 == 0 and len(tok) - 2 == width // 4:
        return int(tok[2:], 16)
    if tok.startswith("#b") and len(tok) - 2 == width:
        return int(tok[2:], 2)
    return None


def _ops(width: int) -> dict:
    mask = (1 << width) - 1
    sign = 1 << (width - 1)

    def ashr(a: int, b: int) -> int:
        if b >= width:
            return mask if a & sign else 0
        filled = ((mask << (width - b)) & mask) if a & sign else 0
        return (a >> b) | filled

    return {
        "bvnot": (1, lambda a: a ^ mask),
        "bvand": (2, lambda a, b: a & b),
        "bvor": (2, lambda a, b: a | b),
        "bvxor": (2, lambda a, b: a ^ b),
        "bvadd": (2, lambda a, b: (a + b) & mask),
        "bvsub": (2, lambda a, b: (a + (mask ^ b) + 1) & mask),
        "bvshl": (2, lambda a, b: (a << b) & mask if b < width else 0),
        "bvlshr": (2, lambda a, b: a >> b if b < width else 0),
        "bvashr": (2, ashr),
        "shl1": (1, lambda a: (a << 1) & mask),
        "shr1": (1, lambda a: a >> 1),
        "shr4": (1, lambda a: a >> 4),
        "shr16": (1, lambda a: a >> 16),
        "if0": (3, lambda c, t, e: t if c == 1 else e),
    }


def evaluate(node, param: str, width: int, xs: list[int]) -> list[int]:
    """Values of ``node`` for every input in ``xs`` (the single parameter ``param``)."""
    ops = _ops(width)

    def ev(n) -> list[int]:
        if isinstance(n, str):
            if n == param:
                return xs
            value = literal(n, width)
            if value is None:
                raise ValueError(f"unknown symbol {n!r}")
            return [value] * len(xs)
        if not n or not isinstance(n[0], str) or n[0] not in ops:
            raise ValueError(f"unknown operator in {n!r}")
        arity, fn = ops[n[0]]
        if len(n) - 1 != arity:
            raise ValueError(f"{n[0]} expects {arity} operands, got {len(n) - 1}")
        return list(map(fn, *(ev(a) for a in n[1:])))

    return ev(node)


def size(node) -> int:
    return 1 if isinstance(node, str) else 1 + sum(size(a) for a in node[1:])


def parse_define_fun(text: str) -> tuple[str, int, list | str]:
    """(parameter, width, body) of a unary ``define-fun`` over one bitvector sort."""
    forms = read(text)
    if len(forms) != 1:
        raise ValueError("expected exactly one form")
    form = forms[0]
    if len(form) != 5 or form[0] != "define-fun":
        raise ValueError("expected (define-fun name params sort body)")
    params, sort, body = form[2], form[3], form[4]
    if len(params) != 1 or len(params[0]) != 2:
        raise ValueError("expected one parameter")
    name, psort = params[0]
    width = _sort_width(sort)
    if _sort_width(psort) != width:
        raise ValueError("parameter and result widths differ")
    return name, width, body


def _sort_width(sort) -> int:
    if not (isinstance(sort, list) and sort[:-1] in (["BitVec"], ["_", "BitVec"])):
        raise ValueError(f"not a bitvector sort: {sort!r}")
    return int(sort[-1])


def parse_instance(text: str) -> tuple[list[tuple[int, int]], list | str | None, int]:
    """Examples, the ``; target`` expression (None when absent) and the width."""
    target = None
    for line in text.splitlines():
        if line.startswith("; target"):
            target = read(line.split(":", 1)[1])[0]
    width = None
    pairs = []
    for form in read(text):
        if form[0] == "synth-fun":
            width = _sort_width(form[3])
        elif form[0] == "constraint":
            eq = form[1]
            if eq[0] != "=" or not isinstance(eq[1], list) or len(eq[1]) != 2:
                raise ValueError(f"not a direct example: {form!r}")
            pairs.append((eq[1][1], eq[2]))
    if width is None:
        raise ValueError("no synth-fun")
    examples = [(literal(a, width), literal(b, width)) for a, b in pairs]
    if any(a is None or b is None for a, b in examples):
        raise ValueError("bad literal in a constraint")
    return examples, target, width


def check(solution_text: str, instance_text: str) -> str | None:
    """None when the define-fun meets every constraint, else what is wrong."""
    try:
        examples, _, width = parse_instance(instance_text)
        param, sol_width, body = parse_define_fun(solution_text)
        if sol_width != width:
            return f"width {sol_width}, expected {width}"
        got = evaluate(body, param, width, [a for a, _ in examples])
    except (ValueError, IndexError, TypeError) as exc:
        return f"unreadable: {exc}"
    for k, ((_, want), value) in enumerate(zip(examples, got)):
        if value != want:
            return f"constraint {k}: got {value:#x}, want {want:#x}"
    return None
