"""SyGuS-IF v1 subset frontend: reader, PBE detection, and solution printing.

Accepted commands: ``set-logic``, ``synth-fun`` with an inline v1 grammar,
``declare-var``, ``constraint``, ``check-synth``, plus ``define-fun`` forms
whose name is a catalogue operator (the usual spelling of the fixed shifts
and ``if0`` in benchmark files).  Both LF and CRLF line endings are fine;
``;`` starts a comment that runs to the end of the line.

Atoms are plain ``str`` and lists plain ``list``; an error names its node's
parent and index, or the list itself.  A syntax error leaves ``read_sexprs``
and ``parse_problem`` with its node's 1-based line and column, found then by
reading the text again in step with the tree.
"""

from __future__ import annotations

import re
from typing import Mapping, NamedTuple, Sequence, Union

from .errors import (
    InconsistentExamples,
    MissingIf0Rule,
    NotPBE,
    SygusSyntaxError,
    UnboundVariable,
    UnsupportedArity,
)
from .semantics import (
    BitVecValue,
    Const,
    Expr,
    MAX_WIDTH,
    MIN_WIDTH,
    OPERATORS,
    Var,
    expr_to_sexpr,
    subexpressions,
)


# ---------------------------------------------------------------------------
# S-expression reader


SExpr = Union[str, list]
_SPACE = str.maketrans("\t\r\n", "   ")  # tab, CR and LF separate tokens as space does


def position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset`` in ``text``; only LF ends a line."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _error(message: str, parent: list | None, index: int | None = None) -> SygusSyntaxError:
    """The error on ``parent[index]``, on the list ``parent``, or on the reader's brackets."""
    return SygusSyntaxError(message, at=(parent, index))


def _read(text: str, top: list) -> list:
    """``top`` with the top-level S-expressions of ``text`` appended; space, tab, CR and LF
    only separate tokens.  After a bracket error ``top`` holds what was read."""
    if ";" in text:
        text = re.sub(r";.*", "", text)  # a comment runs to the end of the line
    root, stack = top, []  # ``stack``: the lists that enclose ``top``
    tokens = text.translate(_SPACE).replace("(", " ( ").replace(")", " ) ").split(" ")
    for token in filter(None, tokens):
        if token == "(":
            stack.append(top)
            top.append(top := [])  # the new list goes into the one that encloses it
        elif token == ")":
            if not stack:
                raise _error("unbalanced ')'", None)
            top = stack.pop()
        else:
            top.append(token)
    if stack:
        raise _error("unclosed '('", None)
    return root


# Read again only to place an error: one match per token, group 1 is '(', 2 is
# ')', 3 an atom; a comment runs to the end of the line.
_TOKEN = re.compile(r"(\()|(\))|;.*|([^ \t\r\n();]+)")


def _nodes(text: str, forms: list):
    """``(parent, index, offset)`` for each node ``parent[index]`` of ``forms``, the tree read
    from ``text``, and ``(node, None, offset)`` for each list ``node``, in document order; last
    ``(None, None, offset)`` at the first ')' closing nothing, or the innermost '(' still open."""
    lists = [[forms, 0, None]]  # each list not yet closed: itself, its next index, its '('
    for m in _TOKEN.finditer(text):
        kind = m.lastindex  # None for a comment
        if kind == 2 and len(lists) == 1:
            yield None, None, m.start()
            return
        if kind == 2:
            lists.pop()
        elif kind:
            top = lists[-1]
            parent, index = top[0], top[1]
            top[1] += 1
            yield parent, index, m.start()
            if kind == 1:
                yield parent[index], None, m.start()
                lists.append([parent[index], 0, m.start()])
    yield None, None, lists[-1][2]


def _reporting_positions(text: str, parse):
    """``parse`` of the tree read from ``text``, where a syntax error leaves with the line and
    column of what it names."""
    forms: list = []
    try:
        return parse(_read(text, forms))
    except SygusSyntaxError as err:
        if err.at is None:
            raise
        offset = next(o for p, i, o in _nodes(text, forms) if p is err.at[0] and i == err.at[1])
        raise SygusSyntaxError(err.message, *position(text, offset), offset) from err


def read_sexprs(text: str) -> list[SExpr]:
    """Parse a whole document into top-level S-expressions."""
    return _reporting_positions(text, lambda forms: forms)


def _head(sx: SExpr) -> str | None:
    return sx[0] if type(sx) is list and sx and type(sx[0]) is str else None


_HEX = "0123456789abcdefABCDEF"
# literal prefix -> (bits per digit, base, digits)
_RADIX = {"#x": (4, 16, _HEX), "#X": (4, 16, _HEX), "#b": (1, 2, "01"), "#B": (1, 2, "01")}


def parse_literal(parent: list, index: int, width: int) -> int | None:
    """``parent[index]``'s value as a ``#x``/``#b`` literal in ``[0, 2**width)``, or None."""
    text = parent[index]
    radix = _RADIX.get(text[:2]) if type(text) is str else None
    if radix is None:
        return None
    bits_per_digit, base, digits = radix
    body = text[2:]
    # int() alone also takes a sign, underscores, a 0x/0b prefix and
    # non-ASCII digits; strip() leaves something over for any of those
    if not body or body.strip(digits):
        raise _error(f"malformed literal {text!r}", parent, index)
    literal_width = len(body) * bits_per_digit
    if literal_width != width:
        raise _error(f"literal {text!r} has width {literal_width}, expected {width}", parent, index)
    return int(body, base)


# ---------------------------------------------------------------------------
# Problem model


class OpRule(NamedTuple):
    op: str
    operands: tuple[str, ...]


Production = Union[Var, Const, OpRule]  # a leaf is the expression it derives


class Grammar(NamedTuple):
    nonterminals: tuple[str, ...]
    productions: dict[str, tuple[Production, ...]]
    start: str

    def first_if0(self) -> OpRule | None:
        rules = (p for nt in self.nonterminals for p in self.productions[nt])
        return next((p for p in rules if isinstance(p, OpRule) and p.op == "if0"), None)


class Example(NamedTuple):
    """Inputs and output are ints in ``[0, 2**width)``; example ``i`` is constraint ``i``."""

    inputs: tuple[int, ...]
    output: int


class _ProblemFields(NamedTuple):
    name: str
    params: tuple[str, ...]
    width: int
    grammar: Grammar
    examples: tuple[Example, ...]


class Problem(_ProblemFields):
    """One PBE problem, checked when it is built: by the parser, by a library caller, or by
    ``_replace``.  It runs ``check_grammar`` and then ``check_examples``, and nothing else
    does, so a Problem built without the parser meets the same rules, with the same errors."""

    __slots__ = ()

    def __new__(cls, name: str, params: tuple, width: int, grammar: Grammar, examples: tuple) -> Problem:
        check_grammar(grammar, params, width)
        check_examples(examples, params, width)
        return super().__new__(cls, name, params, width, grammar, examples)

    @classmethod
    def _make(cls, iterable):  # _replace builds through it
        return cls(*iterable)


def check_grammar(grammar: Grammar, params: Sequence[str], width: int) -> None:
    """Raise ``SygusSyntaxError`` naming the first of: a repeated parameter or nonterminal, a
    start that is not a nonterminal, then per nonterminal in order an empty production tuple,
    an operator rule off the catalogue or its arity, an operand that is not a nonterminal, a
    leaf that is not the ``Var`` of a parameter or a ``Const`` of a ``width``-bit
    ``BitVecValue``; last, an unproductive nonterminal.  A width outside ``[1, 64]`` raises
    ``ValueError`` before any leaf is compared with it."""
    for kind, names in (("parameter", params), ("nonterminal", grammar.nonterminals)):
        if len({*names}) != len(names):
            twice = next(n for i, n in enumerate(names) if n in names[:i])
            raise SygusSyntaxError(f"{kind} {twice!r} is repeated")
    nonterminals = {*grammar.nonterminals}
    if grammar.start not in nonterminals:
        raise SygusSyntaxError(f"start symbol {grammar.start!r} is not a nonterminal")
    productive, rules = set(), []
    BitVecValue(width, 0)  # checks the width
    for nt in grammar.nonterminals:
        if not grammar.productions.get(nt):
            raise SygusSyntaxError(f"nonterminal {nt!r} has no productions")
        for p in grammar.productions[nt]:
            if isinstance(p, OpRule):
                op, operands = p
                if OPERATORS.get(op) != len(operands):
                    raise SygusSyntaxError(
                        f"{op!r} of {len(operands)} operands in {nt!r} is not a catalogue operator"
                    )
                if not nonterminals.issuperset(operands):
                    bad = next(o for o in operands if o not in nonterminals)
                    raise SygusSyntaxError(f"operand {bad!r} of {op!r} in {nt!r} is not a nonterminal")
                rules.append((nt, p))
            elif isinstance(p, Var) and p.name in params or isinstance(p, Const) and (
                isinstance(p.value, BitVecValue) and p.value.width == width
            ):
                productive.add(nt)
            else:
                raise SygusSyntaxError(
                    f"{p!r} in {nt!r} is not a parameter's Var, a Const of width {width} or an OpRule"
                )
    while grown := {nt for nt, p in rules if nt not in productive and productive.issuperset(p.operands)}:
        productive |= grown
    if len(productive) < len(nonterminals):
        vacuous = next(nt for nt in grammar.nonterminals if nt not in productive)
        raise SygusSyntaxError(f"nonterminal {vacuous!r} derives no finite expression")


def check_examples(examples: Sequence[Example], params: Sequence[str], width: int) -> None:
    """Raise ``NotPBE`` for no examples, ``ValueError`` for a width outside ``[1, 64]``,
    ``NotPBE`` for an example with another number of inputs than there are ``params`` or a
    value outside ``[0, 2**width)``, and ``InconsistentExamples`` for two with the same inputs
    and different outputs.  When all is well only C-level passes run; on failure a loop names
    the first bad example or pair."""
    if not examples:
        raise NotPBE("not a PBE task: no constraints")
    mask = BitVecValue(width, -1).bits  # checks the width
    inputs, outputs = zip(*examples)
    columns = [*zip(*inputs), outputs]
    lo, hi = min(map(min, columns)), max(map(max, columns))
    if {*map(len, inputs)} != {len(params)} or lo < 0 or hi > mask:
        for i, (xs, y) in enumerate(examples):
            if len(xs) != len(params):
                raise NotPBE(f"not a PBE task: example {i} has {len(xs)} inputs, not {len(params)}")
            if bad := [v for v in (*xs, y) if not 0 <= v <= mask]:
                raise NotPBE(f"not a PBE task: example {i} has value {bad[0]} outside [0, {mask}]")
    distinct = len({*inputs})  # distinct examples are as many, unless two inputs disagree
    if distinct != len(examples) and distinct != len({*examples}):
        first: dict[tuple[int, ...], int] = {}  # inputs -> the first example's index
        for i, (xs, y) in enumerate(examples):
            if examples[j := first.setdefault(xs, i)].output != y:
                raise InconsistentExamples(f"examples {j} and {i} share inputs but disagree on output")


# ---------------------------------------------------------------------------
# Parsing


def _parse_sort_width(parent: list, index: int) -> int:
    """The width of the sort ``parent[index]``."""
    sx = parent[index]
    head = _head(sx)
    if head == "_" and len(sx) == 3:
        raise _error("SMT-LIB '(_ BitVec N)' sort is v2 syntax; use '(BitVec N)'", sx)
    digits = sx[1] if head == "BitVec" and len(sx) == 2 and type(sx[1]) is str else ""
    if not (digits.isascii() and digits.isdigit()):
        raise _error("expected sort '(BitVec N)'", parent, index)
    width = int(digits)
    if not MIN_WIDTH <= width <= MAX_WIDTH:
        raise _error(f"unsupported width {width}; must be within [{MIN_WIDTH}, {MAX_WIDTH}]", sx)
    return width


def _parse_grammar(parent: list, index: int, params: tuple[str, ...], width: int) -> Grammar:
    """The grammar block ``parent[index]``."""
    block = parent[index]
    if type(block) is not list or not block:
        raise _error("expected a non-empty grammar block", parent, index)
    bodies: dict[str, list] = {}  # nonterminal -> productions, in declaration order
    for i, nt_def in enumerate(block):
        if _head(nt_def) is None or len(nt_def) != 3 or type(nt_def[2]) is not list:
            raise _error("expected '(Name sort (productions...))'", block, i)
        if _parse_sort_width(nt_def, 1) != width:
            raise _error(f"nonterminal sort must be (BitVec {width})", nt_def, 1)
        if nt_def[0] in bodies:
            raise _error(f"duplicate nonterminal {nt_def[0]!r}", nt_def, 0)
        bodies[nt_def[0]] = nt_def[2]

    productions: dict[str, tuple[Production, ...]] = {}
    for name, body in bodies.items():
        prods: list[Production] = []
        for i, p in enumerate(body):
            if type(p) is str:
                bits = parse_literal(body, i, width)
                if bits is not None:
                    prods.append(Const(BitVecValue(width, bits)))
                elif p in params:
                    prods.append(Var(p))
                elif p in bodies:
                    raise _error(f"unit production {p!r} is not supported", body, i)
                else:
                    raise _error(f"unknown grammar symbol {p!r}", body, i)
            else:
                if _head(p) is None:
                    raise _error("expected '(op Nonterminal...)'", p)
                op_name = _operator(p)
                for j in range(1, len(p)):
                    if not (type(p[j]) is str and p[j] in bodies):
                        raise _error("production operands must be nonterminals", p, j)
                prods.append(OpRule(op_name, tuple(p[1:])))
        productions[name] = tuple(prods)

    return Grammar(tuple(bodies), productions, next(iter(bodies)))


def _operator(sx: list) -> str:
    """The operator heading ``sx``, once it is known and given its arity."""
    op_name = _head(sx)
    arity = OPERATORS.get(op_name)
    if arity is None:
        raise _error(f"unknown operator {op_name!r}", sx)
    if len(sx) - 1 != arity:
        raise _error(f"{op_name} expects {arity} operands, got {len(sx) - 1}", sx)
    return op_name


def _parse_fun(form: list) -> tuple[str, tuple[str, ...], int]:
    """Name, parameter names and width of ``(head name ((p sort)...) sort body)``."""
    if len(form) != 5 or type(form[1]) is not str:
        raise _error(f"malformed {form[0]}", form)
    if type(form[2]) is not list:
        raise _error("expected parameter list", form, 2)
    params = []
    for i, item in enumerate(form[2]):
        if not (type(item) is list and len(item) == 2 and type(item[0]) is str):
            raise _error("expected '(name sort)' parameter", form[2], i)
        params.append((item, _parse_sort_width(item, 1)))
    width = _parse_sort_width(form, 3)
    for item, p_width in params:
        if p_width != width:
            raise _error(
                f"parameter {item[0]!r} has width {p_width}, return sort has width {width}", item
            )
    return form[1], tuple(item[0] for item, _ in params), width


def _check_define_fun(form: list) -> None:
    # Benchmark files commonly define the fixed shifts and if0 as helper
    # functions; those names are already in the catalogue, so the body is
    # not interpreted.  Anything else has no semantics here.
    if len(form) != 5 or type(form[1]) is not str:
        raise _error("malformed define-fun", form)
    name = form[1]
    arity = OPERATORS.get(name)
    if arity is None:
        raise _error(f"define-fun {name!r} is not a catalogue operator", form, 1)
    if type(form[2]) is not list or len(form[2]) != arity:
        raise _error(f"define-fun {name!r} must take {arity} parameters", form, 2)


def parse_problem(text: str) -> Problem:
    """Parse and validate one SyGuS problem document."""
    return _reporting_positions(text, _problem)


def _problem(forms: list) -> Problem:
    synth: list | None = None
    constraints: list[SExpr] = []
    declared: dict[str, int] = {}
    for i, form in enumerate(forms):
        head = _head(form)
        if head is None:
            raise _error("expected a command", forms, i)
        if head == "define-fun":
            _check_define_fun(form)
        elif head == "declare-var":
            if len(form) != 3 or type(form[1]) is not str:
                raise _error("expected '(declare-var name sort)'", form)
            declared[form[1]] = _parse_sort_width(form, 2)
        elif head == "synth-fun":
            if synth is not None:
                raise _error("multiple synth-fun forms", form)
            synth = form
        elif head == "constraint":
            if len(form) != 2:
                raise _error("expected '(constraint term)'", form)
            constraints.append(form[1])
        elif head not in ("set-logic", "check-synth"):
            raise _error(f"unsupported command {head!r}", form)

    if synth is None:
        raise SygusSyntaxError("missing synth-fun")
    if len(synth) == 6:
        raise _error(
            "SyGuS v2 grammar syntax (separate nonterminal declaration list) is not supported", synth
        )
    name, params, width = _parse_fun(synth)
    if len(params) != 1:
        raise UnsupportedArity(f"synth-fun {name!r} must be unary, got {len(params)} parameters")
    grammar = _parse_grammar(synth, 4, params, width)
    if grammar.first_if0() is None:
        raise MissingIf0Rule(f"grammar of {name!r} has no production named if0")
    for var, var_width in declared.items():
        if var_width != width:
            raise SygusSyntaxError(f"declared variable {var!r} has width {var_width}, expected {width}")

    examples = detect_pbe(constraints, fname=name, width=width, declared=declared)
    return Problem(name=name, params=params, width=width, grammar=grammar, examples=tuple(examples))


# ---------------------------------------------------------------------------
# PBE detection


def _example_of(
    term: SExpr, fname: str, width: int, declared: Mapping[str, int]
) -> tuple[tuple[int, ...], int] | None:
    """The inputs and output of an example constraint; None for any other term.

    Direct form: ``(= (f lit...) lit)``, either way round.  Implication:
    ``(=> (and (= v lit)... (= o (f arg...))) (= o lit))``, where the antecedent
    pins declared variables and binds ``o`` to the one call, and each
    argument is a literal or a pinned variable.
    """
    call: list | None = None
    out_var: str | None = None
    pinned: dict[str, int] = {}
    head = _head(term)
    if head == "=>" and len(term) == 3:
        antecedent, term = term[1], term[2]
        for eq in antecedent[1:] if _head(antecedent) == "and" else [antecedent]:
            if _head(eq) != "=" or len(eq) != 3:
                return None
            for var, o in ((eq[1], 2), (eq[2], 1)):  # o: the other side's index
                if type(var) is str and var in declared:
                    lit = parse_literal(eq, o, width)
                    if lit is not None:
                        pinned[var] = lit
                        break
                    if _head(eq[o]) == fname:
                        if call is not None:
                            return None  # a second call
                        call, out_var = eq[o], var
                        break
            else:
                return None
        if call is None:
            return None
        head = _head(term)
    if head != "=" or len(term) != 3:
        return None
    for side, o in ((term[1], 2), (term[2], 1)):
        if out_var is None and _head(side) == fname:
            call = side
        elif side != out_var:  # a list is never equal to a name
            continue
        output = parse_literal(term, o, width)
        if output is not None:
            break
    else:
        return None
    inputs = []
    for i in range(1, len(call)):  # every argument is parsed before any is rejected
        value = parse_literal(call, i, width)
        inputs.append(pinned.get(call[i]) if value is None and type(call[i]) is str else value)
    if None in inputs:  # 0 is a value, so no test for truth
        return None
    return tuple(inputs), output


def detect_pbe(
    constraints: list[SExpr], *, fname: str, width: int, declared: Mapping[str, int]
) -> list[Example]:
    """Map every constraint to a concrete input/output example, in file order; the ``Problem``
    checks how many inputs each one has."""
    examples: list[Example] = []
    for i, term in enumerate(constraints):
        parsed = _example_of(term, fname, width, declared)
        if parsed is None:
            raise NotPBE(f"not a PBE task: constraint {i} is not an input/output example")
        examples.append(Example(*parsed))
    return examples


# ---------------------------------------------------------------------------
# Output


def emit_solution(problem: Problem, solution: Expr) -> str:
    """Render a solved problem as a single define-fun S-expression."""
    for e in subexpressions(solution):
        if isinstance(e, Var) and e.name not in problem.params:
            raise UnboundVariable(e.name)
    params = " ".join(f"({p} (BitVec {problem.width}))" for p in problem.params)
    return "(define-fun {} ({}) (BitVec {}) {})".format(
        problem.name, params, problem.width, expr_to_sexpr(solution)
    )
