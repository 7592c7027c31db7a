"""Deterministic random benchmark generation.

Each instance samples a grammar-derivable target expression, evaluates it
on distinct random inputs, and writes a SyGuS v1 file whose constraints are
the resulting input/output pairs, so every instance is solvable by
construction.  The same spec always produces byte-identical files.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Iterator, NamedTuple

from .enumeration import size_splits
from .frontend import Grammar, OpRule, Production
from .semantics import App, BitVecValue, Const, Expr, OPERATORS, Var
from .semantics import expr_to_sexpr, literal_format, signature_of


# The operators of each grammar template, in production order.
GRAMMAR_TEMPLATES: dict[str, tuple[str, ...]] = {
    "icfp": ("bvnot", "shl1", "shr1", "shr4", "shr16", "bvand", "bvor", "bvxor", "bvadd", "if0"),
    "core": ("bvnot", "bvand", "bvor", "bvxor", "bvadd", "bvsub", "bvshl", "bvlshr", "bvashr", "if0"),
}


def template_grammar(name: str, width: int) -> Grammar:
    """The one-nonterminal grammar of template ``name``: ``x``, the constants
    0 and 1, then the template's operators."""
    if name not in GRAMMAR_TEMPLATES:
        raise ValueError(f"unknown grammar template {name!r}")
    prods: list[Production] = [Var("x"), Const(BitVecValue(width, 0)), Const(BitVecValue(width, 1))]
    for op in GRAMMAR_TEMPLATES[name]:
        prods.append(OpRule(op, ("Start",) * OPERATORS[op]))
    return Grammar(("Start",), {"Start": tuple(prods)}, "Start")


class CorpusSpec(NamedTuple):
    count: int
    size_min: int
    size_max: int
    examples: int
    width: int
    seed: int
    grammar: str = "icfp"

    def validate(self) -> None:
        if self.count < 0:
            raise ValueError("count must be non-negative")
        if not 1 <= self.size_min <= self.size_max:
            raise ValueError("need 1 <= size-min <= size-max")
        if self.examples < 1:
            raise ValueError("need at least one example per instance")
        BitVecValue(self.width, 0)  # checks the width
        if 2**self.width < self.examples:
            raise ValueError("not enough distinct inputs at this width")


def _options(
    grammar: Grammar, table: dict[str, list[bool]], nt: str, s: int
) -> Iterator[tuple[Production, list[tuple[int, ...]]]]:
    """Each production of ``nt`` that derives size ``s``, with its operand size splits that
    ``table`` marks derivable (a leaf has size 1 and none); lazy, as the table needs one."""
    for prod in grammar.productions[nt]:
        if not isinstance(prod, OpRule):
            if s == 1:
                yield prod, []
        elif s - 1 >= len(prod.operands):
            splits = [
                split
                for split in size_splits(s - 1, len(prod.operands))
                if all(table[o][p] for o, p in zip(prod.operands, split))
            ]
            if splits:
                yield prod, splits


def derivable_size_table(grammar: Grammar, max_size: int) -> dict[str, list[bool]]:
    """table[nt][s] is True when ``nt`` derives some expression of exactly size s."""
    table = {nt: [False] * (max_size + 1) for nt in grammar.nonterminals}
    for s in range(1, max_size + 1):
        for nt in grammar.nonterminals:
            table[nt][s] = next(_options(grammar, table, nt, s), None) is not None
    return table


def sample_expr(grammar: Grammar, rng: random.Random, size: int) -> Expr:
    """Sample a random expression of exactly ``size`` nodes from the grammar."""
    table = derivable_size_table(grammar, size)

    def sample(nt: str, s: int) -> Expr:
        # not empty: the table marks (nt, s) derivable
        prod, splits = rng.choice(list(_options(grammar, table, nt, s)))
        if not isinstance(prod, OpRule):
            return prod
        split = rng.choice(splits)
        return App(prod.op, tuple(sample(o, p) for o, p in zip(prod.operands, split)))

    if not table[grammar.start][size]:
        raise ValueError(f"grammar derives nothing of size {size}")
    return sample(grammar.start, size)


def render_grammar_block(grammar: Grammar, width: int) -> str:
    """The inline v1 grammar block of a synth-fun, one production per line."""

    def prod_text(prod: Production) -> str:
        if isinstance(prod, OpRule):
            return "({} {})".format(prod.op, " ".join(prod.operands))
        return expr_to_sexpr(prod)

    nt_blocks = []
    for nt in grammar.nonterminals:
        lines = [f"    ({nt} (BitVec {width})"]
        body = [prod_text(p) for p in grammar.productions[nt]]
        lines.append("        (" + "\n         ".join(body) + "))")
        nt_blocks.append("\n".join(lines))
    return "    (\n" + "\n".join(nt_blocks) + "\n    )"


def render_instance(
    spec: CorpusSpec, grammar: Grammar, target: Expr, pairs: list[tuple[int, int]], index: int
) -> str:
    w = spec.width
    lines = [
        f"; instance {index:04d} (seed {spec.seed}, grammar {spec.grammar}, width {w})",
        f"; target ({target.size} nodes): {expr_to_sexpr(target)}",
        "(set-logic BV)",
        f"(synth-fun f ((x (BitVec {w}))) (BitVec {w})",
        render_grammar_block(grammar, w),
        ")",
    ]
    # both literals of a constraint take the width's literal format
    constraint = "(constraint (= (f {0}) {0}))".format(literal_format(w))
    lines += [constraint.format(value, output) for value, output in pairs]
    lines.append("(check-synth)")
    return "\n".join(lines) + "\n"


def generate_corpus(spec: CorpusSpec, out_dir: Path) -> list[Path]:
    """Write ``spec.count`` instances into ``out_dir``; returns the file paths."""
    spec.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(spec.seed)
    grammar = template_grammar(spec.grammar, spec.width)
    paths = []
    for i in range(spec.count):
        size = rng.randint(spec.size_min, spec.size_max)
        target = sample_expr(grammar, rng, size)
        inputs: list[int] = []
        seen: set[int] = set()
        while len(inputs) < spec.examples:
            v = rng.getrandbits(spec.width)
            if v not in seen:
                seen.add(v)
                inputs.append(v)
        outputs = signature_of(target, ("x",), [(v,) for v in inputs], spec.width)
        text = render_instance(spec, grammar, target, list(zip(inputs, outputs)), i)
        path = out_dir / f"instance_{i:04d}.sl"
        path.write_text(text, encoding="utf-8", newline="\n")
        paths.append(path)
    return paths
