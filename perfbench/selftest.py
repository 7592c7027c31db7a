"""Self-test of the benchmark's answer checker.

Known answers that do not depend on bvsynth, then a seeded differential test
of ``check.evaluate`` against ``bvsynth.eval_expr`` on random expressions over
all 14 operators, at widths 1 to 64, with edge constants (shift amounts of
``width`` and more, the sign bit) and edge inputs.

    python3 perfbench/selftest.py [--cases N]

``run.py`` runs a short version before every benchmark run.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

import check

# (expression, width, x, expected)
KNOWN = [
    ("(bvashr x #x01)", 8, 0x80, 0xC0),
    ("(bvashr x #x07)", 8, 0x80, 0xFF),
    ("(bvashr x #x08)", 8, 0x80, 0xFF),
    ("(bvashr x #xff)", 8, 0x7F, 0x00),
    ("(bvashr x #x09)", 8, 0x40, 0x00),
    ("(bvlshr x #x08)", 8, 0xFF, 0x00),
    ("(bvshl x #x08)", 8, 0xFF, 0x00),
    ("(bvshl x #x07)", 8, 0x03, 0x80),
    ("(bvadd x #xff)", 8, 0x01, 0x00),
    ("(bvsub #x00 x)", 8, 0x01, 0xFF),
    ("(bvnot x)", 1, 0, 1),
    ("(bvashr x #b1)", 1, 1, 1),
    ("(bvshl x #b1)", 1, 1, 0),
    ("(shr16 x)", 8, 0xFF, 0x00),
    ("(shr4 x)", 4, 0xF, 0x0),
    ("(shl1 x)", 64, 1 << 63, 0),
    ("(shr1 (bvnot x))", 64, 0, (1 << 63) - 1),
    ("(if0 x #x1 #x2)", 4, 1, 1),
    ("(if0 x #x1 #x2)", 4, 3, 2),
    ("(if0 x #b01 #b10)", 2, 0, 2),
]

OPS = {
    "bvnot": 1, "bvand": 2, "bvor": 2, "bvxor": 2, "bvadd": 2, "bvsub": 2,
    "bvshl": 2, "bvlshr": 2, "bvashr": 2,
    "shl1": 1, "shr1": 1, "shr4": 1, "shr16": 1, "if0": 3,
}
EDGE_WIDTHS = [1, 2, 3, 4, 5, 8, 15, 16, 17, 31, 32, 33, 63, 64]


def _literal(value: int, width: int) -> str:
    if width % 4 == 0:
        return "#x{0:0{1}x}".format(value, width // 4)
    return "#b{0:0{1}b}".format(value, width)


def _edges(width: int, rng: random.Random) -> list[int]:
    mask = (1 << width) - 1
    values = [0, 1, mask, 1 << (width - 1), mask >> 1, width - 1, width, width + 1, 2 * width]
    return [v & mask for v in values] + [rng.getrandbits(width)]


def _random_tree(rng: random.Random, width: int, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return "x" if rng.random() < 0.5 else ("const", rng.choice(_edges(width, rng)))
    op = rng.choice(sorted(OPS))
    return (op, *(_random_tree(rng, width, depth - 1) for _ in range(OPS[op])))


def _to_text(tree, width: int) -> str:
    if tree == "x":
        return "x"
    if tree[0] == "const":
        return _literal(tree[1], width)
    return "({} {})".format(tree[0], " ".join(_to_text(a, width) for a in tree[1:]))


def _to_expr(tree, width: int, api):
    if tree == "x":
        return api.Var("x")
    if tree[0] == "const":
        return api.Const(api.BitVecValue(width, tree[1]))
    return api.App(tree[0], tuple(_to_expr(a, width, api) for a in tree[1:]))


def run(cases: int, seed: int = 0) -> None:
    """Raise AssertionError on the first disagreement."""
    import bvsynth as api

    for text, width, x, want in KNOWN:
        got = check.evaluate(check.read(text)[0], "x", width, [x])[0]
        assert got == want, f"{text} at width {width}, x={x:#x}: got {got:#x}, want {want:#x}"
    rng = random.Random(seed)
    for case in range(cases):
        width = EDGE_WIDTHS[case % len(EDGE_WIDTHS)] if case % 2 else rng.randint(1, 64)
        tree = _random_tree(rng, width, rng.randint(1, 4))
        text = _to_text(tree, width)
        expr = _to_expr(tree, width, api)
        xs = _edges(width, rng)
        mine = check.evaluate(check.read(text)[0], "x", width, xs)
        for x, value in zip(xs, mine):
            theirs = api.eval_expr(expr, {"x": api.BitVecValue(width, x)}, width).bits
            assert value == theirs, (
                f"{text} at width {width}, x={x:#x}: checker {value:#x}, eval_expr {theirs:#x}"
            )


def main() -> int:
    parser = argparse.ArgumentParser(description="Self-test of the benchmark's answer checker.")
    parser.add_argument("--cases", type=int, default=5000)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    try:
        run(args.cases)
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    print(f"ok: {len(KNOWN)} known answers, {args.cases} differential cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
