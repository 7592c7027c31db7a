"""Command-line interface: solve one file, generate corpora, benchmark a directory.

Exit codes for ``solve``: 0 solved and verified, 1 budget exhausted or
unsolvable within the grammar, 2 parse or shape error.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import NamedTuple

from .corpus import CorpusSpec, GRAMMAR_TEMPLATES, generate_corpus
from .errors import BvSynthError, SynthesisFailure
from .frontend import Problem, emit_solution, parse_problem
from .solver import SearchLimits, SolveResult, solve_problem


def _limits(args: argparse.Namespace) -> SearchLimits:
    return SearchLimits(
        max_size=args.max_size, max_candidates=args.max_candidates, timeout=args.timeout
    )


def _solve_file(
    path: Path, limits: SearchLimits
) -> tuple[str, Problem | None, SolveResult | Exception]:
    """Read, parse and solve one file.  Returns its bench status, ``solved``,
    ``budget`` or ``error``; its problem, or None when the file could not be
    read or parsed; and the solve's result, or the error that ended the run."""
    try:
        # newline="" keeps CRLF bytes intact (the reader owns line-ending
        # tolerance); utf-8-sig swallows a Windows BOM if one is present.
        with open(path, encoding="utf-8-sig", newline="") as handle:
            problem = parse_problem(handle.read())
    except (OSError, UnicodeDecodeError, BvSynthError) as exc:
        return "error", None, exc
    try:
        return "solved", problem, solve_problem(problem, limits)
    except SynthesisFailure as exc:
        return "budget", problem, exc
    except BvSynthError as exc:
        return "error", problem, exc


def cmd_solve(args: argparse.Namespace) -> int:
    status, problem, outcome = _solve_file(Path(args.file), _limits(args))
    if status != "solved":
        print(f"{'unsolved' if status == 'budget' else 'error'}: {outcome}", file=sys.stderr)
        return 2 if problem is None else 1
    print(emit_solution(problem, outcome.solution))
    if args.stats:
        for line in outcome.stats.lines():
            print(line, file=sys.stderr)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    spec = CorpusSpec(
        count=args.count,
        size_min=args.size_min,
        size_max=args.size_max,
        examples=args.examples,
        width=args.width,
        seed=args.seed,
        grammar=args.grammar,
    )
    try:
        paths = generate_corpus(spec, Path(args.out))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(paths)} instances to {args.out}")
    return 0


class BenchRow(NamedTuple):
    file: str
    status: str
    millis: int
    solution_size: int | None = None
    internal_nodes: int | None = None
    candidates: int | None = None

    def cells(self) -> list[str]:
        opt = (self.solution_size, self.internal_nodes, self.candidates)
        return [self.file, self.status, str(self.millis), *("" if v is None else str(v) for v in opt)]


def bench_directory(
    directory: Path, limits: SearchLimits, solutions_dir: Path | None = None
) -> list[BenchRow]:
    rows: list[BenchRow] = []
    if solutions_dir is not None:
        solutions_dir.mkdir(parents=True, exist_ok=True)
    for path in sorted(directory.glob("*.sl")):
        started = time.perf_counter()
        status, problem, outcome = _solve_file(path, limits)
        millis = int((time.perf_counter() - started) * 1000)
        if status == "solved" and solutions_dir is not None:
            try:  # an unwritable file is this row's error
                text = emit_solution(problem, outcome.solution) + "\n"
                (solutions_dir / f"{path.stem}.sol").write_text(text, encoding="utf-8", newline="\n")
            except (OSError, BvSynthError) as exc:
                status, outcome = "error", exc
        if status == "error":
            print(f"{path.name}: {outcome}", file=sys.stderr)
        if status != "solved":
            rows.append(BenchRow(path.name, status, millis))
            continue
        s = outcome.stats
        rows.append(
            BenchRow(path.name, status, millis, s.solution_size, s.internal_nodes, s.candidates)
        )
    return rows


def _print_table(rows: list[BenchRow]) -> None:
    import statistics  # loaded by bench only, not by solve
    table = [BenchRow._fields, *(row.cells() for row in rows)]
    fmt = "  ".join(f"{{:<{max(map(len, column))}}}" for column in zip(*table))
    for cells in table:
        print(fmt.format(*cells))
    solved = [r for r in rows if r.status == "solved"]
    if solved:
        times = [r.millis for r in solved]
        print(
            f"solved {len(solved)}/{len(rows)}  "
            f"mean {statistics.mean(times):.1f} ms  median {statistics.median(times):.1f} ms"
        )
    else:
        print(f"solved 0/{len(rows)}")


def cmd_bench(args: argparse.Namespace) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        print(f"error: not a directory: {directory}", file=sys.stderr)
        return 2
    import csv  # loaded by bench only, not by solve
    solutions_dir = Path(args.solutions) if args.solutions else None
    try:
        # opened before the first solve, so an unwritable path fails at once
        csv_file = open(args.csv, "w", encoding="utf-8", newline="") if args.csv else nullcontext()
        with csv_file as handle:
            rows = bench_directory(directory, _limits(args), solutions_dir)
            _print_table(rows)
            if handle is not None:
                writer = csv.writer(handle)
                writer.writerow(BenchRow._fields)
                writer.writerows(row.cells() for row in rows)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _budget(convert, ok):
    """An argparse type: the flag's text as ``convert`` reads it, when ``ok`` holds for it."""

    def budget(text: str):
        if not ok(value := convert(text)):
            raise ValueError(text)  # argparse exits 2: "invalid budget value: ..."
        return value

    return budget


def _add_budget_flags(parser: argparse.ArgumentParser, defaults: SearchLimits) -> None:
    count = _budget(int, lambda n: n >= 0)
    seconds = _budget(float, lambda t: 0 < t < float("inf"))  # neither nan nor inf
    for flag, kind, default, text in (
        ("--timeout", seconds, defaults.timeout, "wall seconds per solve"),
        ("--max-size", count, defaults.max_size, "largest expression size searched"),
        ("--max-candidates", count, defaults.max_candidates, "constructions per solve"),
    ):
        parser.add_argument(flag, type=kind, default=default, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvsynth", description="PBE synthesizer for fixed-width bitvector functions"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one SyGuS problem file")
    solve.add_argument("file")
    _add_budget_flags(solve, SearchLimits())
    solve.add_argument("--stats", action="store_true", help="print run statistics to stderr")
    solve.set_defaults(func=cmd_solve)

    gen = sub.add_parser("gen", help="generate a random solvable corpus")
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--size-min", type=int, required=True)
    gen.add_argument("--size-max", type=int, required=True)
    gen.add_argument("--examples", type=int, required=True)
    gen.add_argument("--width", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--grammar", choices=sorted(GRAMMAR_TEMPLATES), default="icfp")
    gen.set_defaults(func=cmd_gen)

    bench = sub.add_parser("bench", help="solve every .sl file in a directory")
    bench.add_argument("dir")
    _add_budget_flags(bench, SearchLimits(timeout=60.0))  # one instance cannot stall a corpus run
    bench.add_argument("--csv", default=None, help="also write results as CSV")
    bench.add_argument("--solutions", default=None, help="write each solution next to its name")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
