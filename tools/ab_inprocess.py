"""Compare two source trees' CPU time in one process, instance by instance.

    python3 tools/ab_inprocess.py --parent ../parent/src --change src \
        --workload exhaust7 --seed 1 --rounds 20

``--parent`` and ``--change`` each name a ``src`` directory holding a
``bvsynth`` package.  Both packages are imported from where they are, as the
modules ``bvsynth_parent`` and ``bvsynth_change``, so one process holds both
and neither tree is copied.  The workload is generated once with
``perfbench/workloads.py`` and this checkout's package, and its fingerprint
is checked.

A round runs one full collection, outside the timing, then runs every
instance with both sides in turn, one right after the other.  The side that
goes first alternates by instance and by round: the parent goes first on
even instances of even rounds and on odd instances of odd rounds.  So host
drift falls on both sides alike, which alternating whole passes cannot
promise when a pass lasts a fraction of a second.  Each run parses the
instance's text, solves it and emits the solution or formats the verdict,
as ``perfbench/child.py`` does, and two spans of it are timed in process CPU:
the solve alone, and the whole of parse, solve and emit, which is what the
benchmark times.  Each side's times are summed per round.  The output gives
each side's median round of both, and for each the median over the rounds of
the ratio change/parent with the lowest and highest such ratio, and in how
many rounds the change was faster.  One process takes out what differs
between processes (memory layout, hash seed, the host's load over minutes),
which per-process benchmark runs cannot; it does not measure start-up.

Both sides must give the same answers and the same counters.  Every solve
builds its engine through ``EnumerationState.for_problem``, which each side
wraps, as ``perfbench/child.py`` does, so each solve's ``(evaluations,
stored, inspected)`` is read after it, outside the timing.  An engine change
that keeps every answer, such as one that only ends in the same budget
verdict, is then still checked construction for construction.

Exit codes: 0 both sides gave the same answers and counters on every solve, 1
an emitted solution, a verdict text or a solve's counters differ, 2 a tree or
the workload could not be set up.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import sys
import time
from pathlib import Path
from types import ModuleType
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
import workloads  # noqa: E402

SIDES = ("parent", "change")
Run = tuple[float, float, str, tuple[int, int, int] | None]  # solve s, total s, answer, counters
Solve = Callable[[int], Run]


def load(name: str, src: Path) -> ModuleType:
    """The ``bvsynth`` package under ``src``, imported as the module ``name``."""
    package = src / "bvsynth"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its submodules import each other through it
    spec.loader.exec_module(module)
    return module


def capture_engines(bv: ModuleType) -> list:
    """The list to which every later ``EnumerationState.for_problem`` call of
    ``bv`` appends the engine it builds."""
    engines: list = []
    for_problem = bv.EnumerationState.for_problem.__func__

    def capture(cls, *args, **kwargs):
        engines.append(for_problem(cls, *args, **kwargs))
        return engines[-1]

    bv.EnumerationState.for_problem = classmethod(capture)
    return engines


def solver(bv: ModuleType, texts: list[str], limits) -> Solve:
    """``solve(i)``: the seconds of process CPU ``bv.solve_problem`` spends on the
    problem ``texts[i]`` holds, those of parsing, solving and emitting it together,
    its emitted solution or its verdict's type and text, and its engine's
    ``(evaluations, stored, inspected)``, or None when it built no engine.  A text
    the parser rejects has its error's type and text as its answer, no solve time
    and no counters."""
    engines = capture_engines(bv)

    def solve(i: int) -> Run:
        t = time.process_time()
        try:
            problem = bv.parse_problem(texts[i])
        except bv.errors.BvSynthError as exc:
            return 0.0, time.process_time() - t, f"{type(exc).__name__}: {exc}", None
        s = time.process_time()
        try:
            result = bv.solve_problem(problem, limits)
        except bv.errors.BvSynthError as exc:
            solved = time.process_time() - s
            answer = f"{type(exc).__name__}: {exc}"
        else:
            solved = time.process_time() - s
            answer = bv.emit_solution(problem, result.solution)
        total = time.process_time() - t
        engine = engines.pop() if engines else None
        engines.clear()
        counters = None if engine is None else (engine.evaluations, engine.stored, engine.inspected)
        return solved, total, answer, counters

    return solve


def ratio_line(what: str, parent: list[float], change: list[float]) -> str:
    """The median, lowest and highest ratio change/parent of the rounds' times of ``what``,
    and in how many rounds the change was faster."""
    ratios = [c / p for p, c in zip(parent, change)]
    wins = sum(c < p for p, c in zip(parent, change))
    return (f"  {what:<16} change/parent median ratio {statistics.median(ratios):.4f}, "
            f"per-round ratios {min(ratios):.4f}-{max(ratios):.4f}, change wins {wins}/{len(ratios)}")


def run_round(round_: int, solve: dict[str, Solve], count: int) -> dict[str, list]:
    """Each side's ``solve(i)`` results for instances ``0..count-1`` in one round: one full
    collection first, then both sides solve each instance in turn, the side that goes first
    alternating by instance and by round."""
    gc.collect()
    results: dict[str, list] = {side: [] for side in SIDES}
    for i in range(count):
        first = (i + round_) % 2
        for side in (SIDES[first], SIDES[1 - first]):
            results[side].append(solve[side](i))
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's src directory")
    parser.add_argument("--change", type=Path, required=True, help="the change's src directory")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    workload = workloads.WORKLOADS[args.workload]
    try:
        texts = workloads.generate(workload, args.seed)
        workloads.check_fingerprint(workload, args.seed, texts)
        packages = {side: load(f"bvsynth_{side}", getattr(args, side)) for side in SIDES}
    except (OSError, ImportError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    solve = {
        side: solver(bv, texts, bv.SearchLimits(max_size=workload.max_size)) for side, bv in packages.items()
    }

    spans = ("solve", "parse+solve+emit")  # at indices 0 and 1 of a run
    seconds = {span: {side: [] for side in SIDES} for span in spans}
    expected: list | None = None
    differing: dict[str, set[int]] = {"answers": set(), "counters": set()}
    for round_ in range(args.rounds):
        for side, results in run_round(round_, solve, len(texts)).items():
            for k, span in enumerate(spans):
                seconds[span][side].append(sum(run[k] for run in results))
            expected = expected or results
            for i, (want, got) in enumerate(zip(expected, results)):
                for k, what in enumerate(differing, 2):  # answers at index 2, counters at 3
                    if got[k] != want[k]:
                        differing[what].add(i)

    print(f"{args.workload} seed {args.seed}: {len(texts)} instances, {args.rounds} rounds, "
          "CPU per round, sides interleaved by instance")
    for side in SIDES:
        medians = [statistics.median(seconds[span][side]) * 1000 for span in spans]
        print(f"  {side:<7} median solve {medians[0]:10.1f} ms, parse+solve+emit {medians[1]:10.1f} ms")
    for span in spans:
        print(ratio_line(span, seconds[span]["parent"], seconds[span]["change"]))
    for what, instances in differing.items():
        if instances:
            print(f"{what} differ on instances {sorted(instances)[:10]}", file=sys.stderr)
    if any(differing.values()):
        return 1
    print("answers and counters: same on every solve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
