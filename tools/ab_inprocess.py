"""Compare two source trees' solve CPU in one process, in alternating passes.

    python3 tools/ab_inprocess.py --parent ../parent/src --change src \
        --workload exhaust7 --seed 1 --rounds 20

``--parent`` and ``--change`` each name a ``src`` directory holding a
``bvsynth`` package.  Both packages are imported from where they are, as the
modules ``bvsynth_parent`` and ``bvsynth_change``, so one process holds both
and neither tree is copied.  The workload is generated once with
``perfbench/workloads.py`` and this checkout's package, its fingerprint is
checked, and each side parses every instance before any timing.

A round solves the whole workload once with each side: the parent first in
even rounds and the change first in odd ones (ABBAABBA...).  Each solve is
timed in process CPU, and a full collection runs before every pass, outside
the timing.  The output gives each side's median pass, the median over the
rounds of the ratio change/parent, and in how many rounds the change was
faster.  One process takes out what differs between processes (memory
layout, hash seed, the host's load over minutes), which per-process
benchmark runs cannot; it measures the solver only, not parsing or start-up.

Both sides must give the same answers and the same counters.  Every solve
builds its engine through ``EnumerationState.for_problem``, which each side
wraps, as ``perfbench/child.py`` does, so a pass reads every solve's
``(evaluations, stored, inspected)`` after it, outside the timing.  An engine
change that keeps every answer, such as one that only ends in the same budget
verdict, is then still checked construction for construction.

Exit codes: 0 both sides gave the same answers and counters in every pass, 1 an
emitted solution, a verdict text or a solve's counters differ, 2 a tree or the
workload could not be set up.
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

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
import workloads  # noqa: E402

SIDES = ("parent", "change")


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


def solve_pass(
    bv: ModuleType, engines: list, problems: list, limits
) -> tuple[float, list[str], list[tuple[int, int, int] | None]]:
    """Seconds of process CPU spent in ``solve_problem`` over ``problems``, each
    problem's emitted solution or its verdict's type and text, and its engine's
    ``(evaluations, stored, inspected)``, or None when it built no engine."""
    gc.collect()
    spent, answers, counters = 0.0, [], []
    for problem in problems:
        t = time.process_time()
        try:
            result = bv.solve_problem(problem, limits)
        except bv.errors.BvSynthError as exc:
            spent += time.process_time() - t
            answers.append(f"{type(exc).__name__}: {exc}")
        else:
            spent += time.process_time() - t
            answers.append(bv.emit_solution(problem, result.solution))
        engine = engines.pop() if engines else None
        engines.clear()
        if engine is not None:
            engine = engine.evaluations, engine.stored, engine.inspected
        counters.append(engine)
    return spent, answers, counters


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
    problems = {side: [bv.parse_problem(text) for text in texts] for side, bv in packages.items()}
    engines = {side: capture_engines(bv) for side, bv in packages.items()}
    limits = {side: bv.SearchLimits(max_size=workload.max_size) for side, bv in packages.items()}

    seconds: dict[str, list[float]] = {side: [] for side in SIDES}
    expected: dict[str, list] = {}
    differing: dict[str, set[int]] = {"answers": set(), "counters": set()}
    for round_ in range(args.rounds):
        for side in SIDES if round_ % 2 == 0 else SIDES[::-1]:
            spent, answers, counters = solve_pass(
                packages[side], engines[side], problems[side], limits[side]
            )
            seconds[side].append(spent)
            for what, values in (("answers", answers), ("counters", counters)):
                expected.setdefault(what, values)
                differing[what].update(
                    i for i, (a, b) in enumerate(zip(expected[what], values)) if a != b
                )

    ratios = [c / p for p, c in zip(seconds["parent"], seconds["change"])]
    wins = sum(c < p for p, c in zip(seconds["parent"], seconds["change"]))
    print(f"{args.workload} seed {args.seed}: {len(texts)} instances, {args.rounds} rounds, "
          "solve CPU per pass")
    for side in SIDES:
        print(f"  {side:<7} median {statistics.median(seconds[side]) * 1000:10.1f} ms")
    print(f"  change/parent median ratio {statistics.median(ratios):.3f}, "
          f"change wins {wins}/{args.rounds}")
    for what, instances in differing.items():
        if instances:
            print(f"{what} differ on instances {sorted(instances)[:10]}", file=sys.stderr)
    if any(differing.values()):
        return 1
    print("answers and counters: same in every pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
