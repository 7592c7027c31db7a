"""The bvsynth benchmark: one workload, one seed, a time-boxed series of passes.

    python3 perfbench/run.py --workload enum32 --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The run generates the workload from the seed, checks its fingerprint, then
solves the whole workload in fresh child processes ("passes") until
``--seconds`` have gone, at least twice.  Generation is timed again after
each of the first passes: its median, plus the median package import time
of the passes, is the set-up time.
Every answer is re-checked by the benchmark's own evaluator (``check.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, with the tracing overhead against the untraced ones.  The last line
of standard output is one JSON object; the lines before it print every
metric by name with its unit, the quality numbers and an identity record.
Exit codes: 0 all answers correct, 1 a wrong answer or a nondeterministic
pass, 2 the program or the workload could not be set up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "BASELINE.json"

MIN_PASSES = 2
SETUP_SAMPLES = 5  # generations timed per run; more would take time from the passes
HELDOUT_INPUTS = 256
CHILD_DEADLINE_S = 170.0  # the whole run must end within 180 s

# About the reference loop's median CPU time on the 2-CPU VM the baseline was
# measured on.  It only scales the normalised times back into seconds.
REFERENCE_MS = 2.0

# The metrics of BENCHMARK.json's end_to_end list.  Solve times are the
# process's CPU time: the solver is single-threaded and CPU-bound, so on a
# machine of its own that is its wall time.  Each instance's time is its
# median over the passes, which filters bursts of load shorter than a run.
# On a shared host the whole run can still go 1.5-2x slower or faster for
# minutes at a time, and the passes' reference loop (child.py) slows and
# speeds with it.  The "norm" times are therefore scaled by REFERENCE_MS
# over the run's median reference time: across ten seeds this cut the
# spread of exhaust7's solve time from 0.245 to 0.039 of its median.
# The raw CPU time (solve_cpu_s), the wall-clock time of a pass (wall_s) and
# solve_tail_norm_ms are printed and recorded but not bounded: on enum32 the
# tail's spread across seeds reached 0.22-0.35 of its median, because the
# instances near p96 are few and far apart and each one moves with the load.
END_TO_END_UNITS = {
    "solve_norm_s": "s",
    "solve_p50_norm_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def fail_setup(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not (SRC / "bvsynth" / "__init__.py").is_file():
        fail_setup(f"no bvsynth package under {SRC}")
    sys.path.insert(0, str(SRC))
    import bvsynth

    if Path(bvsynth.__file__).resolve().parent != (SRC / "bvsynth").resolve():
        fail_setup(f"imported bvsynth from {bvsynth.__file__}, not from {SRC}")
    return bvsynth


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def run_pass(texts: list[str], order: list[int], max_size: int, trace: bool, deadline: float) -> dict:
    job = json.dumps(
        {"src": str(SRC), "texts": texts, "order": order, "max_size": max_size, "trace": trace}
    )
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=str(HERE),
        # A fixed hash seed keeps string hashing, and so dict layout, alike in every pass.
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    try:
        out, err = proc.communicate(job, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail_setup("a pass did not finish within the run's time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        fail_setup(f"pass exited with {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out)


def identity_of(result: dict) -> tuple:
    return tuple(
        (r["status"], r["solution"], r.get("built"), r.get("stored"), r.get("inspected"))
        for r in result["instances"]
    )


def check_answers(workload, seed: int, texts: list[str], first: dict, check) -> dict:
    """Independent check of one pass's answers, plus held-out agreement."""
    rng = random.Random(f"{workload.name}/heldout/{seed}")
    heldout_xs = [rng.getrandbits(64) for _ in range(HELDOUT_INPUTS)]
    wrong: list[str] = []
    broken: list[str] = []
    failed = 0
    nodes = agree = compared = 0
    for index, (text, rec) in enumerate(zip(texts, first["instances"])):
        examples, target, width = check.parse_instance(text)
        if target is not None:
            got = check.evaluate(target, "x", width, [a for a, _ in examples])
            if got != [b for _, b in examples]:
                broken.append(f"instance {index}: target disagrees with its own examples")
        if rec["status"] == "solved":
            problem = check.check(rec["solution"], text)
            if problem is not None:
                wrong.append(f"instance {index}: {problem}")
                continue
            param, _, body = check.parse_define_fun(rec["solution"])
            nodes += check.size(body)
            if target is not None:
                mine = check.evaluate(body, param, width, heldout_xs)
                theirs = check.evaluate(target, "x", width, heldout_xs)
                agree += sum(a == b for a, b in zip(mine, theirs))
                compared += len(heldout_xs)
        elif workload.solvable or rec["status"] != "budget":
            failed += 1
    return {
        "wrong": wrong,
        "broken": broken,
        "failed_per_pass": failed,
        "solution_nodes": nodes,
        "heldout_acc": agree / compared if compared else None,
    }


def layer_metrics(result: dict, texts_kb: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass, from its spans and records."""
    from spans import AFTER, BEFORE, END, NAME, PARENT, START

    spans = result["spans"]
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]

    def phase(i: int) -> str:
        while i >= 0:
            if spans[i][NAME] == "build_tree":
                return "p2"
            i = spans[i][PARENT]
        return "p1"

    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    inspected: Counter = Counter()
    for i, s in enumerate(spans):
        name = s[NAME]
        if name == "enumerate_until":
            name = f"enumerate_until.{phase(s[PARENT])}"
            inspected[name] += s[AFTER][0] - s[BEFORE][0]
        calls[name] += 1
        total_s[name] += s[END] - s[START]
        self_s[name] += s[END] - s[START] - covered[i]

    recs = result["instances"]
    built = sum(r.get("built", 0) for r in recs)
    pruned = sum(r.get("pruned", 0) for r in recs)
    enum_s = self_s["enumerate_until.p1"] + self_s["enumerate_until.p2"]
    wall = result["wall_s"]
    ms = 1000.0
    metrics = {
        "enumeration.built": built,
        "enumeration.stored": sum(r.get("stored", 0) for r in recs),
        "enumeration.pruned_ratio": pruned / built if built else 0.0,
        "enumeration.built_per_s": built / enum_s if enum_s else 0.0,
        "enumeration.bytes_per_stored": (
            result["store_bytes"] / result["store_entries"] if result["store_entries"] else 0.0
        ),
        "frontend.parse_ms": self_s["parse_problem"] * ms,
        "frontend.parse_kb_per_s": texts_kb / self_s["parse_problem"],
        "frontend.emit_ms": self_s["emit_solution"] * ms,
        "unify.phase1_ms": total_s["map_terminals"] * ms,
        "unify.terminals_distinct": sum(r["terminals"] for r in recs),
        "unify.phase2_ms": (total_s["build_tree"] + total_s["tree_to_expr"]) * ms,
        "unify.conditions": calls["find_condition"],
        "unify.route_self_ms": self_s["build_tree"] * ms,
        "unify.internal_nodes": sum(r["internal_nodes"] for r in recs),
        "unify.tree_to_expr_ms": total_s["tree_to_expr"] * ms,
        "solver.verify_ms": total_s["verify_solution"] * ms,
        "solver.self_ms": self_s["solve_problem"] * ms,
        "runtime.gc_pause_ms": total_s["gc"] * ms,
        "runtime.gc_gen2": result["gc_gen2"],
        "share.frontend": (self_s["parse_problem"] + self_s["emit_solution"]) / wall * 100,
        "share.enumeration_p1": self_s["enumerate_until.p1"] / wall * 100,
        "share.enumeration_p2": self_s["enumerate_until.p2"] / wall * 100,
        "share.unify_route": self_s["build_tree"] / wall * 100,
        "share.solver_verify": self_s["verify_solution"] / wall * 100,
        "share.gc": total_s["gc"] / wall * 100,
    }
    for p in ("p1", "p2"):
        metrics[f"enumeration.searches.{p}"] = calls[f"enumerate_until.{p}"]
        metrics[f"enumeration.inspected.{p}"] = inspected[f"enumerate_until.{p}"]
        metrics[f"enumeration.search_ms.{p}"] = self_s[f"enumerate_until.{p}"] * ms
    return metrics


PER_LAYER_UNITS = {
    "enumeration.built": "count",
    "enumeration.stored": "count",
    "enumeration.pruned_ratio": "ratio",
    "enumeration.built_per_s": "1/s",
    "enumeration.bytes_per_stored": "B",
    "enumeration.searches.p1": "count",
    "enumeration.searches.p2": "count",
    "enumeration.inspected.p1": "count",
    "enumeration.inspected.p2": "count",
    "enumeration.search_ms.p1": "ms",
    "enumeration.search_ms.p2": "ms",
    "frontend.parse_ms": "ms",
    "frontend.parse_kb_per_s": "KB/s",
    "frontend.emit_ms": "ms",
    "unify.phase1_ms": "ms",
    "unify.terminals_distinct": "count",
    "unify.phase2_ms": "ms",
    "unify.conditions": "count",
    "unify.route_self_ms": "ms",
    "unify.internal_nodes": "count",
    "unify.tree_to_expr_ms": "ms",
    "solver.verify_ms": "ms",
    "solver.self_ms": "ms",
    "runtime.gc_pause_ms": "ms",
    "runtime.gc_gen2": "count",
    "corpus.gen_ms": "ms",
    "share.frontend": "%",
    "share.enumeration_p1": "%",
    "share.enumeration_p2": "%",
    "share.unify_route": "%",
    "share.solver_verify": "%",
    "share.gc": "%",
    "trace.overhead_pct": "%",
    "env.reference_ms": "ms",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so a running pass is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import_package()
    import check
    import selftest
    from workloads import WORKLOADS, check_fingerprint, fingerprint, generate

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        fail_setup(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    try:
        selftest.run(cases=200)
    except AssertionError as exc:
        fail_setup(f"the answer checker disagrees with bvsynth.eval_expr: {exc}")

    run_deadline = time.monotonic() + CHILD_DEADLINE_S
    gen_s: list[float] = []

    def timed_generate() -> list[str]:
        t = time.perf_counter()
        generated = generate(workload, args.seed)
        gen_s.append(time.perf_counter() - t)
        return generated

    texts = timed_generate()
    try:
        check_fingerprint(workload, args.seed, texts)
    except RuntimeError as exc:
        fail_setup(str(exc))
    texts_kb = sum(len(t.encode("utf-8")) for t in texts) / 1024.0

    # Set-up is sampled after each of the first passes, so its median sees
    # the same machine as the passes do.
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    # Each pass solves the instances in its own order.  A full GC pause
    # lands wherever the allocation count says; shuffling moves it between
    # instances, so each instance's median over passes is its own time and
    # the pauses show in solve_cpu_s and runtime.gc_pause_ms instead.  The orders
    # do not depend on the seed, so they add no variance between seeds.
    order_rng = random.Random(f"{workload.name}/order")
    order = list(range(len(texts)))
    while True:
        if len(plain) >= (1 if args.trace else MIN_PASSES) and time.monotonic() - start >= args.seconds:
            break
        order_rng.shuffle(order)
        plain.append(run_pass(texts, order, workload.max_size, False, run_deadline))
        if args.trace:
            traced.append(run_pass(texts, order, workload.max_size, True, run_deadline))
        if len(gen_s) < SETUP_SAMPLES and timed_generate() != texts:
            fail_setup("generating the workload twice gave different instances")

    passes = plain + traced
    first = plain[0]
    verdict = check_answers(workload, args.seed, texts, first, check)
    deterministic = all(identity_of(p) == identity_of(first) for p in passes)
    correct = deterministic and not verdict["wrong"] and not verdict["broken"]
    attempted = len(texts) * len(passes)
    failed = (verdict["failed_per_pass"] + len(verdict["wrong"])) * len(passes)

    per_instance = [
        statistics.median(p["instances"][i]["cpu_ms"] for p in plain) for i in range(len(texts))
    ]
    reference = [r for p in plain for r in p["reference_ms"]]
    scale = REFERENCE_MS / statistics.median(reference)
    end_to_end = {
        "solve_norm_s": sum(per_instance) * scale / 1000.0,
        "solve_p50_norm_ms": statistics.median(per_instance) * scale,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "setup_s": statistics.median(gen_s)
        + statistics.median(p["import_ms"] for p in plain) / 1000.0,
    }
    recs = first["instances"]
    solutions = hashlib.sha256(
        "\n".join(r["solution"] or r["status"] for r in recs).encode("utf-8")
    ).hexdigest()
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "passes": len(plain),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "traced_passes": len(traced),
        "instances": len(texts),
        "fingerprint": fingerprint(texts),
        "solutions_sha256": solutions,
        "built": sum(r.get("built", 0) for r in recs),
        "stored": sum(r.get("stored", 0) for r in recs),
        "inspected": sum(r.get("inspected", 0) for r in recs),
        "solution_nodes": verdict["solution_nodes"],
        "statuses": dict(Counter(r["status"] for r in recs)),
        "failed_frac": failed / attempted,
        "heldout_acc": verdict["heldout_acc"],
        "solve_cpu_s": sum(per_instance) / 1000.0,
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "solve_tail_norm_ms": (
            nearest_rank(per_instance, workload.tail_pct) * scale if workload.tail_pct else None
        ),
        "tail_pct": workload.tail_pct,
        "reference_ms": {
            "median": statistics.median(reference),
            "min": min(reference),
            "max": max(reference),
            "samples": len(reference),
        },
        "wrong": (verdict["wrong"] + verdict["broken"])[:10],
        "deterministic": deterministic,
    }

    print(f"workload {workload.name} seed {args.seed}: {len(texts)} instances, "
          f"{len(plain)} passes" + (f" + {len(traced)} traced" if traced else ""))
    for name, value in end_to_end.items():
        print(f"  {name:<26} {value:14.4f} {END_TO_END_UNITS[name]}")
    print(f"  {'solve_cpu_s':<26} {report['solve_cpu_s']:14.4f} s (not normalised)")
    print(f"  {'wall_s':<26} {report['wall_s']:14.4f} s (median pass, wall clock)")
    tail = report["solve_tail_norm_ms"]
    print(f"  {'solve_tail_norm_ms':<26} " + (
        f"{tail:14.4f} ms (p{workload.tail_pct}, {len(texts)} instances)" if tail is not None
        else f"{'n/a':>14} (fewer than 11 instances)"))
    print(f"  {'failed_frac':<26} {report['failed_frac']:14.4f} ({failed}/{attempted} solves)")
    print(f"  {'solution_nodes':<26} {report['solution_nodes']:14d} nodes")
    held = report["heldout_acc"]
    print(f"  {'heldout_acc':<26} " + (f"{held:14.4f} ({HELDOUT_INPUTS} inputs per instance)"
                                        if held is not None else f"{'n/a':>14} (no targets)"))
    print(f"  {'reference loop':<26} {statistics.median(reference):14.4f} ms "
          f"(min {min(reference):.2f}, max {max(reference):.2f}, {len(reference)} samples)")
    for problem in verdict["wrong"][:10] + verdict["broken"][:10]:
        print(f"  WRONG {problem}")
    if not deterministic:
        print("  NONDETERMINISTIC: passes disagree on solutions or counters")
    if BASELINE.is_file():
        base = json.loads(BASELINE.read_text(encoding="utf-8"))["runs"].get(workload.name, {})
        pinned = base.get("report", {})
        if pinned.get("seed") == args.seed:
            keys = ("fingerprint", "solutions_sha256", "built", "stored", "inspected", "solution_nodes")
            moved = [k for k in keys if pinned.get(k) != report[k]]
            print("  identity vs BASELINE.json: " + (f"differs in {', '.join(moved)}" if moved else "same"))

    if args.trace:
        per_pass = [layer_metrics(p, texts_kb) for p in traced]
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["corpus.gen_ms"] = statistics.median(gen_s) * 1000.0
        # Each pass's wall time over its own reference time, so a change in
        # the host's speed between the two kinds of pass is not overhead.
        def relative(p: dict) -> float:
            return p["wall_s"] / statistics.median(p["reference_ms"])

        metrics["trace.overhead_pct"] = (
            statistics.median(map(relative, traced)) / statistics.median(map(relative, plain))
            - 1.0
        ) * 100.0
        metrics["env.reference_ms"] = statistics.median(reference)
        for name, value in metrics.items():
            print(f"  {name:<26} {value:14.4f} {PER_LAYER_UNITS[name]}")
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end
        units = END_TO_END_UNITS
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
