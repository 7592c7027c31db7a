"""One measured pass: solve every instance of a workload in this fresh process.

Reads a JSON job on stdin ({"src", "texts", "order", "max_size", "trace"}) and
writes one JSON result on stdout, with the instance records in text order.  Each instance is timed from parse to emitted
text through the public API.  Peak RSS is this process's own, so it belongs
to this one workload.  Between instances, at most every REFERENCE_EVERY_S,
the pass times a fixed reference loop, so the parent can tell how fast the
shared host ran while this pass did.
"""

from __future__ import annotations

import json
import resource
import sys
import time


# How often a pass samples the reference loop, between instances.
REFERENCE_EVERY_S = 0.1


def reference_ms() -> float:
    """CPU milliseconds of a fixed pure-Python loop: how fast the host runs now."""
    t = time.process_time()
    acc = 0
    for i in range(20_000):
        acc += i * i & 7
    return (time.process_time() - t) * 1000.0


def classify(exc: BaseException, failures) -> str:
    """The verdict of a failed solve: "budget" when a size, candidate or time
    budget ran out, "exhausted" when the pruned language ended, else "error"."""
    while exc is not None:
        if isinstance(exc, (failures.NotFound, failures.TimeoutExceeded)):
            return "budget"
        if isinstance(exc, failures.Exhausted):
            return "exhausted"
        exc = exc.__cause__
    return "error"


def main() -> None:
    job = json.load(sys.stdin)
    t0 = time.perf_counter()
    sys.path.insert(0, job["src"])
    import bvsynth
    from bvsynth import errors as failures
    from bvsynth.enumeration import EnumerationState

    import_ms = (time.perf_counter() - t0) * 1000.0

    # Every solve builds its engine through for_problem; keep the newest one
    # so the counters of failed solves are readable too.
    engines: list = []
    for_problem = EnumerationState.for_problem.__func__

    def capture(cls, *args, **kwargs):
        engine = for_problem(cls, *args, **kwargs)
        engines.append(engine)
        return engine

    EnumerationState.for_problem = classmethod(capture)

    tracer = None
    if job["trace"]:
        from spans import Tracer, deep_size

        tracer = Tracer()
        tracer.install()
    limits = bvsynth.SearchLimits(max_size=job["max_size"])

    records: list = [None] * len(job["texts"])
    reference: list[float] = []
    last_reference = float("-inf")
    aside_s = 0.0  # time spent on reference samples and store walks
    largest = (0, 0)  # (bytes, stored) of the largest store walked
    start = time.perf_counter()
    for index in job["order"]:
        if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
            w = time.perf_counter()
            reference.append(reference_ms())
            last_reference = time.perf_counter()
            aside_s += last_reference - w
        text = job["texts"][index]
        if tracer is not None:
            tracer.instance = index
        t = time.process_time()
        solution = error = None
        terminals = internal_nodes = 0
        try:
            problem = bvsynth.parse_problem(text)
            result = bvsynth.solve_problem(problem, limits)
            solution = bvsynth.emit_solution(problem, result.solution)
            status = "solved"
            terminals = result.terminal_map.distinct()
            internal_nodes = result.stats.internal_nodes
        except failures.BvSynthError as exc:
            status = classify(exc, failures)
            error = f"{type(exc).__name__}: {exc}"
        cpu_ms = (time.process_time() - t) * 1000.0
        engine = engines.pop() if engines else None
        del engines[:]
        record = {
            "status": status,
            "cpu_ms": cpu_ms,
            "solution": solution,
            "error": error,
            "terminals": terminals,
            "internal_nodes": internal_nodes,
        }
        if engine is not None:
            record.update(
                built=engine.evaluations,
                stored=engine.stored,
                pruned=engine.pruned,
                inspected=engine.inspected,
            )
            # Walk a store only when it at least doubles the largest walked,
            # so a pass pays for a few walks; the walk time is not solve time.
            if tracer is not None and engine.stored >= 2 * max(largest[1], 1):
                w = time.perf_counter()
                largest = (deep_size(engine), engine.stored)
                aside_s += time.perf_counter() - w
        del engine
        records[index] = record
    wall_s = time.perf_counter() - start - aside_s

    out = {
        "import_ms": import_ms,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "instances": records,
        "reference_ms": reference,
    }
    if tracer is not None:
        out["spans"] = tracer.spans
        out["gc_gen2"] = tracer.gc_gen2
        out["store_bytes"] = largest[0]
        out["store_entries"] = largest[1]
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
