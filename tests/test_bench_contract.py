"""The benchmark under ``perfbench/`` wraps and checks this package from outside.

These tests read ``perfbench/`` and change nothing in it, so a refactor that
renames a traced entry point, stops calling it through the name the tracer
wraps, or lets ``eval_expr`` drift from the benchmark's answer checker fails
here rather than only in a benchmark run.  Likewise a change to the
generator pieces a workload is built from (``bvsynth.corpus``,
``signature_of``) fails here before ``perfbench/run.py`` refuses to run, and
so does a renamed failure type that the bench child's ``classify`` looks for.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import sys
from pathlib import Path

import pytest

import bvsynth
from bvsynth import errors as failures
from bvsynth.errors import UnsolvableExample, UnunifiablePair

from helpers import grammar_of, problem_of

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import child  # noqa: E402
import selftest  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Two terminals (x on even inputs, bvnot x on odd ones), so a solve runs
# both phases and every traced entry point.
PARITY = """(set-logic BV)
(synth-fun f ((x (BitVec 8))) (BitVec 8)
  ((Start (BitVec 8) (x #x01 (bvnot Start) (bvand Start Start) (if0 Start Start Start)))))
(constraint (= (f #x00) #x00))
(constraint (= (f #x02) #x02))
(constraint (= (f #x01) #xfe))
(constraint (= (f #x03) #xfc))
(check-synth)
"""


def _owner(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def test_entry_points_resolve_to_callables():
    for module_name, path in spans.ENTRY_POINTS:
        owner, attr = _owner(module_name, path)
        assert callable(getattr(owner, attr, None)), f"{module_name}.{path}"


def test_traced_solve_reaches_every_entry_point(monkeypatch):
    for module_name, path in spans.ENTRY_POINTS:
        owner, attr = _owner(module_name, path)
        # re-setting the current value makes monkeypatch restore it afterwards
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    tracer = spans.Tracer()
    tracer.install()
    try:
        problem = bvsynth.parse_problem(PARITY)
        result = bvsynth.solve_problem(problem)
        bvsynth.emit_solution(problem, result.solution)
    finally:
        gc.callbacks.remove(tracer._on_gc)
    assert result.stats.internal_nodes >= 1
    traced = {span[spans.NAME] for span in tracer.spans}
    for _, path in spans.ENTRY_POINTS:
        assert path.rsplit(".", 1)[-1] in traced, path


def test_closed_engine_keeps_counters_and_store_for_the_bench(monkeypatch):
    # The bench child reads a solve's engine after solve_problem has closed
    # it: its counters for the record, and its store for bytes_per_stored.
    engines = []
    for_problem = bvsynth.EnumerationState.for_problem.__func__

    def capture(cls, *args, **kwargs):
        engines.append(for_problem(cls, *args, **kwargs))
        return engines[-1]

    monkeypatch.setattr(bvsynth.EnumerationState, "for_problem", classmethod(capture))
    # This instance stores about 3,200 signatures, so the store outweighs
    # everything else the engine holds.
    text = workloads.generate(workloads.WORKLOADS["enum32"], workloads.CANARY_SEED)[6]
    result = bvsynth.solve_problem(bvsynth.parse_problem(text))
    (engine,) = engines
    stats = result.stats
    assert (engine.evaluations, engine.stored, engine.pruned, engine.inspected) == (
        stats.evaluations,
        stats.signatures_stored,
        stats.pruned_duplicates,
        stats.candidates,
    )
    pooled = [node[0] for layers in engine._pools.values() for layer in layers for node in layer]
    assert len(pooled) == engine.stored > 1000
    assert spans.deep_size(engine) >= sum(map(sys.getsizeof, pooled))


def test_a_solve_succeeds_exactly_when_its_candidate_budget_covers_it(monkeypatch):
    # The candidate budget is per solve.  On the first enum32 canary instances
    # whose solve takes more than one search (one per distinct terminal and one
    # per split), a budget of the unbudgeted evaluations gives the same solution,
    # and one less ends the solve on building the construction past it.
    engines = []
    for_problem = bvsynth.EnumerationState.for_problem.__func__

    def capture(cls, *args, **kwargs):
        engines.append(for_problem(cls, *args, **kwargs))
        return engines[-1]

    monkeypatch.setattr(bvsynth.EnumerationState, "for_problem", classmethod(capture))
    texts = workloads.generate(workloads.WORKLOADS["enum32"], workloads.CANARY_SEED)
    checked = 0
    for text in texts:
        problem = bvsynth.parse_problem(text)
        free = bvsynth.solve_problem(problem)
        if free.terminal_map.distinct() + free.stats.internal_nodes < 2:
            continue
        needed = free.stats.evaluations
        exact = bvsynth.solve_problem(problem, bvsynth.SearchLimits(max_candidates=needed))
        assert exact.solution == free.solution and exact.stats.evaluations == needed
        failures = (UnsolvableExample, UnunifiablePair)
        with pytest.raises(failures, match=f": candidate budget {needed - 1} exhausted$"):
            bvsynth.solve_problem(problem, bvsynth.SearchLimits(max_candidates=needed - 1))
        assert engines[-1].evaluations == needed  # the budget plus the one that ends it
        checked += 1
        if checked == 3:
            break
    assert checked == 3


def test_workloads_import_the_verifiers_evaluator_from_enumeration():
    # perfbench/workloads.py builds its outputs with bvsynth.enumeration.signature_of
    assert bvsynth.enumeration.signature_of is bvsynth.semantics.signature_of


# The bench child's verdict of each exhaust7 solve is checked with the pinned
# verdicts below; these are the two other ends it tells apart.
@pytest.mark.parametrize(
    "grammar, pairs, limits, expected",
    [
        (grammar_of(["bvand", "bvor", "bvnot", "bvadd"]), [(0x1234, 0xDEADBEEF)],
         bvsynth.SearchLimits(max_size=30, timeout=0.0), "budget"),
        (grammar_of([]), [(1, 1), (3, 6)], bvsynth.SearchLimits(), "exhausted"),
    ],
    ids=["deadline", "exhausted"],
)
def test_bench_classifies_the_end_of_the_stream(grammar, pairs, limits, expected):
    with pytest.raises(failures.SynthesisFailure) as verdict:
        bvsynth.solve_problem(problem_of(grammar, pairs), limits)
    assert child.classify(verdict.value, failures) == expected


def test_benchmark_checker_agrees_with_eval_expr():
    selftest.run(cases=50)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_generation_matches_pinned_fingerprint(name):
    seed = workloads.CANARY_SEED
    pinned = json.loads(workloads.FINGERPRINTS.read_text(encoding="utf-8"))[name][str(seed)]
    texts = workloads.generate(workloads.WORKLOADS[name], seed)
    assert workloads.fingerprint(texts) == pinned


# The emitted solutions and the engine counters (built, stored, pruned,
# inspected) of all 300 enum32 and the first 60 wide200 instances of the canary
# seed, hashed together.  A refactor that keeps solving behaviour identical
# keeps this hash.  A change that alters solutions or counters on purpose
# says which and why, and re-pins it.
IDENTITY_SLICE = {"enum32": 300, "wide200": 60}
IDENTITY_SHA256 = "ae907b59f80b3787b95c7cfc58333c932d792237dc576232aa3de63f8e4ad01e"


def test_solutions_and_counters_match_pinned_identity():
    digest = hashlib.sha256()
    for name, count in IDENTITY_SLICE.items():
        workload = workloads.WORKLOADS[name]
        limits = bvsynth.SearchLimits(max_size=workload.max_size)
        for text in workloads.generate(workload, workloads.CANARY_SEED)[:count]:
            problem = bvsynth.parse_problem(text)
            result = bvsynth.solve_problem(problem, limits)
            s = result.stats
            counters = (s.evaluations, s.signatures_stored, s.pruned_duplicates, s.candidates)
            line = f"{bvsynth.emit_solution(problem, result.solution)}\t{counters}\n"
            digest.update(line.encode("utf-8"))
    assert digest.hexdigest() == IDENTITY_SHA256


# The budget verdicts of all 10 exhaust7 instances of the canary seed: each
# solve's error text and its engine's counters (built, stored, pruned,
# inspected), hashed together.  IDENTITY_SHA256 covers only solves that
# succeed; this covers the path that builds the whole store and gives up.
VERDICT_SHA256 = "0ad374b311bb6f192eb6e53d34947aab00921b87f74880eb826f60e545fb18a9"


def test_budget_verdicts_and_counters_match_pinned_identity(monkeypatch):
    engines = []
    for_problem = bvsynth.EnumerationState.for_problem.__func__

    def capture(cls, *args, **kwargs):
        engines.append(for_problem(cls, *args, **kwargs))
        return engines[-1]

    monkeypatch.setattr(bvsynth.EnumerationState, "for_problem", classmethod(capture))
    workload = workloads.WORKLOADS["exhaust7"]
    limits = bvsynth.SearchLimits(max_size=workload.max_size)
    digest = hashlib.sha256()
    for text in workloads.generate(workload, workloads.CANARY_SEED):
        engines.clear()
        with pytest.raises(bvsynth.errors.SynthesisFailure) as verdict:
            bvsynth.solve_problem(bvsynth.parse_problem(text), limits)
        assert child.classify(verdict.value, failures) == "budget"
        (engine,) = engines
        counters = (engine.evaluations, engine.stored, engine.pruned, engine.inspected)
        line = f"{type(verdict.value).__name__}: {verdict.value}\t{counters}\n"
        digest.update(line.encode("utf-8"))
    assert digest.hexdigest() == VERDICT_SHA256
