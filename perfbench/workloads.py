"""Workload definitions and seeded generation for the bvsynth benchmark.

Every workload uses width 64 and the ``icfp`` grammar.  Instances are built
with the package's own generator pieces (``bvsynth.corpus``), so a workload
is exactly what ``bvsynth gen`` would write for the same targets and inputs.

The target expressions of a workload are fixed: they come from the
workload's own ``target_seed``.  The run seed draws the example inputs (and,
for ``exhaust7``, the random outputs).  Random targets make the cost of a
corpus swing by 7x between seeds (one size-9 target alone can take 15 s and
860 MB), so a seeded target draw would bury every change under workload
variance; fixed targets keep the work comparable across seeds while the
inputs still change with the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

WIDTH = 64
GRAMMAR = "icfp"
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"
# Seed whose fingerprint every run re-checks, whatever seed it was given.
CANARY_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    count: int
    size_min: int
    size_max: int
    examples: int
    target_seed: int
    solvable: bool  # False: outputs are random and a budget verdict is a success
    max_size: int  # solver size budget
    tail_pct: int | None  # highest percentile with ten instances beyond it; None below 11


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Phase-1 construction dominates: enumeration changes must show here.
        Workload(
            name="enum32",
            count=300,
            size_min=5,
            size_max=7,
            examples=32,
            target_seed=1,
            solvable=True,
            max_size=12,
            tail_pct=96,
        ),
        # Parse, verify and phase-2 pool re-scans: the store is read, not grown.
        Workload(
            name="wide200",
            count=200,
            size_min=3,
            size_max=6,
            examples=200,
            target_seed=2,
            solvable=True,
            max_size=12,
            tail_pct=95,
        ),
        # Random outputs: every solve builds the full store to size 7 and ends
        # in the budget verdict.
        Workload(
            name="exhaust7",
            count=10,
            size_min=1,
            size_max=1,
            examples=32,
            target_seed=0,
            solvable=False,
            max_size=7,
            tail_pct=None,
        ),
    )
}


def generate(workload: Workload, seed: int) -> list[str]:
    """The workload's instances for ``seed``; the same seed gives the same texts."""
    from bvsynth.corpus import CorpusSpec, render_instance, sample_expr, template_grammar
    from bvsynth.enumeration import signature_of
    from bvsynth.semantics import Var

    spec = CorpusSpec(
        count=workload.count,
        size_min=workload.size_min,
        size_max=workload.size_max,
        examples=workload.examples,
        width=WIDTH,
        seed=seed,
        grammar=GRAMMAR,
    )
    spec.validate()
    grammar = template_grammar(GRAMMAR, WIDTH)
    target_rng = random.Random(workload.target_seed)
    # A string seed keeps the input stream independent of the target stream.
    input_rng = random.Random(f"{workload.name}/inputs/{seed}")
    texts = []
    for index in range(workload.count):
        inputs: list[int] = []
        if workload.solvable:
            size = target_rng.randint(workload.size_min, workload.size_max)
            target = sample_expr(grammar, target_rng, size)
            # Phase 1 searches example 0 first.  Whether that search meets the
            # target or a smaller expression that happens to fit example 0
            # decides whether the instance needs phase 2 at all, so example 0
            # is fixed with the target and only the others follow the seed.
            inputs.append(target_rng.getrandbits(WIDTH))
        seen = set(inputs)
        while len(inputs) < workload.examples:
            value = input_rng.getrandbits(WIDTH)
            if value not in seen:
                seen.add(value)
                inputs.append(value)
        if workload.solvable:
            outputs = list(signature_of(target, ("x",), [(v,) for v in inputs], WIDTH))
        else:
            target = Var("x")
            outputs = [input_rng.getrandbits(WIDTH) for _ in inputs]
        text = render_instance(spec, grammar, target, list(zip(inputs, outputs)), index)
        if not workload.solvable:
            first, _, rest = text.partition("\n")
            text = f"{first}\n; no target: outputs are random\n{rest.partition(chr(10))[2]}"
        texts.append(text)
    return texts


def fingerprint(texts: list[str]) -> str:
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def check_fingerprint(workload: Workload, seed: int, texts: list[str]) -> None:
    """Raise ``RuntimeError`` when generation no longer matches the pinned hashes.

    The canary seed is regenerated and checked on every run; the run's own
    seed is checked too when it is pinned.
    """
    pinned = json.loads(FINGERPRINTS.read_text(encoding="utf-8")).get(workload.name)
    if not pinned:
        raise RuntimeError(f"no pinned fingerprints for workload {workload.name}")
    checks = [(CANARY_SEED, generate(workload, CANARY_SEED))]
    if str(seed) in pinned:
        checks.append((seed, texts))
    for s, generated in checks:
        got = fingerprint(generated)
        if got != pinned[str(s)]:
            raise RuntimeError(
                f"workload {workload.name} seed {s} drifted: generated {got[:16]}, "
                f"pinned {pinned[str(s)][:16]}; generation or signature_of changed"
            )


def write_fingerprints(seeds: range = range(32)) -> None:
    """Pin the fingerprint of every workload for ``seeds``, after a deliberate change."""
    table = {
        name: {str(s): fingerprint(generate(w, s)) for s in seeds} for name, w in WORKLOADS.items()
    }
    FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    if sys.argv[1:] != ["--write-fingerprints"]:
        sys.exit("usage: python3 perfbench/workloads.py --write-fingerprints")
    write_fingerprints()
    print(f"wrote {FINGERPRINTS}")
