"""Run every workload untraced and traced, print every metric, and pin a baseline.

    python3 perfbench/baseline.py [--seed 1] [--seconds 36] [--write]

Each run is ``run.py`` in its own process, so this prints, for every
workload, the end-to-end metrics (with failed_frac, solution_nodes and
heldout_acc) and then the per-layer metrics of the traced run.  ``--write``
stores the results, the environment (CPUs, Python, reference loop) and the
``src/`` line count in ``BASELINE.json``, whose identity fields ``run.py``
compares against on the same seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if not line.startswith("report "):
            print(line)
    print(proc.stderr, file=sys.stderr, end="")
    if proc.returncode != 0:
        sys.exit(f"{workload} (trace {trace}) exited with {proc.returncode}")
    report = json.loads(next(l for l in lines if l.startswith("report "))[len("report "):])
    return report, json.loads(lines[-1])


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py")
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--write", action="store_true", help="pin the results in BASELINE.json")
    args = parser.parse_args()

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    runs = {}
    for name in WORKLOADS:
        report, plain = run(name, args.seed, args.seconds, 0)
        traced_report, traced = run(name, args.seed, args.seconds, 1)
        runs[name] = {
            "report": report,
            "end_to_end": {k: v["value"] for k, v in plain["metrics"].items()},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_report": traced_report,
        }
    if args.write:
        baseline = {
            "seed": args.seed,
            "seconds": args.seconds,
            "env": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "machine": platform.machine(),
                "reference_ms": {n: r["report"]["reference_ms"] for n, r in runs.items()},
            },
            "src_lines": src_lines(),
            "runs": runs,
        }
        path = HERE / "BASELINE.json"
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
