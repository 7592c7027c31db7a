"""Summarise paired benchmark runs of a parent commit and a change.

    python3 tools/bench_pairs.py --parent runs/parent/*.out --change runs/change/*.out \
        --out BENCH_N.json

Each input file is the standard output of one ``perfbench/run.py`` run: its
``report {...}`` line names the workload and seed, and its last line is the
JSON object with the metrics.  A parent run and a change run of the same
workload, seed and trace setting form a pair.  For every workload and metric
the output holds each side's median and quartiles, and how many pairs the
change won; the direction of "better" comes from ``BENCHMARK.json``.  The
``IDENTITY`` report fields that differ in any pair are listed as
``identity_moved``, so a change that moves counters on purpose shows that
its solutions held.  Each side's pass counts are listed in pair order, since
``peak_rss_mb`` grows with the number of passes a run makes, and each side's
``failed_share`` is its failed operations over its attempted ones.  A gain is
``claimable`` only over at least ten pairs, when the change wins at least
nine in ten, the medians differ by more than the parent's interquartile
range, and the change fails no larger share of operations than the parent.
Each end-to-end metric also gets a ``bound`` verdict against its ``bound`` in
``BENCHMARK.json`` (see ``bound_verdict``): ``worse``, ``unresolved`` when
the parent's own runs spread too widely to tell, or ``within``.  A run with
no partner of the same workload, seed and trace setting on the other side is
an error: the tool names every such file and exits 2.

Standard library only, so it runs on any checkout without the package.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The report fields that say whether two runs solved the same instances the same way.
IDENTITY = ("fingerprint", "solutions_sha256", "built", "stored", "inspected", "solution_nodes")


def read_run(path: Path) -> dict:
    """The report and the metrics of one run's saved output."""
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    reports = [line[len("report ") :] for line in lines if line.startswith("report {")]
    if not reports or not lines[-1].startswith("{"):
        raise ValueError(f"{path}: no report line or no final JSON line")
    final = json.loads(lines[-1])
    report = json.loads(reports[-1])
    return {
        "path": str(path),
        "key": (report["workload"], report["seed"], report["traced_passes"] > 0),
        "report": report,
        "correct": final["correct"],
        "attempted": final["attempted"],
        "failed": final["failed"],
        "metrics": {name: m["value"] for name, m in final["metrics"].items()},
        "units": {name: m["unit"] for name, m in final["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    """Median and quartiles; with one value all three are that value."""
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def metric_specs() -> dict[str, dict]:
    """Every metric of ``BENCHMARK.json`` by name: its ``better`` direction and,
    for an end-to-end metric, its ``bound``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def bound_verdict(base: list[float], new: list[float], sign: int, bound: float) -> str:
    """``worse`` when the change's median is worse than the parent's by more than
    ``bound`` times the parent's median; else ``unresolved`` when the parent's
    runs span more than that and not every change run beats every parent run;
    else ``within``.  ``sign`` is 1 when lower is better and -1 when higher is."""
    parent = statistics.median(base)
    if sign * (statistics.median(new) - parent) > bound * abs(parent):
        return "worse"
    beats_all = max(sign * v for v in new) < min(sign * v for v in base)
    if max(base) - min(base) > bound * abs(parent) and not beats_all:
        return "unresolved"
    return "within"


def summarise(parent: list[dict], change: list[dict], specs: dict[str, dict]) -> dict:
    sides: dict[tuple, dict[str, list[dict]]] = defaultdict(lambda: {"parent": [], "change": []})
    for side, runs in (("parent", parent), ("change", change)):
        for run in runs:
            sides[run["key"]][side].append(run)
    unpaired = [
        f"{side} {run['path']} ({workload} seed {seed}{' traced' if traced else ''})"
        for (workload, seed, traced), both in sorted(sides.items())
        for side, partners in (("parent", "change"), ("change", "parent"))
        for run in both[side][len(both[partners]) :]
    ]
    if unpaired:
        raise ValueError("runs without a partner: " + ", ".join(unpaired))
    out: dict[str, dict] = {}
    for (workload, seed, traced), both in sorted(sides.items()):
        pairs = list(zip(both["parent"], both["change"]))
        entry = out.setdefault(
            f"{workload}{' traced' if traced else ''}",
            {"workload": workload, "traced": traced, "seeds": [], "pairs": [], "metrics": {}},
        )
        entry["seeds"].append(seed)
        entry["pairs"].extend(pairs)
    for entry in out.values():
        pairs = entry.pop("pairs")
        entry["pair_count"] = len(pairs)
        entry["all_correct"] = all(p["correct"] and c["correct"] for p, c in pairs)
        entry["identity_moved"] = [
            k for k in IDENTITY if any(p["report"][k] != c["report"][k] for p, c in pairs)
        ]
        entry["same_identity"] = not entry["identity_moved"]
        by_side = dict(zip(("parent", "change"), zip(*pairs)))
        entry["passes"] = {
            side: [run["report"]["passes"] for run in runs] for side, runs in by_side.items()
        }
        entry["failed_share"] = {
            side: sum(run["failed"] for run in runs) / sum(run["attempted"] for run in runs)
            for side, runs in by_side.items()
        }
        fails_more = entry["failed_share"]["change"] > entry["failed_share"]["parent"]
        for name in pairs[0][0]["metrics"]:
            base = [p["metrics"][name] for p, _ in pairs]
            new = [c["metrics"][name] for _, c in pairs]
            spec = specs.get(name, {})
            metric = {
                "unit": pairs[0][0]["units"][name],
                "better": spec.get("better"),
                "parent": spread(base),
                "change": spread(new),
            }
            sign = {"lower": 1, "higher": -1}.get(spec.get("better"))
            if sign is not None:
                wins = sum(sign * (b - n) > 0 for b, n in zip(base, new))
                gain = sign * (metric["parent"]["median"] - metric["change"]["median"])
                metric["change_wins"] = f"{wins}/{len(pairs)}"
                enough = len(pairs) >= 10 and wins * 10 >= 9 * len(pairs)
                metric["claimable"] = enough and gain > metric["parent"]["iqr"] and not fails_more
                if "bound" in spec:
                    metric["bound"] = bound_verdict(base, new, sign, spec["bound"])
            entry["metrics"][name] = metric
    return out


def render(summary: dict) -> str:
    """The summary as JSON with one line per metric, so a diff shows what moved."""

    def members(items, indent: str) -> str:
        return ",\n".join(f"{indent}{json.dumps(k)}: {v}" for k, v in items)

    blocks = []
    for key, entry in sorted(summary.items()):
        metrics = [(k, json.dumps(v, sort_keys=True)) for k, v in entry["metrics"].items()]
        fields = [(k, json.dumps(v)) for k, v in sorted(entry.items()) if k != "metrics"]
        fields.append(("metrics", "{\n" + members(metrics, "   ") + "\n  }"))
        blocks.append((key, "{\n" + members(fields, "  ") + "\n }"))
    return "{\n" + members(blocks, " ") + "\n}\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    try:
        parent = [read_run(p) for p in args.parent]
        change = [read_run(p) for p in args.change]
        summary = summarise(parent, change, metric_specs())
        args.out.write_text(render(summary), encoding="utf-8")
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for key, entry in summary.items():
        moved = ", ".join(entry["identity_moved"])
        print(f"{key}: {entry['pair_count']} pairs, identity "
              f"{f'differs in {moved}' if moved else 'same'}, passes "
              f"{entry['passes']['parent']} -> {entry['passes']['change']}, failed share "
              f"{entry['failed_share']['parent']:.4f} -> {entry['failed_share']['change']:.4f}")
        for name, m in entry["metrics"].items():
            wins = m.get("change_wins", "-")
            print(f"  {name:<28} {m['parent']['median']:12.4f} -> {m['change']['median']:12.4f} "
                  f"{m['unit']:<5} wins {wins}{'  bound ' + m['bound'] if 'bound' in m else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
