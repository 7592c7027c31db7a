"""``tools/bench_pairs.py`` pairs saved benchmark runs and scores the change."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_pairs  # noqa: E402


def run_output(
    workload: str,
    seed: int,
    solve_s: float,
    rss: float,
    sha: str = "a",
    passes: int = 30,
    built: int = 1,
    failed: int = 0,
) -> str:
    report = {
        "workload": workload,
        "seed": seed,
        "passes": passes,
        "traced_passes": 0,
        "fingerprint": "f",
        "solutions_sha256": sha,
        "built": built,
        "stored": 1,
        "inspected": 1,
        "solution_nodes": 1,
    }
    final = {
        "correct": True,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "solve_norm_s": {"value": solve_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }
    lines = [f"workload {workload}", f"  solve_norm_s {solve_s}", "report " + json.dumps(report)]
    return "\n".join(lines + [json.dumps(final)]) + "\n"


def write_runs(tmp_path: Path, side: str, runs: list[tuple]) -> list[Path]:
    paths = []
    for i, args in enumerate(runs):
        path = tmp_path / f"{side}{i}.out"
        path.write_text(run_output(*args), encoding="utf-8")
        paths.append(path)
    return paths


def test_pairs_by_workload_and_seed_and_counts_wins(tmp_path):
    # The change is faster on 9 of 10 seeds and uses the same memory, in
    # more passes.
    parent = [("wide200", s, 1.0 + s / 100, 30.0, "a", 30 + s) for s in range(10)]
    parent = write_runs(tmp_path, "p", parent)
    change = [("wide200", s, 0.8 if s else 1.5, 30.0, "a", 40 + s) for s in range(10)]
    change = write_runs(tmp_path, "c", list(reversed(change)))  # order does not matter
    out = tmp_path / "BENCH.json"
    argv = ["--parent", *map(str, parent), "--change", *map(str, change), "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    entry = json.loads(out.read_text(encoding="utf-8"))["wide200"]
    assert entry["pair_count"] == 10 and entry["same_identity"] and entry["all_correct"]
    assert entry["identity_moved"] == []
    solve = entry["metrics"]["solve_norm_s"]
    assert solve["change_wins"] == "9/10" and solve["claimable"]
    assert solve["parent"]["median"] == pytest.approx(1.045) and solve["change"]["median"] == 0.8
    rss = entry["metrics"]["peak_rss_mb"]
    assert rss["change_wins"] == "0/10" and not rss["claimable"]
    # each side's pass counts, in the pairs' (seed) order
    assert entry["passes"] == {"parent": list(range(30, 40)), "change": list(range(40, 50))}
    assert entry["failed_share"] == {"parent": 0.0, "change": 0.0}


def test_a_changed_solution_shows_in_the_identity(tmp_path):
    parent = write_runs(tmp_path, "p", [("enum32", 3, 1.0, 30.0)])
    change = write_runs(tmp_path, "c", [("enum32", 3, 0.5, 30.0, "b")])
    out = tmp_path / "BENCH.json"
    bench_pairs.main(["--parent", str(parent[0]), "--change", str(change[0]), "--out", str(out)])
    entry = json.loads(out.read_text(encoding="utf-8"))["enum32"]
    assert not entry["same_identity"] and entry["identity_moved"] == ["solutions_sha256"]
    # one pair won is no claim: a claim needs ten
    solve = entry["metrics"]["solve_norm_s"]
    assert solve["change_wins"] == "1/1" and not solve["claimable"]


def test_identity_moved_names_every_field_that_differs_in_any_pair(tmp_path, capsys):
    # Fewer constructions on one seed of two, the same solutions on both.
    parent = [("exhaust7", 1, 1.0, 30.0, "a", 30, 500), ("exhaust7", 2, 1.0, 30.0, "a", 30, 400)]
    change = [("exhaust7", 1, 0.7, 30.0, "a", 30, 300), ("exhaust7", 2, 0.7, 30.0, "a", 30, 400)]
    parent, change = write_runs(tmp_path, "p", parent), write_runs(tmp_path, "c", change)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", *map(str, parent), "--change", *map(str, change), "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    entry = json.loads(out.read_text(encoding="utf-8"))["exhaust7"]
    assert entry["identity_moved"] == ["built"] and not entry["same_identity"]
    assert "exhaust7: 2 pairs, identity differs in built, passes" in capsys.readouterr().out


@pytest.mark.parametrize("where", ["a directory", "a missing parent"])
def test_an_unwritable_out_path_exits_2_with_one_error_line(tmp_path, capsys, where):
    parent = write_runs(tmp_path, "p", [("enum32", 3, 1.0, 30.0)])
    change = write_runs(tmp_path, "c", [("enum32", 3, 0.5, 30.0)])
    out = tmp_path if where == "a directory" else tmp_path / "missing" / "BENCH.json"
    argv = ["--parent", str(parent[0]), "--change", str(change[0]), "--out", str(out)]
    assert bench_pairs.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not (tmp_path / "missing").exists()


# Against solve_norm_s's bound of 0.25 in BENCHMARK.json: ten parent runs and
# ten change runs each, and the verdict.
BOUND_CASES = {
    # the change's median is 30% above the parent's
    "worse": ([1.0] * 10, [1.3] * 10, "worse"),
    # the parent's runs span 0.8-1.2, 40% of their median, so +10% cannot be told
    "unresolved": ([0.8, 1.2] * 5, [1.1] * 10, "unresolved"),
    # the same spread, but every change run beats every parent run
    "beats every parent run": ([0.8, 1.2] * 5, [0.7] * 10, "within"),
    # +10% over tight parent runs
    "within": ([1.0, 1.01] * 5, [1.1] * 10, "within"),
}


@pytest.mark.parametrize("case", sorted(BOUND_CASES))
def test_each_end_to_end_metric_gets_a_bound_verdict(tmp_path, capsys, case):
    base, new, verdict = BOUND_CASES[case]
    parent = write_runs(tmp_path, "p", [("enum32", s, v, 30.0) for s, v in enumerate(base)])
    change = write_runs(tmp_path, "c", [("enum32", s, v, 30.0) for s, v in enumerate(new)])
    out = tmp_path / "BENCH.json"
    argv = ["--parent", *map(str, parent), "--change", *map(str, change), "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    metrics = json.loads(out.read_text(encoding="utf-8"))["enum32"]["metrics"]
    assert metrics["solve_norm_s"]["bound"] == verdict
    assert metrics["peak_rss_mb"]["bound"] == "within"
    printed = [line for line in capsys.readouterr().out.splitlines() if "solve_norm_s" in line]
    assert len(printed) == 1 and printed[0].endswith(f"bound {verdict}")


@pytest.mark.parametrize("extra", ["parent", "change"])
def test_a_run_without_a_partner_exits_2_naming_it(tmp_path, capsys, extra):
    # Eleven runs on one side and ten on the other: the eleventh is a second
    # run of seed 0, and a second side holds a workload the other lacks.
    runs = {side: [("enum32", s, 1.0, 30.0) for s in range(10)] for side in ("parent", "change")}
    runs[extra].append(("enum32", 0, 0.5, 30.0))
    runs["change"].append(("wide200", 7, 1.0, 30.0))
    parent = write_runs(tmp_path, "p", runs["parent"])
    change = write_runs(tmp_path, "c", runs["change"])
    out = tmp_path / "BENCH.json"
    argv = ["--parent", *map(str, parent), "--change", *map(str, change), "--out", str(out)]
    assert bench_pairs.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: runs without a partner: "), err
    lost = (parent if extra == "parent" else change)[10]
    assert f"{extra} {lost} (enum32 seed 0)" in err[0]
    assert f"change {change[-1]} (wide200 seed 7)" in err[0]
    assert err[0].count(" seed ") == 2
    assert not out.exists()


def test_a_gain_with_more_failures_is_not_claimable(tmp_path, capsys):
    # The change is faster in all ten pairs, but fails one solve more.
    parent = [("enum32", s, 1.0 + s / 100, 30.0) for s in range(10)]
    change = [("enum32", s, 0.5, 30.0, "a", 30, 1, int(s == 4)) for s in range(10)]
    parent, change = write_runs(tmp_path, "p", parent), write_runs(tmp_path, "c", change)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", *map(str, parent), "--change", *map(str, change), "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    entry = json.loads(out.read_text(encoding="utf-8"))["enum32"]
    assert entry["failed_share"] == {"parent": 0.0, "change": 1 / 1000}
    solve = entry["metrics"]["solve_norm_s"]
    assert solve["change_wins"] == "10/10" and not solve["claimable"]
    assert "failed share 0.0000 -> 0.0010" in capsys.readouterr().out
