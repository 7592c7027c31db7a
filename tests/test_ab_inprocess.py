"""``tools/ab_inprocess.py`` times two source trees in one process."""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = str(ROOT / "tools" / "ab_inprocess.py")
sys.path.insert(0, str(ROOT / "tools"))

import ab_inprocess  # noqa: E402


def run_tool(parent: Path, change: Path, rounds: int) -> subprocess.CompletedProcess:
    args = ["--parent", str(parent), "--change", str(change), "--workload", "exhaust7"]
    return subprocess.run(
        [sys.executable, TOOL, *args, "--rounds", str(rounds)],
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def self_run() -> subprocess.CompletedProcess:
    return run_tool(ROOT / "src", ROOT / "src", rounds=2)


def test_a_checkout_against_itself_gives_the_same_answers(self_run):
    assert self_run.returncode == 0, self_run.stderr
    assert "change/parent median ratio" in self_run.stdout
    assert self_run.stdout.endswith("answers and counters: same on every solve\n")


def test_parse_solve_and_emit_are_timed_as_the_benchmark_times_them(self_run):
    # Next to the solve-only ratio, a second line gives the ratio of parse,
    # solve and emit together, which holds the solve, on each side.
    lines = self_run.stdout.splitlines()
    ratio = r"change/parent median ratio \d+\.\d{4}, per-round ratios \d+\.\d{4}-\d+\.\d{4}, change wins [0-2]/2"
    assert re.fullmatch(rf"  solve +{ratio}", lines[3])
    assert re.fullmatch(rf"  parse\+solve\+emit {ratio}", lines[4])
    for side, line in zip(ab_inprocess.SIDES, lines[1:3]):
        medians = rf"  {side} +median solve +(\S+) ms, parse\+solve\+emit +(\S+) ms"
        solve, total = map(float, re.fullmatch(medians, line).groups())
        assert 0 < solve <= total


def test_a_counter_difference_with_the_same_answers_fails(tmp_path):
    # Every exhaust7 verdict reads the same size budget text, so only the
    # counters can tell this change from the checkout.
    change = tmp_path / "src"
    shutil.copytree(ROOT / "src", change, ignore=shutil.ignore_patterns("__pycache__"))
    enumeration = change / "bvsynth" / "enumeration.py"
    text = enumeration.read_text()
    old = "self.evaluations, self.inspected, self.pruned = count, inspected, count"
    assert text.count(old) == 1
    enumeration.write_text(text.replace(old, old.replace(", inspected,", ", inspected + 1,")))
    run = run_tool(ROOT / "src", change, rounds=1)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "answers differ" not in run.stderr
    assert "counters differ on instances [0, 1, 2" in run.stderr


def test_a_text_the_change_cannot_parse_is_a_differing_answer(tmp_path):
    # The change's parser rejects instance 3, which the checkout solves: that
    # is an answer of its own, not a crash of the tool.
    change = tmp_path / "src"
    shutil.copytree(ROOT / "src", change, ignore=shutil.ignore_patterns("__pycache__"))
    frontend = change / "bvsynth" / "frontend.py"
    text = frontend.read_text()
    old = '    """Parse and validate one SyGuS problem document."""\n'
    assert text.count(old) == 1
    rejects = '    if text.startswith("; instance 0003 "):\n        raise SygusSyntaxError("rejected")\n'
    frontend.write_text(text.replace(old, old + rejects))
    run = run_tool(ROOT / "src", change, rounds=1)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "answers differ on instances [3]" in run.stderr
    assert "Traceback" not in run.stdout + run.stderr


def test_the_sides_alternate_within_a_round():
    # Both sides solve each instance one right after the other; the side that
    # goes first alternates by instance, and the next round starts with the other.
    log = []

    def solver(side):
        def solve(i):
            log.append((i, side))
            return 0.0, 0.0, "", None

        return solve

    solve = {side: solver(side) for side in ab_inprocess.SIDES}
    for round_ in range(2):
        results = ab_inprocess.run_round(round_, solve, 4)
        assert {side: len(r) for side, r in results.items()} == {"parent": 4, "change": 4}
    P, C = ab_inprocess.SIDES
    assert log == [
        (0, P), (0, C), (1, C), (1, P), (2, P), (2, C), (3, C), (3, P),  # round 0
        (0, C), (0, P), (1, P), (1, C), (2, C), (2, P), (3, P), (3, C),  # round 1
    ]
