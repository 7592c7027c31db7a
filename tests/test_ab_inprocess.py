"""``tools/ab_inprocess.py`` times two source trees in one process."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = str(ROOT / "tools" / "ab_inprocess.py")


def run_tool(parent: Path, change: Path, rounds: int) -> subprocess.CompletedProcess:
    args = ["--parent", str(parent), "--change", str(change), "--workload", "exhaust7"]
    return subprocess.run(
        [sys.executable, TOOL, *args, "--rounds", str(rounds)],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_a_checkout_against_itself_gives_the_same_answers():
    run = run_tool(ROOT / "src", ROOT / "src", rounds=2)
    assert run.returncode == 0, run.stderr
    assert "change/parent median ratio" in run.stdout
    assert run.stdout.endswith("answers and counters: same in every pass\n")


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
