"""``tools/ab_inprocess.py`` times two source trees in one process."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_checkout_against_itself_gives_the_same_answers():
    src = str(ROOT / "src")
    tool = str(ROOT / "tools" / "ab_inprocess.py")
    args = ["--parent", src, "--change", src, "--workload", "exhaust7", "--rounds", "2"]
    run = subprocess.run(
        [sys.executable, tool, *args], capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    assert "change/parent median ratio" in run.stdout
    assert run.stdout.endswith("answers: same in every pass\n")
