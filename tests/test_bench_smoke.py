"""The benchmark's smoke run, as a test.

``bench/run.py`` rebinds names in sepcode modules to trace them (for
example ``sepcode.verify.captured_indices``), so a change that drops such a
name breaks the benchmark; this test makes it fail here first.  The smoke
run takes every workload through its untraced and traced runs at q = 4.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_run_passes() -> None:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "suite passed" in proc.stdout
