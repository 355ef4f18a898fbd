"""The traced benchmark's wrappers still find every binding they patch.

``perfbench/spans.py`` replaces library functions and methods by name when
``perfbench/run.py --trace 1`` runs.  Installing the wrappers in a fresh
interpreter fails as soon as one of those names no longer exists, so renaming
or deleting a traced binding fails here instead of breaking the traced
benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from spans import Tracer, install_core_wrappers
install_core_wrappers(Tracer("check"))
"""


def test_core_wrappers_install_in_a_fresh_interpreter():
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"),
         str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert completed.returncode == 0, completed.stderr
