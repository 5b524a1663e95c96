"""Smoke test: the quick demos run to completion.

Each demo runs in its own interpreter, with ``src/`` on the import path, and
must exit with status 0. Only the demos that finish in well under a second
run here. The three that train agents (``adversarial_stress.py``,
``penalty_tradeoff.py`` and ``train_agent_demo.py``) take several seconds
each, so this test leaves them out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["trace_statistics.py", "baseline_comparison.py"])
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
