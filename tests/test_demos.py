"""The quick demos run to completion against the package in src/.

Demos 03 and 04 train for tens of seconds to minutes and are left out.
"""
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", ["01_tape_and_optimizer.py",
                                  "02_environment_tour.py"])
def test_demo_exits_0(demo) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
