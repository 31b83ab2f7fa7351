"""Pinned paper outputs: the fast experiments print their pinned bytes.

``golden/paper_outputs.json`` holds the sha256 of every ``python -m repro
<name>`` stdout; CI checks all of them with ``golden/pin.py --check``.
Tier-1 checks the six that take a few seconds each.
"""

import os
import subprocess
import sys

import pytest

PIN = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "golden", "pin.py"
)
FAST = ("table1", "table2", "fig5", "fig8", "fig11", "sec2e")


@pytest.mark.parametrize("name", FAST)
def test_paper_output_matches_pin(name):
    done = subprocess.run(
        [sys.executable, PIN, "--check", name], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stdout + done.stderr
