"""Smoke tests: every example script must run cleanly end to end.

Examples are the deliverable a new user touches first; a broken example is
a broken library.  Each is executed as a subprocess exactly as the README
instructs.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

EXAMPLES = [
    "quickstart.py",
    "stock_analysis.py",
    "audio_compression.py",
    "scalability_demo.py",
    "streaming_stocks.py",
    "traffic_patterns.py",
    "fault_detection.py",
]


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script, tmp_path):
    """Runs cleanly, prints something, and leaves no temporary files."""
    path = os.path.join(EXAMPLES_DIR, script)
    assert os.path.exists(path), f"example {script} is missing"
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    completed = subprocess.run(
        [sys.executable, path],
        capture_output=True,
        text=True,
        timeout=600,
        env={**os.environ, "TMPDIR": str(scratch)},
    )
    assert completed.returncode == 0, (
        f"{script} failed:\n{completed.stderr[-2000:]}"
    )
    assert completed.stdout.strip(), f"{script} produced no output"
    assert not list(scratch.iterdir()), f"{script} left temporary files behind"


def test_expected_example_outputs():
    """Spot-check that the headline numbers examples print are sane."""
    completed = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, "fault_detection.py")],
        capture_output=True, text=True, timeout=600,
    )
    assert "flagged batches: [7, 13]" in completed.stdout
