"""The pytest settings in ``pyproject.toml``: warnings are errors, yet a
failing property test is reported as one failure and the run goes on."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_a_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300, check=False,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out[-3000:]
    assert "1 failed, 1 passed" in out, out[-3000:]
    assert "Falsifying example" in out, out[-3000:]
