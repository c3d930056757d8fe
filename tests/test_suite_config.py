"""The pytest configuration lets every test report, whatever fails."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_failing_property_test_is_reported_not_fatal(tmp_path):
    # with warnings as errors, a plugin warning raised while reporting a failure
    # would stop the run with INTERNALERROR before the later tests ran
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in output, output
