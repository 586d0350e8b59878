"""The pytest configuration keeps a failing test from stopping the tests after it."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_a_failing_property(x):
    assert x < 10


def test_after_it():
    pass
'''


def test_a_failing_property_test_leaves_later_tests_running(tmp_path):
    """To explain a failing example, hypothesis imports libcst, and libcst
    1.0.1 warns that mypy_extensions.TypedDict is deprecated.  Under
    error::DeprecationWarning alone that warning ended the run in
    INTERNALERROR, and the test after the failing one never ran."""
    test_file = tmp_path / "test_property.py"
    test_file.write_text(_FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
