"""The test run's own policy: a failing test is reported as a failure."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True)
@given(st.integers())
def test_every_integer_is_negative(n):
    assert n < 0
'''


def test_a_failing_hypothesis_test_exits_1_under_the_warning_policy(tmp_path):
    # Hypothesis's failure report imports its patch writer, which may import
    # libcst; a warning raised there must not turn the failure into an
    # internal error (pytest's exit 3).
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "test_property.py"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "FAILED test_property.py::test_every_integer_is_negative" in done.stdout
