"""The repository's pytest configuration reports a failing property test.

``filterwarnings`` turns every warning into an error, and the hypothesis
plugin warns inside pytest's report hook when a ``@given`` test fails. The
configuration ignores exactly that warning, so the failure is reported with
its falsifying example and the tests after it still run.
"""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails_for_large_numbers(n):
    assert n < 5


def test_runs_after_the_failure():
    assert True
'''


def test_a_failing_given_test_is_reported_and_the_session_goes_on(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_THEN_PASSING, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "-p", "no:cacheprovider",
         str(tmp_path / "test_property.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
