"""The suite's own pytest configuration, run on a probe in a subprocess."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE = ROOT / "tests" / "data" / "hypothesis_failure_probe.py"


def test_a_failing_hypothesis_test_is_reported_and_the_session_goes_on(tmp_path):
    """Under ``filterwarnings = ["error"]``, a warning raised while
    hypothesis writes its failure report must not end the session in an
    INTERNALERROR: the falsifying example is printed and later tests run."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", str(PROBE)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example: test_fails_on_any_integer(" in out, out
    assert "1 failed, 1 passed" in out, out
