"""The scripts in ``scripts/`` run to completion on the package under test.

``rebuild_goldens.py`` is left out: it rewrites the package's golden files.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify_corpus.py"],
        ["ensemble_stats.py", "--edges", "6", "--samples", "5"],
    ],
)
def test_script_exits_0(argv, package_env):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        env=package_env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
