"""Import cost: the campaign path does not load scipy.

Only the complete verifier (``scipy.optimize.linprog``) and the
concrete-simulation baselines (``scipy.integrate``) need scipy, and they
import it where they call it. A campaign process — and every pool worker
or node agent it forks — is spared the half second and ~40 MB.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_campaign_imports_leave_scipy_out():
    probe = (
        "import sys\n"
        "import repro.core, repro.acasxu\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
