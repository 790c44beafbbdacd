"""``tools/oracle_scan.py`` runs on the first generated instances, and some
of them take the window form."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_oracle_scan_runs_and_finds_window_cases():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "oracle_scan.py"),
         "--examples", "20"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "cases: 20\n" in proc.stdout, proc.stdout
    found = re.search(r"^window-form cases: (\d+)$", proc.stdout, re.M)
    assert found and int(found[1]) > 0, proc.stdout
