"""``tools/bitwise_digest.py``, on which bitwise claims rest, runs and
prints its whole map."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bitwise_digest_prints_every_entry():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bitwise_digest.py")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    digest = json.loads(proc.stdout)
    assert isinstance(digest, dict) and len(digest) == 186, len(digest)
    assert all(len(v) == 64 for v in digest.values())
