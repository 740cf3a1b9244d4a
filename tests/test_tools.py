"""The output digest tool runs and prints its five labelled digests."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


def test_output_digest_prints_five_labelled_digests():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 5
    for line in lines:
        assert re.fullmatch(r"[0-9a-f]{64} \S.*", line), line
