"""The output digest tool runs and prints its five labelled digests, and the
README gives the prefixes it prints."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "output_digest.py"


def readme_prefixes() -> list[str]:
    """The five digest prefixes of README's "The lines now begin ..." sentence."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"The\s+lines\s+now\s+begin\s+(.*?)\.", text, re.S)
    assert sentence, "README has no 'The lines now begin' sentence"
    return re.findall(r"`([0-9a-f]{8})`", sentence.group(1))


def test_output_digest_prints_five_labelled_digests():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 5
    for line in lines:
        assert re.fullmatch(r"[0-9a-f]{64} \S.*", line), line
    assert readme_prefixes() == [line[:8] for line in lines]
