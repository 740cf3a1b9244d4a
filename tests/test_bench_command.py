"""The benchmark command on every workload: one round, untraced and traced.

Each run copies ``bench/`` and ``src/`` into a fresh directory, as a paired
benchmark run does, so a change that breaks a name or payload the bench
reaches (the tracer's method list, ``attacks.honest_package``,
``pauli_forgery``, the delivery and ``lambda-registration`` events) fails
here. ``--seconds 0`` runs exactly one round, so the seed fixes the calls.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    ignore = shutil.ignore_patterns("out", "__pycache__", "*.egg-info")
    for part in ("bench", "src"):
        shutil.copytree(ROOT / part, root / part, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_round_is_correct(checkout, workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
