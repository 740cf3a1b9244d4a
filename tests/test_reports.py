"""Gate counting, depth conventions and distribution comparison."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aqs.errors import ConfigError
from aqs.protocol import MessageSpec, RunConfig, Wiring, run_protocol
from aqs.qstate import ShotHistogram, basis_state, distribution, sample
from aqs.reports import (
    DepthReport,
    GateCountReport,
    asap_depth,
    circuit_report_json,
    compare_histograms,
    distribution_to_csv,
    sequential_depth,
)

DEMO_CONFIG = RunConfig(
    n=4,
    message=MessageSpec.uniform_qubit(
        4, 1.0 / math.sqrt(3.0), 1j * math.sqrt(2.0 / 3.0)
    ),
    wiring=Wiring.DIRECT,
    inject_key_bits="1010",
    inject_lambdas=(math.pi / 3, math.pi / 4, math.pi / 6, math.pi / 8),
)

# The chain for key 1010: disjoint pairs (0,1),(2,0) overlap under asap.
CU_CHAIN = [("cu", (0, 1)), ("cu", (1, 3)), ("cu", (2, 0)), ("cu", (3, 2))]


class TestGateCounts:
    def test_counts_and_total(self):
        report = GateCountReport.from_ops(
            [("u", (0,)), ("u", (1,)), ("cu", (0, 1)), ("measure", (0,))]
        )
        assert report.counts == {"cu": 1, "u": 2, "measure": 1}
        assert report.total == 4

    def test_canonical_ordering(self):
        ops = [("measure", (0,)), ("cu", (0, 1)), ("zz-custom", (0,)),
               ("initialize", (0,)), ("u", (1,))]
        report = GateCountReport.from_ops(ops)
        assert list(report.counts) == ["initialize", "cu", "u", "measure",
                                       "zz-custom"]

    def test_demo_run_totals(self):
        result = run_protocol(DEMO_CONFIG, sample_histogram=False)
        report = GateCountReport.from_ops(result.ops)
        assert report.counts == {
            "initialize": 4, "cu": 4, "u": 4,
            "u_adjoint": 4, "cu_adjoint": 4, "measure": 4,
        }
        assert report.total == 24

    def test_empty_ops(self):
        report = GateCountReport.from_ops([])
        assert report.total == 0 and report.counts == {}


class TestDepth:
    def test_single_qubit_blocks_merge(self):
        ops = [("u", (0,)), ("u", (1,)), ("u", (2,))]
        assert sequential_depth(ops) == 1
        assert asap_depth(ops) == 1

    def test_block_breaks_on_name_change(self):
        ops = [("u", (0,)), ("u_adjoint", (1,))]
        assert sequential_depth(ops) == 2
        assert asap_depth(ops) == 1

    def test_block_breaks_on_repeated_qubit(self):
        ops = [("u", (0,)), ("u", (0,))]
        assert sequential_depth(ops) == 2
        assert asap_depth(ops) == 2

    def test_two_qubit_steps_own_layers_sequentially(self):
        assert sequential_depth(CU_CHAIN) == 4
        # (0,1) and (2,0) share qubit 0; (1,3) is independent of (2,0).
        assert asap_depth(CU_CHAIN) == 3

    def test_demo_run_depths(self):
        result = run_protocol(DEMO_CONFIG, sample_histogram=False)
        report = DepthReport.from_ops(result.ops)
        assert report.sequential_depth == 12
        assert report.asap_depth == 10

    def test_asap_never_exceeds_sequential(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            ops = []
            for _ in range(int(rng.integers(1, 25))):
                if rng.integers(2):
                    ops.append(("u", (int(rng.integers(4)),)))
                else:
                    q = int(rng.integers(4))
                    t = int((q + 1 + rng.integers(3)) % 4)
                    ops.append(("cu", (q, t)))
            assert asap_depth(ops) <= sequential_depth(ops)

    def test_depth_report_invariant_enforced(self):
        with pytest.raises(ConfigError, match=r"asap depth 5 exceeds sequential 2"):
            DepthReport(sequential_depth=2, asap_depth=5)

    def test_empty_ops(self):
        assert sequential_depth([]) == 0
        assert asap_depth([]) == 0

    def test_circuit_report_json_is_canonical(self):
        text = circuit_report_json(CU_CHAIN)
        data = json.loads(text)
        assert data["gate_counts"]["total"] == 4
        assert data["depth"]["asap_depth"] == 3
        assert json.dumps(data, sort_keys=True, separators=(",", ":")) == text


class TestCompareHistograms:
    def test_identical_states_zero(self):
        s = basis_state(3, 5)
        assert compare_histograms(s, s) == 0.0

    def test_disjoint_distributions_one(self):
        assert compare_histograms(
            basis_state(2, 0), basis_state(2, 3)
        ) == pytest.approx(1.0)

    def test_independent_of_hash_seed(self):
        # The label set iterates in an order set by the string hash seed; a
        # plain sum in that order gives 1.0 under seed 0 and
        # 1.0000000000000002 under seeds 5 and 10.
        code = (
            "from aqs.qstate import ShotHistogram, basis_state\n"
            "from aqs.reports import compare_histograms\n"
            "h = ShotHistogram(3, 388, {'001': 77, '010': 85, '011': 226})\n"
            "print(repr(compare_histograms(h, basis_state(3, 0))))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                check=True, env={**os.environ, "PYTHONPATH": src,
                                 "PYTHONHASHSEED": str(seed)},
            ).stdout
            for seed in (0, 5, 10)
        }
        assert outputs == {"1.0\n"}

    def test_histogram_vs_exact_distribution(self):
        cfg = DEMO_CONFIG
        result = run_protocol(cfg)
        tv = compare_histograms(result.histogram, result.recovered_state)
        assert 0.0 <= tv <= 0.12

    def test_mixed_operand_kinds_agree(self):
        s = basis_state(2, 1)
        h = sample(s, 100, np.random.default_rng(0))
        probs = distribution(s)
        assert compare_histograms(h, probs) == pytest.approx(
            compare_histograms(h, s)
        )

    def test_array_normalized_before_compare(self):
        # Unnormalized weights are scaled to a distribution first.
        assert compare_histograms(
            np.array([2.0, 2.0]), np.array([0.5, 0.5])
        ) == pytest.approx(0.0)

    def test_size_mismatch(self):
        with pytest.raises(ConfigError,
                           match=r"cannot compare distributions over 1 and 2 qubits"):
            compare_histograms(basis_state(1, 0), basis_state(2, 0))

    def test_bad_lengths(self):
        with pytest.raises(ConfigError, match=r"distribution length 3 is not a power of two"):
            compare_histograms(np.array([0.2, 0.3, 0.5]), np.array([1.0, 0.0]))
        with pytest.raises(ConfigError, match=r"distribution has no mass"):
            compare_histograms(np.array([0.0, 0.0]), np.array([1.0, 0.0]))

    def test_tv_symmetric_and_bounded(self):
        rng = np.random.default_rng(1)
        a = rng.dirichlet(np.ones(8))
        b = rng.dirichlet(np.ones(8))
        tv = compare_histograms(a, b)
        assert 0.0 <= tv <= 1.0
        assert tv == pytest.approx(compare_histograms(b, a))


class TestDistributionCsv:
    def test_format(self):
        text = distribution_to_csv(np.array([0.25, 0.75]))
        assert text == "basis_label,probability\n0,0.25\n1,0.75\n"

    def test_roundtrip_precision(self):
        probs = distribution(
            run_protocol(DEMO_CONFIG, sample_histogram=False).recovered_state
        )
        lines = distribution_to_csv(probs).strip().split("\n")[1:]
        parsed = np.array([float(ln.split(",")[1]) for ln in lines])
        np.testing.assert_array_equal(parsed, probs)

    def test_bad_length(self):
        with pytest.raises(ConfigError, match=r"distribution length 3 is not a power of two"):
            distribution_to_csv(np.array([0.2, 0.3, 0.5]))
