"""Tests of the benchmark itself: its checks can fail, its references are right.

    PYTHONPATH=src python3 -m pytest -q bench

The reference computations are cross-checked at n <= 3 against the
full-matrix oracles of the program's test suite (``tests/oracles.py``,
imported, not copied). Workloads run here at reduced sizes.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import itertools
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE), str(ROOT / "tests")]

import hostspeed  # noqa: E402
import oracles  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from aqs import gates, keys, protocol, qstate  # noqa: E402


def load_run_module():
    spec = importlib.util.spec_from_file_location("bench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- reference computations against the oracles ------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_product_state_matches_oracle_kron(n):
    pairs = workloads.bloch_pairs(n, np.random.default_rng(n))
    columns = [np.array([[a], [b]]) for a, b in pairs]
    np.testing.assert_allclose(reference.product_state(pairs),
                               oracles.kron_chain(columns)[:, 0], atol=1e-14)


def test_local_and_controlled_operators_match_oracles():
    n = 3
    gate = reference.u_matrix(0.7, 1.9, 2.3)
    for q in range(n):
        np.testing.assert_allclose(reference.local_operator(n, q, gate),
                                   oracles.single_matrix(n, q, gate), atol=1e-14)
    for c, t in itertools.permutations(range(n), 2):
        np.testing.assert_allclose(reference.controlled_operator(n, c, t, gate),
                                   oracles.controlled_matrix(n, c, t, gate), atol=1e-14)


def test_u_matrix_special_cases():
    np.testing.assert_allclose(reference.u_matrix(math.pi, 0, math.pi),
                               reference.PAULI["X"], atol=1e-15)
    np.testing.assert_allclose(reference.u_matrix(0, 0, math.pi),
                               reference.PAULI["Z"], atol=1e-15)


@pytest.mark.parametrize("key", ["000", "101", "110", "011"])
@pytest.mark.parametrize("general", [False, True])
def test_cu_signature_matches_oracles(key, general):
    n = 3
    rng = np.random.default_rng(7)
    lambdas = rng.uniform(0, math.pi, n)
    thetas = rng.uniform(0, math.pi, n) if general else np.zeros(n)
    phis = rng.uniform(0, 2 * math.pi, n) if general else np.zeros(n)
    rot = [reference.u_matrix(thetas[j], phis[j], lambdas[j]) for j in range(n)]
    perm = reference.key_permutation(key)
    want = oracles.local_layer_matrix(n, rot) @ oracles.chained_cu_matrix(n, perm, rot)
    got = reference.signature_operator(
        "cu", n, key, lambdas=lambdas,
        thetas=thetas if general else None, phis=phis if general else None)
    np.testing.assert_allclose(got, want, atol=1e-13)


def test_cnot_and_qotp_signatures_match_oracles():
    n = 3
    for key in ("101", "011"):
        np.testing.assert_allclose(
            reference.signature_operator("cnot", n, key),
            oracles.cnot_chain_matrix(n, reference.key_permutation(key)), atol=1e-14)
    for pad in ("101101", "010011", "000000"):
        np.testing.assert_allclose(
            reference.signature_operator("qotp", n, "000", pad_bits=pad),
            oracles.qotp_matrix(n, pad), atol=1e-14)


def test_forgery_and_tamper_overlaps_match_oracles():
    n = 3
    rng = np.random.default_rng(3)
    message = oracles.random_state(n, rng)
    signing = reference.signature_operator("cu", n, "110", lambdas=(0.3, 1.1, 2.9))
    for sigma in ("III", "ZIZ", "XIY", "YYZ"):
        p = oracles.pauli_string_matrix(sigma)
        np.testing.assert_allclose(reference.pauli_operator(sigma), p, atol=0)
        recovered = signing.conj().T @ p @ signing @ message
        want = abs(np.vdot(p @ message, recovered)) ** 2
        assert reference.forgery_overlap(signing, message, sigma) == pytest.approx(
            want, abs=1e-13)
    pairs = workloads.bloch_pairs(n, rng)
    state = reference.product_state(pairs)
    x0 = oracles.single_matrix(n, 0, reference.PAULI["X"])
    assert reference.x_tamper_overlap(*pairs[0]) == pytest.approx(
        abs(np.vdot(x0 @ state, state)) ** 2, abs=1e-13)


def test_key_permutation_follows_documented_examples():
    assert reference.key_permutation("1010") == (1, 3, 0, 2)
    assert reference.key_permutation("11010") == (2, 4, 0, 1, 3)


@pytest.mark.parametrize("bits", ["1", "0110", "10110011", "101100111", "1" * 40])
def test_shake_tag_packing(bits):
    packed = reference.pack_bits(bits)
    assert packed[:8] == len(bits).to_bytes(8, "big")
    assert len(packed) == 8 + (len(bits) + 7) // 8
    assert reference.shake_tag(bits) == keys.tag_of_bits(bits)
    assert reference.shake_tag(bits, 13) == keys.tag_of_bits(bits, 13)


# -- every checker rejects a corrupted output ------------------------------------------

def test_protocol_check_catches_flipped_phase():
    w = workloads.ProtocolN16(seed=5, n=6)
    for index in range(3):
        call = w.call(index)
        result, text = w.run(call)
        assert w.check(call, (result, text)) == []
    amps = result.recovered_state.amps.copy()
    k = int(np.argmax(np.abs(amps)))
    amps[k] = -amps[k]
    bad = dataclasses.replace(result, recovered_state=qstate.StateVector(6, amps))
    problems = w.check(call, (bad, text))
    assert any("recovered state" in p for p in problems)


def test_forgery_check_catches_rejected_qotp_trial():
    w = workloads.ForgerySweep(seed=5, n=3, trials=4)
    call = w.call(0)
    reports = w.run(call)
    assert w.check(call, reports) == []
    qotp = reports[0]
    details = [dict(d) for d in qotp.details]
    details[0]["accepted"] = False
    bad = [dataclasses.replace(qotp, details=tuple(details))] + reports[1:]
    assert any("one-time-pad forgery rejected" in p for p in w.check(call, bad))


def test_impersonation_check_catches_shifted_overlap():
    # n = 8 passes the hash gate about 3 times in 256, so details carry overlaps.
    w = workloads.Impersonation(seed=5, n=8, trials=2000)
    call = w.call(0)
    report = w.run(call)
    assert report.hash_pass_count > 0
    assert w.check(call, report) == []
    details = [dict(d) for d in report.details]
    hit = next(d for d in details if d["hash_pass"])
    hit["overlap_sq"] += 1e-6
    bad = dataclasses.replace(report, details=tuple(details))
    assert any("disagrees with details" in p for p in w.check(call, bad))


def test_sampled_check_catches_swap_ones_outside_binomial_bound():
    w = workloads.SampledVerify(seed=5, n=4)
    outputs = []
    for index in range(4):
        call = w.call(index)
        outputs.append((call, w.run(call)))
        assert w.check(*outputs[-1]) == []
    assert w.check_run() == []
    call, result = outputs[-1]
    assert call.kind == "tampered"
    shots = result.config.swap_shots
    outcome = dataclasses.replace(result.outcome, swap_ones=shots, accepted=False)
    bad = dataclasses.replace(result, outcome=outcome)
    fresh = workloads.SampledVerify(seed=5, n=4)
    for c, r in outputs[:-1] + [(call, bad)]:
        assert fresh.check(c, r) == []
    assert any("swap_ones total" in p for p in fresh.check_run())


# -- the tracer ---------------------------------------------------------------------------

def test_tracer_restores_every_attribute():
    before = {name: getattr(m, name) for name, m in
              [("run_protocol", protocol), ("apply_single", qstate), ("adjoint", gates)]}
    post_init = qstate.StateVector.__post_init__
    random_product = protocol.MessageSpec.__dict__["random_product"]
    tracer = tracing.Tracer()
    tracer.install()
    assert protocol.run_protocol is not before["run_protocol"]
    tracer.uninstall()
    for name, m in [("run_protocol", protocol), ("apply_single", qstate), ("adjoint", gates)]:
        assert getattr(m, name) is before[name]
    assert qstate.StateVector.__post_init__ is post_init
    assert protocol.MessageSpec.__dict__["random_product"] is random_product


def test_traced_run_changes_no_output_and_reports_every_layer_metric():
    w = workloads.ProtocolN16(seed=9, n=5)
    call = w.call(2)
    plain = w.run(call)[1]
    tracer = tracing.Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        result, traced = w.run(call)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert traced == plain
    assert w.check(call, (result, traced)) == []
    spans = tracer.arrays()
    wall = float(spans["end"].max() - spans["start"].min())
    metrics = tracing.layer_metrics(tracer.names, spans, trials=1, wall_s=wall)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) | {"trace.overhead"} == {m["name"] for m in declared}
    assert metrics["cipher.gates"] == metrics["qstate.apply.calls"] - 1  # one X tamper
    assert metrics["qstate.state_to_json.amps"] == 2 ** 5 * metrics[
        "qstate.state_to_json.calls"]
    assert metrics["trace.uncovered_s"] == pytest.approx(0.0, abs=1e-3)


def test_self_time_subtracts_direct_children():
    names = ["protocol.run_protocol", "qstate.apply_single", "kernels.apply_single_inplace"]
    spans = {"name_id": np.array([0, 1, 2, 1], dtype=np.int32),
             "parent": np.array([-1, 0, 1, 0], dtype=np.int32),
             "start": np.array([0.0, 1.0, 1.5, 5.0]),
             "end": np.array([10.0, 3.0, 2.0, 6.0]),
             "size": np.array([0, 0, 8, 0])}
    m = tracing.layer_metrics(names, spans, trials=2, wall_s=12.0)
    assert m["protocol.self_s"] == pytest.approx((10 - 2 - 1) / 2)
    assert m["qstate.apply.self_s"] == pytest.approx((1.5 + 1.0) / 2)
    assert m["kernels.single.calls"] == pytest.approx(0.5)
    assert m["kernels.amps_updated"] == pytest.approx(4.0)
    assert m["trace.uncovered_s"] == pytest.approx(1.0)


# -- host speed scaling ------------------------------------------------------------------

def test_clock_takes_its_probes_out_of_the_timed_work():
    clock = hostspeed.Clock()
    clock.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 0.3:
        sum(range(1000))
    wall = time.perf_counter() - start
    seconds, probe_s = clock.stop()
    assert clock.ticks >= 6 and all(len(s) >= 2 for s in clock.samples)
    medians = [statistics.median(s) for s in clock.samples]
    assert min(medians) <= probe_s <= max(medians)
    assert probe_s == pytest.approx(math.prod(medians) ** (1 / 3))
    assert seconds + sum(map(sum, clock.samples)) == pytest.approx(wall, abs=0.01)
    assert seconds < wall
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_clock_probes_once_when_the_work_is_shorter_than_a_period():
    clock = hostspeed.Clock()
    clock.start()
    seconds, probe_s = clock.stop()
    assert seconds < hostspeed.PERIOD_S
    assert clock.ticks == 0 and all(len(s) == 1 for s in clock.samples)
    assert probe_s == pytest.approx(math.prod(s[0] for s in clock.samples) ** (1 / 3))


def test_factor_scales_to_the_reference_probe_time():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.factor(ref, 1.0) == pytest.approx(1.0)
    assert hostspeed.factor(2 * ref, 1.0) == pytest.approx(0.5)
    assert hostspeed.factor(2 * ref, 0.5) == pytest.approx(0.5 ** 0.5)
    assert hostspeed.factor(2 * ref, 0.0) == 1.0


# -- the benchmark file and the command ---------------------------------------------------

def test_benchmark_json_agrees_with_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = load_run_module()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    for m in spec["per_layer"]:
        assert run.layer_unit(m["name"]) == m["unit"], m["name"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "protocol-n16",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
