"""Adversary models: forgery statistics, impersonation and tampering outcomes."""

import itertools
import json

import numpy as np
import pytest

from aqs.attacks import (
    ATTACK_CSV_HEADER,
    AttackReport,
    KNOWLEDGE_LEVELS,
    SIGMA_CLASSES,
    apply_pauli_string,
    forgery_sweep,
    honest_package,
    impersonation_attempt,
    pauli_forgery,
    random_pauli_string,
    reports_to_csv,
    reports_to_json,
    tamper_in_transit,
)
from aqs.cipher import EulerMode, Scheme
from aqs.errors import ConfigError
from aqs.protocol import (
    EXACT_ACCEPT_THRESHOLD,
    MessageSpec,
    ProtocolSession,
    RunConfig,
    TamperSpec,
    Wiring,
)
from aqs.qstate import StateVector, basis_state

from oracles import (
    chained_cu_matrix,
    local_layer_matrix,
    pauli_string_matrix,
    random_state,
)


def forgery_session(n: int, scheme: Scheme, seed: int,
                    euler_mode: EulerMode = EulerMode.DIAGONAL) -> ProtocolSession:
    cfg = RunConfig(
        n=n,
        message=MessageSpec.random_product(n, np.random.default_rng(seed)),
        scheme=scheme,
        euler_mode=euler_mode,
        seed_keys=seed,
        seed_lambda=seed + 1,
    )
    session = ProtocolSession(cfg)
    session.setup()
    session.register_lambda(1)
    return session


class TestPauliString:
    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(0)
        strings = ["".join(p) for p in itertools.product("IXYZ", repeat=3)]
        for sigma in rng.choice(strings, size=12, replace=False):
            s = StateVector(3, random_state(3, rng))
            got = apply_pauli_string(s, str(sigma))
            want = pauli_string_matrix(str(sigma)) @ s.amps
            np.testing.assert_allclose(got.amps, want, atol=1e-12)

    def test_identity_string_is_noop(self):
        s = StateVector(2, random_state(2, np.random.default_rng(1)))
        np.testing.assert_array_equal(apply_pauli_string(s, "II").amps, s.amps)

    def test_lowercase_accepted(self):
        s = basis_state(2, "00")
        got = apply_pauli_string(s, "xi")
        assert got.amps[2] == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ConfigError, match=r"pauli string length 3 != register size 2"):
            apply_pauli_string(basis_state(2, 0), "XYZ")


class TestRandomPauliString:
    def test_class_membership(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            diag = random_pauli_string(4, rng, "diagonal")
            assert set(diag) <= {"I", "Z"} and "Z" in diag
            xy = random_pauli_string(4, rng, "xy")
            assert set(xy) & {"X", "Y"}
            any_s = random_pauli_string(4, rng, "random")
            assert set(any_s) <= set("IXYZ")

    def test_deterministic(self):
        a = [random_pauli_string(6, np.random.default_rng(9), c)
             for c in SIGMA_CLASSES]
        b = [random_pauli_string(6, np.random.default_rng(9), c)
             for c in SIGMA_CLASSES]
        assert a == b

    def test_unknown_class(self):
        with pytest.raises(ConfigError, match=r"unknown sigma class 'clifford'"):
            random_pauli_string(4, np.random.default_rng(0), "clifford")

    def test_empty_register_rejected(self):
        # "random" comes first: it has an answer at n = 0 (the empty string),
        # where the other classes are empty and a draw-until-valid loop never ends.
        for sigma_class in ("random", "diagonal", "xy"):
            with pytest.raises(ConfigError, match="n >= 1"):
                random_pauli_string(0, np.random.default_rng(0), sigma_class)


class TestForgeryOutcomes:
    def test_qotp_accepts_every_pauli_exhaustively(self):
        # The pad is itself a Pauli string, so any sigma commutes with the
        # whole cipher up to global phase: the forgery always verifies.
        for i, sigma in enumerate("".join(p) for p in
                                  itertools.product("IXYZ", repeat=2)):
            session = forgery_session(2, Scheme.QOTP, 300 + i)
            pkg = honest_package(session)
            out = pauli_forgery(session, pkg, sigma)
            assert out.accepted
            assert out.overlap_sq >= EXACT_ACCEPT_THRESHOLD

    def test_identity_sigma_accepted_everywhere(self):
        for scheme in (Scheme.CHAINED_CU, Scheme.CHAINED_CNOT, Scheme.QOTP):
            session = forgery_session(4, scheme, 17)
            out = pauli_forgery(session, honest_package(session), "IIII")
            assert out.accepted

    def test_diagonal_sigma_slips_past_diagonal_cipher(self):
        session = forgery_session(4, Scheme.CHAINED_CU, 23)
        out = pauli_forgery(session, honest_package(session), "ZIZI")
        assert out.accepted
        assert out.overlap_sq >= EXACT_ACCEPT_THRESHOLD

    def test_xy_sigma_rejected_by_cu(self):
        for seed in range(5):
            session = forgery_session(4, Scheme.CHAINED_CU, 400 + seed)
            sigma = random_pauli_string(4, np.random.default_rng(seed), "xy")
            out = pauli_forgery(session, honest_package(session), sigma)
            assert not out.accepted
            assert out.stage == "state-compare"  # the tag is genuine

    def test_forged_overlap_matches_matrix_oracle(self):
        for seed in range(6):
            rng = np.random.default_rng(500 + seed)
            session = forgery_session(3, Scheme.CHAINED_CU, 500 + seed,
                                      EulerMode.GENERAL)
            pkg = honest_package(session)
            sigma = random_pauli_string(3, rng, "random")
            out = pauli_forgery(session, pkg, sigma)
            ctx = session.context_for(1)
            rotations = [ctx.rotation(j) for j in range(3)]
            C = chained_cu_matrix(3, ctx.perm, rotations)
            L = local_layer_matrix(3, rotations)
            S = pauli_string_matrix(sigma)
            m = session.config.message.prepare().amps
            recovered = C.conj().T @ L.conj().T @ S @ L @ C @ m
            want = min(abs(np.vdot(S @ m, recovered)) ** 2, 1.0)
            assert out.overlap_sq == pytest.approx(want, abs=1e-10)


class TestForgerySweep:
    def test_shape_and_row_order(self):
        reports = forgery_sweep(n=3, trials=4, seed=1)
        assert len(reports) == 12
        schemes = [(r.scheme, r.euler_mode) for r in reports]
        assert schemes[0:3] == [("qotp", "-")] * 3
        assert schemes[3:6] == [("cnot", "-")] * 3
        assert schemes[6:9] == [("cu", "diagonal")] * 3
        assert schemes[9:12] == [("cu", "general")] * 3
        assert [r.sigma_class for r in reports[:3]] == list(SIGMA_CLASSES)

    def test_qotp_rate_is_one_and_cu_general_zero(self):
        reports = forgery_sweep(n=3, trials=6, seed=2)
        by_row = {(r.scheme, r.euler_mode, r.sigma_class): r for r in reports}
        for cls in SIGMA_CLASSES:
            assert by_row[("qotp", "-", cls)].accept_rate == 1.0
            assert by_row[("cu", "general", cls)].accept_rate == 0.0
        assert by_row[("cu", "diagonal", "diagonal")].accept_rate == 1.0
        assert by_row[("cu", "diagonal", "xy")].accept_rate == 0.0

    def test_deterministic(self):
        a = reports_to_json(forgery_sweep(n=3, trials=3, seed=7))
        b = reports_to_json(forgery_sweep(n=3, trials=3, seed=7))
        assert a == b

    def test_details_collected_on_request(self):
        reports = forgery_sweep(n=2, trials=2, seed=3, collect_details=True)
        assert all(len(r.details) == 2 for r in reports)
        assert {"trial", "sigma", "accepted", "overlap_sq"} <= set(
            reports[0].details[0]
        )
        bare = forgery_sweep(n=2, trials=2, seed=3)
        assert all(r.details is None for r in bare)

    def test_input_validation(self):
        with pytest.raises(ConfigError, match=r"sweep needs n >= 2, got 1"):
            forgery_sweep(n=1, trials=5, seed=0)
        with pytest.raises(ConfigError, match=r"trials must be positive, got 0"):
            forgery_sweep(n=3, trials=0, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            forgery_sweep(3, 2, -1)


class TestImpersonation:
    def test_without_key_knowledge_nothing_accepts(self):
        report = impersonation_attempt(n=8, trials=300, seed=11, knowledge="none")
        assert report.trials == 300
        assert report.accept_count == 0
        assert report.hash_pass_count <= 300
        assert report.sigma_class == "impersonation-none"

    def test_key_without_angles_rejected(self):
        report = impersonation_attempt(n=6, trials=5, seed=12, knowledge="key")
        assert report.hash_pass_count == 5  # the true key always clears the hash
        assert report.accept_count == 0

    def test_full_knowledge_reduces_to_honest(self):
        report = impersonation_attempt(n=6, trials=3, seed=13,
                                       knowledge="key-and-lambda")
        assert report.accept_count == 3
        assert report.accept_rate == 1.0

    def test_unknown_level(self):
        with pytest.raises(ConfigError, match=r"unknown knowledge level 'psychic'"):
            impersonation_attempt(n=4, trials=1, seed=0, knowledge="psychic")

    def test_non_positive_trials_rejected(self):
        for knowledge, trials in itertools.product(KNOWLEDGE_LEVELS, (0, -1)):
            with pytest.raises(ValueError, match="trials must be positive"):
                impersonation_attempt(n=4, trials=trials, seed=0,
                                      knowledge=knowledge)

    def test_negative_seed_rejected(self):
        for knowledge in KNOWLEDGE_LEVELS:
            with pytest.raises(ConfigError, match="non-negative"):
                impersonation_attempt(3, 2, -1, knowledge=knowledge)

    def test_deterministic(self):
        a = impersonation_attempt(n=6, trials=50, seed=5)
        b = impersonation_attempt(n=6, trials=50, seed=5)
        assert a.to_json_dict() == b.to_json_dict()


class TestTamperInTransit:
    def config(self) -> RunConfig:
        return RunConfig(n=4, message=MessageSpec.classical("0110"))

    def test_tag_flip_dies_at_hash_gate(self):
        out = tamper_in_transit(
            self.config(), TamperSpec(channel="verifier-kgc", tag_flip_bit=0)
        )
        assert not out.accepted and out.stage == "hash-check"

    def test_message_pauli_dies_at_state_compare(self):
        out = tamper_in_transit(
            self.config(),
            TamperSpec(channel="signer-verifier", message_pauli="XIII"),
        )
        assert not out.accepted and out.stage == "state-compare"

    def test_identity_pauli_changes_nothing(self):
        out = tamper_in_transit(
            self.config(),
            TamperSpec(channel="signer-verifier", message_pauli="IIII"),
        )
        assert out.accepted

    def test_direct_wiring_protects_second_hop_message(self):
        cfg = RunConfig(n=4, message=MessageSpec.classical("0110"),
                        wiring=Wiring.DIRECT)
        with pytest.raises(ConfigError, match=r"no message register travels verifier->kgc"):
            tamper_in_transit(
                cfg, TamperSpec(channel="verifier-kgc", message_pauli="XIII")
            )


class TestReportFormats:
    def test_accept_count_bounded(self):
        with pytest.raises(ConfigError, match=r"accept_count cannot exceed trials"):
            AttackReport(scheme="cu", euler_mode="diagonal", sigma_class="xy",
                         trials=2, accept_count=3)

    def test_csv_shape(self):
        reports = forgery_sweep(n=2, trials=2, seed=4)
        text = reports_to_csv(reports)
        lines = text.strip().split("\n")
        assert lines[0] == ATTACK_CSV_HEADER
        assert len(lines) == 13
        first = lines[1].split(",")
        assert first[0] == "qotp" and first[3] == "2"
        assert 0.0 <= float(first[4]) <= 1.0

    def test_json_verbose_carries_details(self):
        reports = forgery_sweep(n=2, trials=1, seed=6, collect_details=True)
        data = json.loads(reports_to_json(reports, verbose=True))
        assert all("details" in entry for entry in data)
        plain = json.loads(reports_to_json(reports))
        assert all("details" not in entry for entry in plain)

    def test_knowledge_levels_exported(self):
        assert KNOWLEDGE_LEVELS == ("none", "key", "key-and-lambda")
