"""Adversary models: forgery statistics, impersonation and tampering outcomes."""

import hashlib
import itertools
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from aqs.attacks import (
    ATTACK_CSV_HEADER,
    AttackReport,
    KNOWLEDGE_LEVELS,
    SIGMA_CLASSES,
    _GUESS_CHUNK,
    _forged,
    _key_guesses,
    _registration,
    apply_pauli_string,
    forgery_row,
    forgery_sweep,
    honest_package,
    impersonation_attempt,
    pauli_forgery,
    random_pauli_string,
    reports_to_csv,
    reports_to_json,
    tamper_in_transit,
)
from aqs import cipher, keys, protocol, qstate
from aqs.attacks import SWEEP_ROWS
from aqs.cipher import EulerMode, Scheme
from aqs.errors import AqsError, ConfigError
from aqs.keys import chained_tag, random_bits, tag_of_bits
from aqs.protocol import (
    EXACT_ACCEPT_THRESHOLD,
    SIGNER,
    VERIFIER,
    MessageSpec,
    ProtocolSession,
    RunConfig,
    SignaturePackage,
    TamperSpec,
    Transcript,
    Wiring,
    registered_session,
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
    return registered_session(RunConfig(
        n=n,
        message=MessageSpec.random_product(n, np.random.default_rng(seed)),
        scheme=scheme,
        euler_mode=euler_mode,
        seed_keys=seed,
        seed_lambda=seed + 1,
    ))


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


class TestOpListForgery:
    """_forged runs the Pauli string on each register as one op list; its bytes
    must equal one gate application per letter, as apply_pauli_string makes."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("row", range(len(SWEEP_ROWS)))
    def test_equals_per_letter_path(self, n, row):
        scheme, mode = SWEEP_ROWS[row]
        strings = ["".join(p) for p in itertools.product("IXYZ", repeat=n)]
        for seed in range(3):
            rng = np.random.default_rng([n, row, seed])
            deliveries, ctx = _registration(n, scheme, mode, rng)
            message = MessageSpec.random_product(n, rng).prepare()
            pkg = protocol.sign_package(message, ctx, deliveries["identity-key"])
            for sigma in strings:
                want = [apply_pauli_string(state, sigma).amps.tobytes()
                        for state in (message, pkg.signature)]
                for written in (sigma, sigma.lower()):
                    forged = _forged(pkg, written)
                    assert forged.tag == pkg.tag
                    got = [forged.message.amps.tobytes(), forged.signature.amps.tobytes()]
                    assert got == want, (seed, written)

    @pytest.mark.parametrize("sigma,error", [
        ("XY", r"pauli string length 2 != register size 3"),
        ("XYZI", r"pauli string length 4 != register size 3"),
        ("XQZ", r"unknown Pauli 'Q'"),
        ("xi-", r"unknown Pauli '-'"),
    ])
    def test_pauli_forgery_refuses_bad_sigma(self, sigma, error):
        session = forgery_session(3, Scheme.CHAINED_CU, 5)
        with pytest.raises(ConfigError, match=error):
            pauli_forgery(session, honest_package(session), sigma)

    def test_pauli_forgery_refuses_a_package_without_message(self, monkeypatch):
        # The gap arbiter_decision names, refused before any state pass or event.
        session = forgery_session(3, Scheme.CHAINED_CU, 5)
        pkg = honest_package(session)
        bare = SignaturePackage(pkg.signature, pkg.tag)
        events = len(session.transcript.events)

        def refuse(*args):
            raise AssertionError("state pass on a package without a message")

        monkeypatch.setattr(qstate, "apply_ops", refuse)
        with pytest.raises(AqsError, match=r"no message register"):
            pauli_forgery(session, bare, "XYZ")
        with pytest.raises(AqsError, match=r"no message register"):
            _forged(bare, "XII")
        assert len(session.transcript.events) == events


class TestTrialStatePasses:
    """A forgery trial signs, forges each register and recovers in one state
    pass each: 4 apply_ops calls and 5 states (the message and each pass's
    result) per trial, whatever the row and sigma class."""

    @pytest.mark.parametrize("row", range(len(SWEEP_ROWS)))
    @pytest.mark.parametrize("cls_index", range(len(SIGMA_CLASSES)))
    def test_four_passes_per_trial(self, monkeypatch, row, cls_index):
        counts = Counter()
        apply_ops, post_init = qstate.apply_ops, StateVector.__post_init__

        def counted_apply_ops(state, ops):
            counts["apply_ops"] += 1
            return apply_ops(state, ops)

        def counted_post_init(self):
            counts["states"] += 1
            post_init(self)

        monkeypatch.setattr(qstate, "apply_ops", counted_apply_ops)
        monkeypatch.setattr(StateVector, "__post_init__", counted_post_init)
        trials = 3
        report = forgery_row(4, trials, 7, row, cls_index)
        assert report.trials == trials
        assert counts == {"apply_ops": 4 * trials, "states": 5 * trials}


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
            ctx = session.context_for()
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

    def test_key_level_inverts_only_the_registered_cipher(self, monkeypatch):
        # Each trial signs under its own angles, and the arbiter recovers
        # under the registered ones: one recovery circuit for the whole call.
        calls = []
        real = cipher.inverse_ops
        monkeypatch.setattr(cipher, "inverse_ops", lambda ops: calls.append(1) or real(ops))
        report = impersonation_attempt(6, 5, 12, "key")
        assert report.hash_pass_count == 5
        assert len(calls) == 1

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

    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_register_rejected(self, n):
        for knowledge in KNOWLEDGE_LEVELS:
            with pytest.raises(ConfigError, match=rf"impersonation needs n >= 1, got {n}"):
                impersonation_attempt(n, 5, 0, knowledge=knowledge)

    def test_register_above_ceiling_rejected(self):
        for knowledge in KNOWLEDGE_LEVELS:
            with pytest.raises(ConfigError, match="qubit ceiling"):
                impersonation_attempt(protocol.MAX_QUBITS + 1, 5, 0, knowledge=knowledge)

    def test_deterministic(self):
        a = impersonation_attempt(n=6, trials=50, seed=5)
        b = impersonation_attempt(n=6, trials=50, seed=5)
        assert a.to_json_dict() == b.to_json_dict()


class TestImpersonationGuessStream:
    """At the ``none`` level guess t is bits [t*n, (t+1)*n) of one stream,
    ``random_bits(trials * n, default_rng([seed, 1]))``, whatever the chunking."""

    @pytest.mark.parametrize("n", [1, 7, 16, 25])
    def test_guesses_are_the_bit_stream_read_n_bits_at_a_time(self, n):
        trials, seed = 2 * _GUESS_CHUNK + 37, 9
        guesses = list(_key_guesses(n, trials, np.random.default_rng([seed, 1])))
        stream = random_bits(trials * n, np.random.default_rng([seed, 1]))
        assert guesses == [int(stream[t * n:(t + 1) * n], 2) for t in range(trials)]

    def test_shorter_run_is_a_prefix_across_chunk_boundaries(self):
        short = impersonation_attempt(6, 700, 8, collect_details=True)
        long = impersonation_attempt(6, 1300, 8, collect_details=True)
        assert short.hash_pass_count > 0
        assert long.details[:700] == short.details

    def test_hash_pass_is_the_chained_tag_of_each_guess(self):
        n, trials, seed = 4, 1100, 21
        report = impersonation_attempt(n, trials, seed, collect_details=True)
        # A session run from the [seed, 0] draws (key, angle and shot seeds,
        # then a message) holds the keys and angles the attack verifies against.
        rng = np.random.default_rng([seed, 0])
        seeds = [int(s) for s in rng.integers(0, 2 ** 31, size=3)]
        session = registered_session(RunConfig(
            n=n, message=MessageSpec.random_product(n, rng), seed_keys=seeds[0],
            seed_lambda=seeds[1], seed_shots=seeds[2]))
        key = session.ledger.lookup(SIGNER, "identity-key")
        blind = session.ledger.lookup(VERIFIER, "blind-key")
        stream = random_bits(trials * n, np.random.default_rng([seed, 1]))
        guesses = [stream[t * n:(t + 1) * n] for t in range(trials)]
        target = chained_tag(key, blind)
        want = [chained_tag(g, blind) == target for g in guesses]
        assert [d["hash_pass"] for d in report.details] == want
        assert report.hash_pass_count == sum(want) > 0
        # A pass signs a message and signature drawn from [seed, 2, t].
        for d in [d for d in report.details if d["hash_pass"]][:5]:
            rng = np.random.default_rng([seed, 2, d["trial"]])
            pkg = SignaturePackage(
                message=MessageSpec.random_product(n, rng).prepare(),
                signature=MessageSpec.random_product(n, rng).prepare(),
                tag=tag_of_bits(guesses[d["trial"]]),
            )
            out = session.kgc_verify(session.verifier_forward(pkg))
            assert (out.accepted, out.overlap_sq) == (d["accepted"], d["overlap_sq"])

    @pytest.mark.parametrize("knowledge, digest", [
        ("key", "d19f6305cb7366f57e82d71088bdab594e868acd6edb1ba67546a83b6866e323"),
        ("key-and-lambda",
         "d3d0e40351186c8626eb38dc604a9bb0e0476283732a924e5d46c3e9845587bf"),
    ])
    def test_key_levels_keep_their_bytes(self, knowledge, digest):
        # SHA-256 of the report JSON with details, as the per-trial [seed, 1, t]
        # stream gave it before the none level moved to one stream.
        report = impersonation_attempt(4, 20, 5, knowledge=knowledge,
                                       collect_details=True)
        text = reports_to_json([report])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_memory_does_not_grow_with_rejections(self):
        # n = 20 passes the gate about 3 times in 2^20, so neither run has a
        # pass; without details a rejection must leave nothing behind.
        impersonation_attempt(20, 10, 0)  # imports and caches outside the trace
        peaks = []
        for trials in (600, 12_000):
            tracemalloc.start()
            try:
                report = impersonation_attempt(20, trials, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert (report.trials, report.hash_pass_count) == (trials, 0)
        assert peaks[1] - peaks[0] < 16 * 1024


class TestTrialsBuildNoSession:
    """Forgery and impersonation trials run on the protocol core: any run
    config, session, transcript or key ledger they built would fail here."""

    @pytest.fixture(autouse=True)
    def refuse_session_objects(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an attack trial built a protocol session object")

        for cls in (RunConfig, ProtocolSession, Transcript, keys.DeliveryLedger):
            monkeypatch.setattr(cls, "__init__", refuse)
        with pytest.raises(AssertionError, match="session object"):
            registered_session(None)

    @pytest.mark.parametrize("row", range(len(SWEEP_ROWS)))
    def test_forgery_rows(self, row):
        for cls_index in range(len(SIGMA_CLASSES)):
            report = forgery_row(3, 4, 2, row, cls_index, collect_details=True)
            assert len(report.details) == 4

    @pytest.mark.parametrize("knowledge", KNOWLEDGE_LEVELS)
    def test_impersonation_levels(self, knowledge):
        report = impersonation_attempt(4, 300, 5, knowledge=knowledge)
        assert report.hash_pass_count > 0  # verifications ran, not just the gate


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
        data = json.loads(reports_to_json(reports))
        assert all("details" in entry for entry in data)
        plain = json.loads(reports_to_json(forgery_sweep(n=2, trials=1, seed=6)))
        assert all("details" not in entry for entry in plain)

    def test_knowledge_levels_exported(self):
        assert KNOWLEDGE_LEVELS == ("none", "key", "key-and-lambda")
