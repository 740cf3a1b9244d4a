"""Protocol session phases, transcript determinism and end-to-end runs."""

import dataclasses
import hashlib
import json
import math
import struct
from collections import Counter

import numpy as np
import pytest

from aqs.cipher import EulerMode, Scheme, inverse_ops, signature_ops
from aqs.errors import AqsError, ConfigError
from aqs.keys import chained_tag, tag_of_bits, xor_bits
from aqs.protocol import (
    EXACT_ACCEPT_THRESHOLD,
    KGC,
    MAX_QUBITS,
    MAX_SHOTS,
    SIGNER,
    VERIFIER,
    ForwardedPackage,
    MessageSpec,
    PartyId,
    ProtocolSession,
    Role,
    RunConfig,
    SignaturePackage,
    TamperSpec,
    VerifyMode,
    Wiring,
    _fingerprint,
    run_protocol,
)
from aqs.qstate import StateVector, basis_state, overlap_sq

from oracles import random_state

DEMO_LAMBDAS = (math.pi / 3, math.pi / 4, math.pi / 6, math.pi / 8)
DEMO_ALPHA = 1.0 / math.sqrt(3.0)
DEMO_BETA = 1j * math.sqrt(2.0 / 3.0)


def demo_config(**overrides) -> RunConfig:
    base = dict(
        n=4,
        message=MessageSpec.uniform_qubit(4, DEMO_ALPHA, DEMO_BETA),
        wiring=Wiring.DIRECT,
        inject_key_bits="1010",
        inject_lambdas=DEMO_LAMBDAS,
    )
    base.update(overrides)
    return RunConfig(**base)


def plain_config(**overrides) -> RunConfig:
    base = dict(n=4, message=MessageSpec.classical("0110"))
    base.update(overrides)
    return RunConfig(**base)


def honest_session(config: RunConfig) -> ProtocolSession:
    session = ProtocolSession(config)
    session.setup()
    session.register_lambda(1)
    return session


class TestParties:
    def test_labels(self):
        assert KGC.label == "kgc"
        assert VERIFIER.label == "verifier"
        assert SIGNER.label == "signer_1"
        assert PartyId(Role.SIGNER, 3).label == "signer_3"

    def test_signer_needs_positive_index(self):
        with pytest.raises(ConfigError):
            PartyId(Role.SIGNER, 0)

    def test_non_signer_takes_no_index(self):
        with pytest.raises(ConfigError):
            PartyId(Role.KGC, index=2)


class TestMessageSpec:
    def test_classical_prepare(self):
        s = MessageSpec.classical("011").prepare()
        assert s.amps[3] == 1.0

    def test_uniform_qubit_normalized(self):
        spec = MessageSpec.uniform_qubit(4, DEMO_ALPHA, DEMO_BETA)
        assert spec.n == 4
        s = spec.prepare()
        assert float(np.linalg.norm(s.amps)) == pytest.approx(1.0, abs=1e-12)

    def test_random_product_on_bloch_sphere(self):
        spec = MessageSpec.random_product(5, np.random.default_rng(3))
        for a, b in spec.amps:
            assert abs(a) ** 2 + abs(b) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            MessageSpec(kind="classical", bits="")
        with pytest.raises(ConfigError):
            MessageSpec(kind="classical", bits="01a")
        with pytest.raises(ConfigError):
            MessageSpec(kind="product", amps=())
        with pytest.raises(ConfigError):
            MessageSpec(kind="telepathic")

    def test_nan_amplitude_rejected_at_prepare(self):
        with pytest.raises(ConfigError, match=r"qubit 0 amplitudes have norm nan"):
            MessageSpec.product([(math.nan, 0.0)]).prepare()


class TestRunConfigValidation:
    def test_message_size_must_match(self):
        with pytest.raises(ConfigError):
            RunConfig(n=3, message=MessageSpec.classical("0110"))

    def test_injected_key_length(self):
        with pytest.raises(ConfigError):
            plain_config(inject_key_bits="10")

    def test_injected_lambda_count(self):
        with pytest.raises(ConfigError):
            plain_config(inject_lambdas=(0.1, 0.2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_injected_lambdas_finite(self, bad):
        # Caught here, not at the arbiter's adjoint after signing.
        with pytest.raises(ConfigError, match=r"injected lambdas must be finite"):
            plain_config(inject_lambdas=(bad, 0.1, 0.1, 0.1))

    @pytest.mark.parametrize("name", ["seed_keys", "seed_lambda", "seed_shots"])
    def test_negative_seed(self, name):
        # numpy's generators refuse negative seeds with a plain ValueError.
        with pytest.raises(ConfigError, match=name):
            plain_config(**{name: -1})
        assert getattr(plain_config(**{name: 0}), name) == 0

    def test_positive_shots(self):
        with pytest.raises(ConfigError):
            plain_config(shots=0)
        with pytest.raises(ConfigError):
            plain_config(swap_shots=0)

    def test_shots_fit_int64(self):
        assert plain_config(shots=MAX_SHOTS).shots == 2 ** 63 - 1
        with pytest.raises(ConfigError):
            plain_config(shots=MAX_SHOTS + 1)

    def test_size_ceiling(self):
        # Rejected before anything is allocated: no state of this size exists.
        RunConfig(n=MAX_QUBITS, message=MessageSpec.classical("0" * MAX_QUBITS))
        over = MAX_QUBITS + 1
        with pytest.raises(ConfigError, match="ceiling"):
            RunConfig(n=over, message=MessageSpec.classical("0" * over))
        with pytest.raises(ConfigError, match="ceiling"):
            MessageSpec.random_product(over, np.random.default_rng(0))

    def test_string_enums_coerced(self):
        cfg = plain_config(scheme="qotp", wiring="direct", verify_mode="sampled",
                           euler_mode="diagonal")
        assert cfg.scheme is Scheme.QOTP
        assert cfg.wiring is Wiring.DIRECT
        assert cfg.verify_mode is VerifyMode.SAMPLED


class TestTamperSpec:
    def test_channel_whitelist(self):
        with pytest.raises(ConfigError, match=r"cannot tamper channel 'kgc-signer'"):
            TamperSpec(channel="kgc-signer")

    def test_pauli_letters_checked(self):
        with pytest.raises(ConfigError):
            TamperSpec(channel="signer-verifier", message_pauli="AB")
        spec = TamperSpec(channel="signer-verifier", message_pauli="xz")
        assert spec.message_pauli == "XZ"

    def test_flip_bit_non_negative(self):
        with pytest.raises(ConfigError):
            TamperSpec(channel="signer-verifier", tag_flip_bit=-1)


class TestSetup:
    def test_injected_key_fixes_permutation(self):
        session = honest_session(demo_config())
        assert session._key_bits == "1010"
        assert session._ctx.perm == (1, 3, 0, 2)

    def test_deterministic_across_sessions(self):
        a = honest_session(plain_config())
        b = honest_session(plain_config())
        assert a._key_bits == b._key_bits
        assert a._verifier_key == b._verifier_key

    def test_seed_changes_keys(self):
        a = honest_session(plain_config())
        b = honest_session(plain_config(seed_keys=99))
        assert a._key_bits != b._key_bits or a._verifier_key != b._verifier_key

    def test_qotp_gets_pad_key(self):
        session = honest_session(plain_config(scheme=Scheme.QOTP))
        assert len(session._ctx.qotp_key) == 8
        assert session.ledger.lookup("signer_1", "pad-key") == session._ctx.qotp_key

    def test_unknown_signer(self):
        session = honest_session(plain_config())
        msg = plain_config().message.prepare()
        other = dataclasses.replace(session.verifier_forward(session.sign(1, msg)),
                                    signer=PartyId(Role.SIGNER, 2))
        calls = [
            (7, lambda: session.sign(7, msg)),
            (2, lambda: session.register_lambda(2)),
            (2, lambda: session.context_for(2)),
            (2, lambda: session.send_message_direct(2, msg)),
            (2, lambda: session.kgc_verify(other)),
        ]
        for index, call in calls:
            with pytest.raises(AqsError, match=rf"no signer {index} in this session"):
                call()
        assert session.transcript.outcome is None

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_refused_second_setup_keeps_delivered_keys(self, scheme):
        cfg = plain_config(scheme=scheme)
        session = honest_session(cfg)
        before = (session._key_bits, session._ctx, session._verifier_key)
        events = len(session.transcript.events)
        with pytest.raises(AqsError, match=r"'identity-key' already delivered"):
            session.setup()
        assert (session._key_bits, session._ctx, session._verifier_key) == before
        assert session._key_bits == session.ledger.lookup("signer_1", "identity-key")
        assert len(session.transcript.events) == events
        pkg = session.sign(1, cfg.message.prepare())
        assert session.kgc_verify(session.verifier_forward(pkg)).accepted

    def test_sign_before_setup(self):
        session = ProtocolSession(plain_config())
        with pytest.raises(AqsError, match=r"no signer 1 in this session"):
            session.sign(1, plain_config().message.prepare())


class TestLambdaRegistration:
    def test_sampled_angles_in_range(self):
        session = ProtocolSession(plain_config())
        session.setup()
        lams = session.register_lambda(1)
        assert len(lams) == 4
        assert all(0.0 <= x <= math.pi for x in lams)

    def test_injection(self):
        session = ProtocolSession(demo_config())
        session.setup()
        lams = session.register_lambda(1)
        assert lams == DEMO_LAMBDAS

    def test_reregistration_replaces_but_logs_both(self):
        session = ProtocolSession(plain_config())
        session.setup()
        first = session.register_lambda(1)
        second = session.register_lambda(1)
        assert first != second
        assert session._lambdas == second
        events = [e for e in session.transcript.events
                  if e["type"] == "lambda-registration"]
        assert len(events) == 2

    def test_general_mode_draws_extra_angles(self):
        session = ProtocolSession(plain_config(euler_mode=EulerMode.GENERAL))
        session.setup()
        session.register_lambda(1)
        ctx = session._ctx
        assert len(ctx.thetas) == 4 and len(ctx.phis) == 4
        assert all(0.0 <= t <= math.pi for t in ctx.thetas)
        assert all(0.0 <= p <= 2 * math.pi for p in ctx.phis)

    def test_missing_lambda_blocks_signing(self):
        session = ProtocolSession(plain_config())
        session.setup()
        with pytest.raises(AqsError, match=r"signer 1 has not registered signing angles"):
            session.sign(1, plain_config().message.prepare())


class TestSigning:
    def test_identity_parameters_leave_message_unchanged(self):
        # Key 0000 has no chain links and lambda = 0 makes the local layer I.
        cfg = plain_config(inject_key_bits="0000", inject_lambdas=(0.0,) * 4)
        session = honest_session(cfg)
        msg = cfg.message.prepare()
        pkg = session.sign(1, msg)
        np.testing.assert_allclose(pkg.signature.amps, msg.amps, atol=1e-15)

    def test_tag_is_hash_of_identity_key(self):
        session = honest_session(demo_config())
        pkg = session.sign(1, demo_config().message.prepare())
        assert pkg.tag == tag_of_bits("1010")
        assert pkg.tag == "1000"

    def test_signature_differs_from_message(self):
        cfg = demo_config()
        session = honest_session(cfg)
        msg = cfg.message.prepare()
        pkg = session.sign(1, msg)
        assert overlap_sq(pkg.signature, msg) < 1.0 - 1e-3

    def test_wrong_size_message(self):
        session = honest_session(plain_config())
        with pytest.raises(ConfigError, match=r"context is for n=4, state has n=2"):
            session.sign(1, MessageSpec.classical("01").prepare())

    def test_signing_is_deterministic(self):
        cfg = demo_config()
        a = honest_session(cfg).sign(1, cfg.message.prepare())
        b = honest_session(cfg).sign(1, cfg.message.prepare())
        np.testing.assert_array_equal(a.signature.amps, b.signature.amps)
        assert a.tag == b.tag


class TestForwardAndVerify:
    def test_blinded_tag_matches_chained_recomputation(self):
        cfg = demo_config()
        session = honest_session(cfg)
        pkg = session.sign(1, cfg.message.prepare())
        fwd = session.verifier_forward(pkg)
        assert fwd.tag == tag_of_bits(xor_bits(pkg.tag, session._verifier_key))
        assert fwd.tag == chained_tag("1010", session._verifier_key)

    def test_honest_run_accepts_exactly(self):
        cfg = plain_config()
        session = honest_session(cfg)
        msg = cfg.message.prepare()
        pkg = session.sign(1, msg)
        outcome = session.kgc_verify(session.verifier_forward(pkg))
        assert outcome.accepted
        assert outcome.stage == "state-compare"
        assert outcome.overlap_sq >= EXACT_ACCEPT_THRESHOLD

    def test_flipped_tag_fails_at_hash_stage(self):
        cfg = plain_config()
        session = honest_session(cfg)
        pkg = session.sign(1, cfg.message.prepare())
        fwd = session.verifier_forward(pkg)
        bad = dataclasses.replace(fwd, tag="1" + fwd.tag[1:])
        if bad.tag == fwd.tag:
            bad = dataclasses.replace(fwd, tag="0" + fwd.tag[1:])
        outcome = session.kgc_verify(bad)
        assert not outcome.accepted
        assert outcome.stage == "hash-check"
        assert outcome.overlap_sq is None

    def test_replaced_signature_rejected(self):
        cfg = plain_config()
        session = honest_session(cfg)
        pkg = session.sign(1, cfg.message.prepare())
        junk = StateVector(4, random_state(4, np.random.default_rng(123)))
        forged = SignaturePackage(
            signer=pkg.signer, message=pkg.message, signature=junk, tag=pkg.tag
        )
        outcome = session.kgc_verify(session.verifier_forward(forged))
        assert not outcome.accepted
        assert outcome.stage == "state-compare"
        assert outcome.overlap_sq < 1.0 - 1e-3

    def test_direct_wiring_needs_direct_message(self):
        cfg = plain_config(wiring=Wiring.DIRECT)
        session = honest_session(cfg)
        pkg = session.sign(1, cfg.message.prepare())
        fwd = session.verifier_forward(pkg)
        assert fwd.message is None
        with pytest.raises(AqsError, match=r"no message register available"):
            session.kgc_verify(fwd)

    def test_direct_wiring_full_flow(self):
        cfg = plain_config(wiring=Wiring.DIRECT)
        session = honest_session(cfg)
        msg = cfg.message.prepare()
        pkg = session.sign(1, msg)
        session.send_message_direct(1, cfg.message.prepare())
        outcome = session.kgc_verify(session.verifier_forward(pkg))
        assert outcome.accepted

    def test_arbiter_without_angles_refuses_state_compare(self):
        # A package that clears the hash gate reaches the arbiter before any
        # angle registration: recovery needs the angles, so it must refuse.
        cfg = plain_config()
        session = ProtocolSession(cfg)
        session.setup()
        msg = cfg.message.prepare()
        pkg = SignaturePackage(
            signer=SIGNER, message=msg, signature=msg,
            tag=tag_of_bits(session._key_bits),
        )
        fwd = session.verifier_forward(pkg)
        with pytest.raises(AqsError, match=r"signer 1 has not registered signing angles"):
            session.kgc_verify(fwd)
        assert session.transcript.outcome is None

    def test_sampled_mode_honest(self):
        cfg = plain_config(verify_mode=VerifyMode.SAMPLED)
        session = honest_session(cfg)
        pkg = session.sign(1, cfg.message.prepare())
        outcome = session.kgc_verify(session.verifier_forward(pkg))
        assert outcome.accepted
        assert outcome.swap_ones == 0
        assert outcome.pass_probability == pytest.approx(1.0, abs=1e-9)

    def test_proof_stored_only_on_accept(self):
        cfg = plain_config()
        session = honest_session(cfg)
        with pytest.raises(AqsError, match=r"no accepted signature proof stored for signer 1"):
            session.arbitrate_dispute(1)
        pkg = session.sign(1, cfg.message.prepare())
        session.kgc_verify(session.verifier_forward(pkg))
        proof = session.arbitrate_dispute(1)
        with pytest.raises(AqsError, match=r"no accepted signature proof stored for signer 2"):
            session.arbitrate_dispute(2)
        assert proof.signer == SIGNER
        assert proof.lambdas == session._lambdas


def phase_events(session: ProtocolSession, run_phase):
    """What ``run_phase()`` returns, and the transcript events it appends."""
    before = len(session.transcript.events)
    result = run_phase()
    return result, session.transcript.events[before:]


def gates_and_skips(events: list[dict], owner: str):
    gate = [(e["payload"]["gate"], tuple(e["payload"]["qubits"]))
            for e in events if e["type"] == "gate"]
    skipped = [e["payload"]["slot"] for e in events if e["type"] == "skipped-step"]
    assert all((e["from"], e["to"]) == (owner, owner) for e in events
               if e["type"] in ("gate", "skipped-step"))
    return gate, skipped


class TestPhaseGateEvents:
    """Each phase logs exactly the op list it runs, then the chain's fixed points."""

    @pytest.mark.parametrize("scheme,mode,skipped", [
        (Scheme.CHAINED_CU, EulerMode.DIAGONAL, [0, 3]),
        (Scheme.CHAINED_CU, EulerMode.GENERAL, [0, 3]),
        (Scheme.CHAINED_CNOT, EulerMode.DIAGONAL, [0, 3]),
        (Scheme.QOTP, EulerMode.DIAGONAL, []),
    ])
    def test_sign_and_verify_log_their_op_lists(self, scheme, mode, skipped):
        # Key 0101 gives the permutation (0, 2, 1, 3): slots 0 and 3 are fixed.
        cfg = plain_config(scheme=scheme, euler_mode=mode, inject_key_bits="0101")
        session = honest_session(cfg)
        ctx = session.context_for(1)
        signed = signature_ops(ctx)
        pkg, events = phase_events(session,
                                   lambda: session.sign(1, cfg.message.prepare()))
        assert gates_and_skips(events, "signer_1") == (
            [(name, qubits) for name, qubits, _ in signed], skipped,
        )
        # Gate events first, then the skipped steps, then the package.
        kinds = [e["type"] for e in events]
        assert kinds == ["gate"] * len(signed) + ["skipped-step"] * len(skipped) \
            + ["package"]

        fwd = session.verifier_forward(pkg)
        outcome, events = phase_events(session, lambda: session.kgc_verify(fwd))
        assert gates_and_skips(events, "kgc") == (
            [(name, qubits) for name, qubits, _ in inverse_ops(signed)], skipped,
        )
        assert outcome.accepted

    def test_deliveries_ride_qkd(self):
        session = honest_session(plain_config(scheme=Scheme.QOTP))
        deliveries = [e for e in session.transcript.events if e["type"] == "delivery"]
        assert [e["payload"]["purpose"] for e in deliveries] == [
            "identity-key", "pad-key", "blind-key",
        ]
        assert {e["payload"]["channel"] for e in deliveries} == {"qkd"}


class TestRunProtocol:
    def test_demo_run_accepts(self):
        result = run_protocol(demo_config())
        assert result.outcome.accepted
        assert result.outcome.overlap_sq >= EXACT_ACCEPT_THRESHOLD
        assert result.proof is not None
        assert result.proof.lambdas == DEMO_LAMBDAS
        assert result.histogram is not None
        assert sum(result.histogram.counts.values()) == 1024

    def test_demo_gate_event_census(self):
        result = run_protocol(demo_config())
        names = Counter(name for name, _ in result.ops)
        assert names == {
            "initialize": 4, "cu": 4, "u": 4,
            "u_adjoint": 4, "cu_adjoint": 4, "measure": 4,
        }
        assert sum(names.values()) == 24

    def test_ops_match_transcript_gate_events(self):
        result = run_protocol(demo_config())
        assert result.transcript.gate_events() == result.ops

    def test_transcript_event_census(self):
        result = run_protocol(demo_config())
        kinds = Counter(e["type"] for e in result.transcript.events)
        assert kinds["gate"] == 24
        assert kinds["delivery"] == 2
        assert kinds["lambda-registration"] == 1
        assert kinds["prepare-message"] == 1
        assert kinds["package"] == 1
        assert kinds["direct-message"] == 1
        assert kinds["forward"] == 1
        assert kinds["proof-stored"] == 1
        assert kinds["outcome"] == 1
        assert kinds["histogram"] == 1
        assert kinds["skipped-step"] == 0

    def test_fixed_points_logged_as_skipped_steps(self):
        # Key 0101 pins qubits 0 and 3, so each chain walk skips two slots.
        result = run_protocol(plain_config(inject_key_bits="0101"))
        skipped = [e for e in result.transcript.events
                   if e["type"] == "skipped-step"]
        assert [e["payload"]["slot"] for e in skipped] == [0, 3, 0, 3]
        assert [e["from"] for e in skipped] == [
            "signer_1", "signer_1", "kgc", "kgc",
        ]
        names = Counter(name for name, _ in result.ops)
        assert names["cu"] == 2
        assert names["cu_adjoint"] == 2

    def test_transcript_byte_identical_across_runs(self):
        a = run_protocol(demo_config()).transcript.to_json()
        b = run_protocol(demo_config()).transcript.to_json()
        assert a == b

    def test_seed_shift_changes_transcript(self):
        a = run_protocol(plain_config()).transcript.to_json()
        b = run_protocol(plain_config(seed_keys=5)).transcript.to_json()
        assert a != b

    @pytest.mark.parametrize("scheme", [Scheme.CHAINED_CU, Scheme.CHAINED_CNOT,
                                        Scheme.QOTP])
    @pytest.mark.parametrize("wiring", [Wiring.RELAY, Wiring.DIRECT])
    def test_all_schemes_and_wirings_accept(self, scheme, wiring):
        cfg = plain_config(scheme=scheme, wiring=wiring)
        result = run_protocol(cfg, sample_histogram=False)
        assert result.outcome.accepted

    def test_recovered_state_matches_message(self):
        result = run_protocol(demo_config())
        assert overlap_sq(result.recovered_state, result.message_state) >= \
            EXACT_ACCEPT_THRESHOLD

    def test_tag_flip_tamper_rejected_at_hash_stage(self):
        tamper = TamperSpec(channel="verifier-kgc", tag_flip_bit=0)
        result = run_protocol(plain_config(tamper=tamper), sample_histogram=False)
        assert not result.outcome.accepted
        assert result.outcome.stage == "hash-check"
        assert result.proof is None
        assert result.recovered_state is None

    def test_message_tamper_rejected_at_state_stage(self):
        tamper = TamperSpec(channel="signer-verifier", message_pauli="XIII")
        result = run_protocol(plain_config(tamper=tamper), sample_histogram=False)
        assert not result.outcome.accepted
        assert result.outcome.stage == "state-compare"
        assert result.proof is None

    def test_tamper_event_logged(self):
        tamper = TamperSpec(channel="signer-verifier", tag_flip_bit=1)
        result = run_protocol(plain_config(tamper=tamper), sample_histogram=False)
        kinds = [e["type"] for e in result.transcript.events]
        assert "tamper-injection" in kinds

    def test_oversized_flip_bit(self):
        tamper = TamperSpec(channel="verifier-kgc", tag_flip_bit=99)
        with pytest.raises(ConfigError, match=r"tag has 4 bits; cannot flip bit"):
            run_protocol(plain_config(tamper=tamper), sample_histogram=False)

    def test_direct_wiring_message_tamper_on_second_hop_impossible(self):
        tamper = TamperSpec(channel="verifier-kgc", message_pauli="XIII")
        cfg = plain_config(wiring=Wiring.DIRECT, tamper=tamper)
        with pytest.raises(ConfigError, match=r"no message register travels verifier->kgc"):
            run_protocol(cfg, sample_histogram=False)

    def test_sampled_mode_end_to_end(self):
        cfg = plain_config(verify_mode=VerifyMode.SAMPLED)
        result = run_protocol(cfg, sample_histogram=False)
        assert result.outcome.accepted
        assert result.outcome.swap_ones == 0


def _delivery_bits(transcript, reveal):
    events = transcript.to_dict(reveal)["events"]
    return [e["payload"]["bits"] for e in events if e["type"] == "delivery"]


class TestTranscriptSerialization:
    def test_secrets_redacted_by_default(self):
        t = run_protocol(demo_config()).transcript
        assert all(
            isinstance(b, dict) and b.get("redacted") for b in _delivery_bits(t, False)
        )
        assert "1.0471975511965976" not in t.to_json()  # pi/3 signing angle

    def test_reveal_mode_contains_secrets(self):
        t = run_protocol(demo_config()).transcript
        assert "1010" in _delivery_bits(t, True)  # injected identity key
        assert "1.0471975511965976" in t.to_json(reveal_secrets=True)

    def test_redaction_does_not_change_event_count(self):
        t = run_protocol(demo_config()).transcript
        assert len(t.to_dict()["events"]) == len(t.to_dict(True)["events"])

    def test_json_is_canonical(self):
        text = run_protocol(plain_config(), sample_histogram=False).transcript.to_json()
        parsed = json.loads(text)
        assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) == text
        # A run has one signer, and the config payload still says so.
        assert '"num_signers":1' in text and '"signer_index":1' in text

    def test_summary_csv(self):
        t = run_protocol(plain_config(), sample_histogram=False).transcript
        header, row = t.summary_csv_row().strip().split("\n")
        assert header == \
            "scheme,euler_mode,wiring,n,accepted,stage,overlap_sq,pass_probability"
        fields = row.split(",")
        assert fields[0] == "cu"
        assert fields[4] == "true"
        assert fields[5] == "state-compare"
        assert float(fields[6]) >= EXACT_ACCEPT_THRESHOLD

    def test_fingerprints_present_not_amplitudes(self):
        t = run_protocol(demo_config()).transcript
        (pkg_event,) = [e for e in t.events if e["type"] == "package"]
        assert len(pkg_event["payload"]["signature_fp"]) == 16
        assert "amps" not in json.dumps(t.to_dict()["events"])


class TestFingerprint:
    """A fingerprint is the first 16 hex digits of SHA-256 over the amplitudes
    as little-endian float64 (re, im) pairs, with -0.0 hashed as 0.0."""

    def test_pinned_small_state(self):
        pairs = [(0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (0.0, 0.0)]
        blob = b"".join(struct.pack("<d", x) for pair in pairs for x in pair)
        expected = hashlib.sha256(blob).hexdigest()[:16]
        assert expected == "367d0297986cd0ee"
        assert _fingerprint(basis_state(2, 1)) == expected

    def test_negative_zero_hashes_like_zero(self):
        signed = StateVector(2, np.array([complex(-0.0, -0.0), complex(1.0, -0.0),
                                          complex(-0.0, 0.0), 0.0]))
        plain = basis_state(2, 1)
        assert signed.amps.tobytes() != plain.amps.tobytes()
        assert _fingerprint(signed) == _fingerprint(plain)

    def test_sign_flip_changes_fingerprint(self):
        amps = random_state(3, np.random.default_rng(12))
        flipped = amps.copy()
        flipped[5] = -flipped[5]
        assert _fingerprint(StateVector(3, amps)) != _fingerprint(StateVector(3, flipped))
