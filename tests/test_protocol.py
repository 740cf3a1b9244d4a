"""Protocol session phases, transcript determinism and end-to-end runs."""

import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import signal
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aqs import cipher, gates, protocol, reports
from aqs.attacks import SWEEP_ROWS, apply_pauli_string
from aqs.cipher import EulerMode, Scheme, inverse_ops, signature_ops
from aqs.errors import AqsError, ConfigError
from aqs.keys import (
    DeliveryLedger,
    chained_tag,
    derive_permutation,
    random_bits,
    tag_of_bits,
    xor_bits,
)
from aqs.protocol import (
    EXACT_ACCEPT_THRESHOLD,
    KGC,
    MAX_QUBITS,
    MAX_SHOTS,
    SIGNER,
    TAMPER_CHANNELS,
    VERIFIER,
    MessageSpec,
    ProtocolSession,
    RunConfig,
    SignaturePackage,
    TamperSpec,
    Transcript,
    VerifyMode,
    Wiring,
    _fingerprint,
    _PendingFingerprint,
    arbiter_decision,
    build_cipher,
    draw_keys,
    forward_package,
    honest_gate_events,
    registered_session,
    run_protocol,
    sign_package,
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


def delivered_keys(session: ProtocolSession) -> tuple[str, str]:
    """The identity and blinding keys on the session's ledger."""
    return (session.ledger.lookup(SIGNER, "identity-key"),
            session.ledger.lookup(VERIFIER, "blind-key"))


class TestParties:
    def test_labels(self):
        assert (KGC, SIGNER, VERIFIER) == ("kgc", "signer_1", "verifier")


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

    @pytest.mark.parametrize("scheme", ["cnot", "qotp"])
    def test_general_euler_mode_is_cu_only(self, scheme):
        # No cnot or qotp gate reads the theta and phi that general mode draws.
        with pytest.raises(ConfigError, match=rf"scheme '{scheme}' takes 'diagonal'"):
            plain_config(scheme=scheme, euler_mode="general")

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


class TestSignaturePackage:
    def test_message_is_optional(self):
        sig = basis_state(3, 5)
        assert SignaturePackage(signature=sig, tag="101").message is None

    def test_message_must_match_the_signature(self):
        with pytest.raises(ConfigError, match=r"message has 2 qubits, signature 3"):
            SignaturePackage(signature=basis_state(3, 0), tag="101",
                             message=basis_state(2, 0))

    @pytest.mark.parametrize("with_message", [True, False])
    def test_tag_has_one_bit_per_qubit(self, with_message):
        sig = basis_state(3, 0)
        with pytest.raises(ConfigError, match=r"tag length 2 != qubit count 3"):
            SignaturePackage(signature=sig, tag="10",
                             message=sig if with_message else None)


class TestSetup:
    def test_injected_key_fixes_permutation(self):
        session = registered_session(demo_config())
        assert session.ledger.lookup(SIGNER, "identity-key") == "1010"
        assert session._ctx.perm == (1, 3, 0, 2)

    def test_deterministic_across_sessions(self):
        a = registered_session(plain_config())
        b = registered_session(plain_config())
        assert delivered_keys(a) == delivered_keys(b)

    def test_seed_changes_keys(self):
        a = registered_session(plain_config())
        b = registered_session(plain_config(seed_keys=99))
        assert delivered_keys(a) != delivered_keys(b)

    def test_qotp_gets_pad_key(self):
        session = registered_session(plain_config(scheme=Scheme.QOTP))
        assert len(session._ctx.qotp_key) == 8
        assert session.ledger.lookup("signer_1", "pad-key") == session._ctx.qotp_key

    def test_unknown_signer(self):
        session = registered_session(plain_config())
        lambdas = session._ctx.lambdas
        events = len(session.transcript.events)
        for index in (0, 2, 7):
            with pytest.raises(AqsError, match=rf"no signer {index} in this session"):
                session.register_lambda(index)
        assert session._ctx.lambdas == lambdas
        assert len(session.transcript.events) == events

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_refused_second_setup_keeps_delivered_keys(self, scheme):
        cfg = plain_config(scheme=scheme)
        session = registered_session(cfg)
        before = delivered_keys(session)
        ctx = session._ctx
        signing, recovery = ctx.signing, ctx.recovery
        events = len(session.transcript.events)
        with pytest.raises(AqsError, match=r"'identity-key' already delivered"):
            session.setup()
        assert delivered_keys(session) == before
        assert session._ctx is ctx
        assert session._ctx.signing is signing and session._ctx.recovery is recovery
        assert len(session.transcript.events) == events
        pkg = session.sign(cfg.message.prepare())
        assert session.kgc_verify(session.verifier_forward(pkg)).accepted

    @pytest.mark.parametrize("phase, missing", [
        (lambda s, pkg: s.register_lambda(1), ("signer_1", "identity-key")),
        (lambda s, pkg: s.sign(pkg.message), ("signer_1", "identity-key")),
        (lambda s, pkg: s.verifier_forward(pkg), ("verifier", "blind-key")),
        (lambda s, pkg: s.kgc_verify(pkg), ("signer_1", "identity-key")),
    ], ids=["register_lambda", "sign", "verifier_forward", "kgc_verify"])
    def test_sign_before_setup(self, phase, missing):
        session = ProtocolSession(plain_config())
        msg = plain_config().message.prepare()
        pkg = SignaturePackage(signature=msg, tag="0000", message=msg)
        receiver, purpose = missing
        with pytest.raises(AqsError, match=rf"no secret '{purpose}' on record "
                                           rf"for party '{receiver}'"):
            phase(session, pkg)
        assert session.transcript.events == []
        assert session._ctx is None

    def test_forward_refuses_short_tag(self):
        session = registered_session(plain_config())
        msg = plain_config().message.prepare()
        pkg = session.sign(msg)
        events = len(session.transcript.events)
        # The package refuses a short tag itself; forcing one in reaches the
        # length check the forward makes when it blinds the tag.
        object.__setattr__(pkg, "tag", pkg.tag[:-1])
        with pytest.raises(ConfigError, match=r"xor needs equal lengths, got 3 and 4"):
            session.verifier_forward(pkg)
        assert len(session.transcript.events) == events


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
        assert session._ctx.lambdas == second
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

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_missing_lambda_blocks_signing(self, scheme):
        cfg = plain_config(scheme=scheme)
        session = ProtocolSession(cfg)
        session.setup()
        events = len(session.transcript.events)
        with pytest.raises(AqsError, match=r"the signer has not registered signing angles"):
            session.sign(cfg.message.prepare())
        assert len(session.transcript.events) == events

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_proof_holds_registered_angles(self, scheme):
        result = run_protocol(plain_config(scheme=scheme))
        assert result.outcome.accepted
        registered, = [e["payload"]["lambdas"] for e in result.transcript.events
                       if e["type"] == "lambda-registration"]
        assert len(registered) == 4
        assert result.proof.lambdas == tuple(registered)


class TestSigning:
    def test_identity_parameters_leave_message_unchanged(self):
        # Key 0000 has no chain links and lambda = 0 makes the local layer I.
        cfg = plain_config(inject_key_bits="0000", inject_lambdas=(0.0,) * 4)
        session = registered_session(cfg)
        msg = cfg.message.prepare()
        pkg = session.sign(msg)
        np.testing.assert_allclose(pkg.signature.amps, msg.amps, atol=1e-15)

    def test_tag_is_hash_of_identity_key(self):
        session = registered_session(demo_config())
        pkg = session.sign(demo_config().message.prepare())
        assert pkg.tag == tag_of_bits("1010")
        assert pkg.tag == "1000"

    def test_signature_differs_from_message(self):
        cfg = demo_config()
        session = registered_session(cfg)
        msg = cfg.message.prepare()
        pkg = session.sign(msg)
        assert overlap_sq(pkg.signature, msg) < 1.0 - 1e-3

    def test_wrong_size_message(self):
        session = registered_session(plain_config())
        with pytest.raises(ConfigError, match=r"context is for n=4, state has n=2"):
            session.sign(MessageSpec.classical("01").prepare())

    def test_signing_is_deterministic(self):
        cfg = demo_config()
        a = registered_session(cfg).sign(cfg.message.prepare())
        b = registered_session(cfg).sign(cfg.message.prepare())
        np.testing.assert_array_equal(a.signature.amps, b.signature.amps)
        assert a.tag == b.tag


class TestForwardAndVerify:
    def test_blinded_tag_matches_chained_recomputation(self):
        cfg = demo_config()
        session = registered_session(cfg)
        pkg = session.sign(cfg.message.prepare())
        fwd = session.verifier_forward(pkg)
        blind = delivered_keys(session)[1]
        assert fwd.tag == tag_of_bits(xor_bits(pkg.tag, blind))
        assert fwd.tag == chained_tag("1010", blind)

    def test_honest_run_accepts_exactly(self):
        cfg = plain_config()
        session = registered_session(cfg)
        msg = cfg.message.prepare()
        pkg = session.sign(msg)
        outcome = session.kgc_verify(session.verifier_forward(pkg))
        assert outcome.accepted
        assert outcome.stage == "state-compare"
        assert outcome.overlap_sq >= EXACT_ACCEPT_THRESHOLD

    def test_flipped_tag_fails_at_hash_stage(self):
        cfg = plain_config()
        session = registered_session(cfg)
        pkg = session.sign(cfg.message.prepare())
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
        session = registered_session(cfg)
        pkg = session.sign(cfg.message.prepare())
        junk = StateVector(4, random_state(4, np.random.default_rng(123)))
        forged = SignaturePackage(message=pkg.message, signature=junk, tag=pkg.tag)
        outcome = session.kgc_verify(session.verifier_forward(forged))
        assert not outcome.accepted
        assert outcome.stage == "state-compare"
        assert outcome.overlap_sq < 1.0 - 1e-3

    def test_direct_wiring_needs_direct_message(self):
        cfg = plain_config(wiring=Wiring.DIRECT)
        session = registered_session(cfg)
        pkg = session.sign(cfg.message.prepare())
        fwd = session.verifier_forward(pkg)
        assert fwd.message is None
        with pytest.raises(AqsError, match=r"no message register available"):
            session.kgc_verify(fwd)

    def test_direct_wiring_full_flow(self):
        cfg = plain_config(wiring=Wiring.DIRECT)
        session = registered_session(cfg)
        msg = cfg.message.prepare()
        pkg = session.sign(msg)
        session.send_message_direct(cfg.message.prepare())
        outcome = session.kgc_verify(session.verifier_forward(pkg))
        assert outcome.accepted

    def test_arbiter_without_angles_refuses_state_compare(self):
        # A package that clears the hash gate reaches the arbiter before any
        # angle registration: recovery needs the angles, so it must refuse.
        cfg = plain_config()
        session = ProtocolSession(cfg)
        session.setup()
        msg = cfg.message.prepare()
        pkg = SignaturePackage(message=msg, signature=msg,
                               tag=tag_of_bits(delivered_keys(session)[0]))
        fwd = session.verifier_forward(pkg)
        with pytest.raises(AqsError, match=r"the signer has not registered signing angles"):
            session.kgc_verify(fwd)
        assert session.transcript.outcome is None

    def test_sampled_mode_honest(self):
        cfg = plain_config(verify_mode=VerifyMode.SAMPLED)
        session = registered_session(cfg)
        pkg = session.sign(cfg.message.prepare())
        outcome = session.kgc_verify(session.verifier_forward(pkg))
        assert outcome.accepted
        assert outcome.swap_ones == 0
        assert outcome.pass_probability == pytest.approx(1.0, abs=1e-9)

    def test_proof_stored_only_on_accept(self):
        cfg = plain_config()
        session = registered_session(cfg)
        with pytest.raises(AqsError, match=r"no accepted signature proof stored"):
            session.arbitrate_dispute()
        pkg = session.sign(cfg.message.prepare())
        session.kgc_verify(session.verifier_forward(pkg))
        proof = session.arbitrate_dispute()
        assert proof.signer == SIGNER == "signer_1"
        assert proof.lambdas == session._ctx.lambdas


class TestProtocolCore:
    """The core functions, on generators seeded from a config, give what the
    session does: its keys, its signature, its verdicts and recovered states."""

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_draw_keys_equals_one_draw_per_key(self, scheme):
        # draw_keys cuts every key from one draw; the bits and the generator's
        # state after must be those of one random_bits draw per key.
        for n in (1, 2, 3, 4, 7, 16):
            for seed in range(25):
                for identity in (None, "10" * (n // 2) + "1" * (n % 2)):
                    rng, ref = (np.random.default_rng([seed, n]) for _ in range(2))
                    want = {"identity-key": identity or random_bits(n, ref)}
                    if scheme is Scheme.QOTP:
                        want["pad-key"] = random_bits(2 * n, ref)
                    want["blind-key"] = random_bits(n, ref)
                    got = draw_keys(n, scheme, rng, identity)
                    assert list(got.items()) == list(want.items()), (n, seed, identity)
                    assert rng.random() == ref.random()

    @pytest.mark.parametrize("inject", ["none", "key", "lambdas", "key-and-lambdas"])
    @pytest.mark.parametrize("wiring", list(Wiring))
    @pytest.mark.parametrize("verify_mode", list(VerifyMode))
    @pytest.mark.parametrize("scheme,mode", SWEEP_ROWS)
    def test_arbiter_decision_matches_kgc_verify(self, scheme, mode, verify_mode, wiring,
                                                 inject):
        # Each session phase is ledger lookups, one core step and its logging: the
        # steps on generators seeded from the config give the session's package,
        # forward, verdict and recovered state, with injected material too (under
        # qotp the pad key is drawn after an injected identity key).
        n = 4
        for seed, case in itertools.product(range(3), ("honest", "signature-x", "tag-flip")):
            rng = np.random.default_rng([7, seed])
            cfg = RunConfig(
                n=n, message=MessageSpec.random_product(n, rng),
                scheme=scheme, euler_mode=mode, wiring=wiring, verify_mode=verify_mode,
                seed_keys=seed, seed_lambda=seed + 10, seed_shots=seed + 20, swap_shots=64,
                inject_key_bits=random_bits(n, rng) if "key" in inject else None,
                inject_lambdas=(tuple(rng.uniform(0, math.pi, n))
                                if "lambdas" in inject else None),
            )
            deliveries = draw_keys(n, scheme, np.random.default_rng(cfg.seed_keys),
                                   cfg.inject_key_bits)
            ctx = build_cipher(
                n, scheme, mode, deliveries.__getitem__,
                np.random.default_rng(cfg.seed_lambda), cfg.inject_lambdas)
            key, blind = deliveries["identity-key"], deliveries["blind-key"]
            session = registered_session(cfg)
            assert delivered_keys(session) == (key, blind)
            assert session._ctx == ctx
            message = cfg.message.prepare()
            pkg = sign_package(message, ctx, key)
            fwd = forward_package(pkg, blind, wiring is Wiring.RELAY)
            got_pkg = session.sign(message)
            if wiring is Wiring.DIRECT:
                session.send_message_direct(message)
            got_fwd = session.verifier_forward(got_pkg)
            for got_step, want_step in ((got_pkg, pkg), (got_fwd, fwd)):
                assert got_step.tag == want_step.tag
                assert got_step.signature.amps.tobytes() == want_step.signature.amps.tobytes()
                assert got_step.message is want_step.message
            assert (fwd.message is None) == (wiring is Wiring.DIRECT)
            if case == "signature-x":
                got_fwd = dataclasses.replace(
                    got_fwd, signature=apply_pauli_string(got_fwd.signature, "XIII"))
            elif case == "tag-flip":
                got_fwd = dataclasses.replace(
                    got_fwd, tag=("1" if got_fwd.tag[0] == "0" else "0") + got_fwd.tag[1:])

            got = session.kgc_verify(got_fwd)
            want, recovered = arbiter_decision(
                key, blind, dataclasses.replace(got_fwd, message=message), ctx, verify_mode, cfg.swap_shots, np.random.default_rng(cfg.seed_shots))
            assert got.to_payload() == want.to_payload()
            assert (got.stage == "hash-check") == (case == "tag-flip")
            if recovered is None:
                assert session._last_recovered is None
            else:
                assert recovered.amps.tobytes() == session._last_recovered.amps.tobytes()


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
        session = registered_session(cfg)
        ctx = session.context_for()
        signed = signature_ops(ctx)
        pkg, events = phase_events(session,
                                   lambda: session.sign(cfg.message.prepare()))
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
        session = registered_session(plain_config(scheme=Scheme.QOTP))
        deliveries = [e for e in session.transcript.events if e["type"] == "delivery"]
        assert [e["payload"]["purpose"] for e in deliveries] == [
            "identity-key", "pad-key", "blind-key",
        ]
        assert {e["payload"]["channel"] for e in deliveries} == {"qkd"}


class TestCircuitsBuiltOnce:
    """A session's context builds its signing and recovery circuits once, and
    every later phase runs those same read-only lists."""

    @pytest.mark.parametrize("scheme,mode,rotations", [
        (Scheme.CHAINED_CU, EulerMode.DIAGONAL, 6),
        (Scheme.CHAINED_CU, EulerMode.GENERAL, 6),
        (Scheme.CHAINED_CNOT, EulerMode.DIAGONAL, 0),
        (Scheme.QOTP, EulerMode.DIAGONAL, 0),
    ])
    def test_run_builds_each_matrix_once(self, scheme, mode, rotations, monkeypatch):
        calls = Counter()
        for module, name in ((gates, "u_gate"), (gates, "adjoint"),
                             (cipher, "signature_ops"), (cipher, "inverse_ops")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _real=real, _name=name:
                                calls.update([_name]) or _real(*a))
        cfg = RunConfig(n=6, message=MessageSpec.random_product(6, np.random.default_rng(4)),
                        scheme=scheme, euler_mode=mode, seed_keys=5, seed_lambda=6)
        result = run_protocol(cfg)
        assert result.outcome.accepted
        assert calls["u_gate"] == rotations
        assert 1 <= calls["adjoint"] <= 6
        assert calls["signature_ops"] == calls["inverse_ops"] == 1

    def test_phases_run_the_stored_circuits(self, monkeypatch):
        cfg = plain_config(euler_mode=EulerMode.GENERAL)
        session = registered_session(cfg)
        ctx = session.context_for()
        signing, recovery = ctx.signing, ctx.recovery
        ran = []
        real = cipher.run
        monkeypatch.setattr(cipher, "run", lambda s, c, ops: ran.append(ops) or real(s, c, ops))
        pkg = session.sign(cfg.message.prepare())
        assert session.kgc_verify(session.verifier_forward(pkg)).accepted
        assert ran[0] is signing and ran[1] is recovery

    def test_stored_circuit_matrices_are_read_only(self):
        ctx = registered_session(plain_config(euler_mode=EulerMode.GENERAL)).context_for()
        for circuit in (ctx.signing, ctx.recovery):
            assert isinstance(circuit, tuple)
            for _, _, gate in circuit:
                with pytest.raises(ValueError, match="read-only"):
                    gate[1, 1] = 0.0

    def test_reregistration_rebuilds_the_circuits(self):
        cfg = plain_config()
        session = registered_session(cfg)
        first = session.context_for()
        first_circuits = (first.signing, first.recovery)
        session.register_lambda(1)
        ctx = session.context_for()
        assert ctx is not first
        assert ctx.signing is not first_circuits[0] and ctx.recovery is not first_circuits[1]
        fresh = signature_ops(ctx)
        assert len(ctx.signing) == len(fresh)
        for (_, _, stored), (_, _, gate) in zip(ctx.signing, fresh):
            np.testing.assert_array_equal(stored, gate)
        pkg = session.sign(cfg.message.prepare())
        assert session.kgc_verify(session.verifier_forward(pkg)).accepted


class TestHonestGateEvents:
    """honest_gate_events reads an honest run's gate events from the session's
    op lists; they must be exactly the events run_protocol logs."""

    @pytest.mark.parametrize("wiring", list(Wiring))
    @pytest.mark.parametrize("scheme,mode", [
        (Scheme.QOTP, EulerMode.DIAGONAL),
        (Scheme.CHAINED_CNOT, EulerMode.DIAGONAL),
        (Scheme.CHAINED_CU, EulerMode.DIAGONAL),
        (Scheme.CHAINED_CU, EulerMode.GENERAL),
    ])
    def test_equal_to_run_protocol(self, scheme, mode, wiring):
        for n in range(1, 9):
            for seed in range(4):
                rng = np.random.default_rng([n, seed])
                bits = "".join(str(b) for b in rng.integers(0, 2, size=n))
                for message in (MessageSpec.classical(bits),
                                MessageSpec.random_product(n, rng)):
                    cfg = RunConfig(n=n, message=message, scheme=scheme,
                                    euler_mode=mode, wiring=wiring, seed_keys=seed,
                                    seed_lambda=seed + 10, seed_shots=seed + 20)
                    events = honest_gate_events(cfg)
                    ops = run_protocol(cfg, sample_histogram=False).ops
                    assert events == ops, (n, seed, message.kind)
                    assert (reports.circuit_report_json(events)
                            == reports.circuit_report_json(ops))

    @pytest.mark.parametrize("scheme,mode", SWEEP_ROWS)
    def test_injected_key_and_lambdas(self, scheme, mode):
        for n in range(1, 8):
            rng = np.random.default_rng([n, 42])
            key = "".join(str(b) for b in rng.integers(0, 2, size=n))
            lambdas = tuple(rng.uniform(0.0, math.pi, size=n).tolist())
            message = MessageSpec.random_product(n, rng)
            for inject in ({"inject_key_bits": key}, {"inject_lambdas": lambdas},
                           {"inject_key_bits": key, "inject_lambdas": lambdas}):
                cfg = RunConfig(n=n, message=message, scheme=scheme, euler_mode=mode,
                                seed_keys=n, seed_lambda=n + 1, **inject)
                events = honest_gate_events(cfg)
                assert events == run_protocol(cfg, sample_histogram=False).ops, (n, inject)
                if scheme is not Scheme.QOTP and "inject_key_bits" in inject:
                    # The chain follows the injected key; cnot's recovery
                    # reruns it backwards under the same name.
                    chain = [(j, t) for j, t in enumerate(derive_permutation(key)) if t != j]
                    if scheme is Scheme.CHAINED_CU:
                        assert [q for g, q in events if g == "cu"] == chain
                    else:
                        assert [q for g, q in events if g == "cnot"] == chain + chain[::-1]

    def test_builds_no_session(self, monkeypatch):
        configs = [RunConfig(n=5, message=MessageSpec.random_product(5, np.random.default_rng(i)),
                             scheme=scheme, euler_mode=mode, seed_keys=i, seed_lambda=i + 3)
                   for i, (scheme, mode) in enumerate(SWEEP_ROWS)]
        want = [run_protocol(cfg, sample_histogram=False).ops for cfg in configs]

        def refuse(*args, **kwargs):
            raise AssertionError("honest_gate_events built a protocol session object")

        for cls in (ProtocolSession, Transcript, DeliveryLedger):
            monkeypatch.setattr(cls, "__init__", refuse)
        with pytest.raises(AssertionError, match="session object"):
            registered_session(configs[0])
        assert [honest_gate_events(cfg) for cfg in configs] == want


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

    def test_direct_wiring_arbiter_gets_the_signers_copy(self):
        # The verifier's copy is tampered in transit; the arbiter's comes
        # from the signer, so the run accepts it untouched.
        tamper = TamperSpec(channel="signer-verifier", message_pauli="XIII")
        result = run_protocol(plain_config(wiring=Wiring.DIRECT, tamper=tamper),
                              sample_histogram=False)
        assert result.outcome.accepted
        assert result.outcome.stage == "state-compare"
        assert result.outcome.overlap_sq == 1.0
        fp = {e["type"]: e["payload"]["message_fp"] for e in result.transcript.events
              if e["type"] in ("prepare-message", "direct-message")}
        assert fp["direct-message"] == fp["prepare-message"]
        relayed = run_protocol(plain_config(wiring=Wiring.RELAY, tamper=tamper),
                               sample_histogram=False)
        assert not relayed.outcome.accepted
        assert relayed.outcome.stage == "state-compare"

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


class TestRunMemory:
    # A run holds the message, the signature and the recovered state at
    # once, and a tampered message register is one more. Everything else
    # (kernel slabs, sampling) must stay within a quarter of a state. Below
    # n = 16, fixed Python and chunk memory outweighs a state and this
    # measure says nothing.
    @pytest.mark.parametrize("mode", [EulerMode.GENERAL, EulerMode.DIAGONAL])
    @pytest.mark.parametrize("tampered", [False, True])
    def test_traced_peak_in_state_sizes(self, mode, tampered):
        n = 18
        tamper = (TamperSpec(channel="signer-verifier", message_pauli="X" + "I" * (n - 1))
                  if tampered else None)
        cfg = RunConfig(n=n, message=MessageSpec.uniform_qubit(n, 0.6, 0.8j),
                        euler_mode=mode, tamper=tamper)
        run_protocol(cfg)  # caches and imports made once per process are not the run's
        tracemalloc.start()
        try:
            run_protocol(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (16 * 2 ** n) <= (4.25 if tampered else 3.25)


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

    def test_independent_of_blas_thread_count(self):
        # At n >= 14 OpenBLAS splits a dot product's sum by thread count: with
        # np.vdot this run's overlap_sq was 0.9999999999999984 on one thread
        # and 1.0 on two. The run also takes the fused block kernel.
        code = (
            "import hashlib\n"
            "from numpy.random import default_rng\n"
            "from aqs.protocol import MessageSpec, RunConfig, run_protocol\n"
            "r = run_protocol(RunConfig(\n"
            "    n=16, message=MessageSpec.random_product(16, default_rng(2)),\n"
            "    euler_mode='general', seed_keys=2, seed_lambda=3, seed_shots=2))\n"
            "print(hashlib.sha256(r.transcript.to_json().encode()).hexdigest())\n"
            "print(hashlib.sha256(r.recovered_state.amps.tobytes()).hexdigest())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = [
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                check=True, env={**os.environ, "PYTHONPATH": src,
                                 "OPENBLAS_NUM_THREADS": str(threads)},
            ).stdout
            for threads in (1, 2)
        ]
        assert outputs[0] == outputs[1]

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

    @pytest.mark.parametrize("n", [11, 12, 13, 14])
    def test_chunked_hash_equals_one_pass(self, n):
        # The hash runs over 8,192-float chunks: n = 12 fills one exactly,
        # n = 13 and 14 span two and four. Put -0.0 on and around the edges.
        amps = random_state(n, np.random.default_rng([7, n]))
        floats = amps.view(np.float64)
        for edge in (0, 8191, 8192, 8193, 16383, 16384, floats.size - 1):
            if edge < floats.size:
                floats[edge] = 0.0
        amps /= np.linalg.norm(amps)
        np.negative(floats, out=floats, where=floats == 0.0)
        assert np.signbit(floats[floats == 0.0]).all()
        one_pass = (floats + 0.0).astype("<f8", copy=False)
        expected = hashlib.sha256(one_pass).hexdigest()[:16]
        assert _fingerprint(StateVector(n, amps)) == expected

    def test_no_state_sized_temporary(self):
        state = basis_state(16, 5)  # 1 MiB of amplitudes
        tracemalloc.start()
        try:
            _fingerprint(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20 // 8


HEX16 = re.compile("[0-9a-f]{16}")
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_json(config: RunConfig) -> tuple[str, str]:
    transcript = run_protocol(config).transcript
    return transcript.to_json(), transcript.to_json(reveal_secrets=True)


@st.composite
def run_configs(draw) -> RunConfig:
    n = draw(st.integers(2, 14))
    scheme = draw(st.sampled_from(Scheme))
    general = scheme is Scheme.CHAINED_CU and draw(st.booleans())
    wiring = draw(st.sampled_from(Wiring))
    seeds = draw(st.lists(st.integers(0, 2 ** 16), min_size=4, max_size=4))
    if draw(st.booleans()):
        message = MessageSpec.random_product(n, np.random.default_rng(seeds[3]))
    else:
        message = MessageSpec.classical(draw(st.text("01", min_size=n, max_size=n)))
    tamper = None
    kind = draw(st.sampled_from([None, "message", "tag"]))
    if kind == "tag":
        tamper = TamperSpec(channel=draw(st.sampled_from(TAMPER_CHANNELS)),
                            tag_flip_bit=draw(st.integers(0, n - 1)))
    elif kind == "message":
        # Direct wiring carries no message register to the arbiter's hop.
        channels = TAMPER_CHANNELS if wiring is Wiring.RELAY else ("signer-verifier",)
        tamper = TamperSpec(channel=draw(st.sampled_from(channels)),
                            message_pauli=draw(st.text("IXYZ", min_size=n, max_size=n)))
    return RunConfig(
        n=n, message=message, scheme=scheme,
        euler_mode=EulerMode.GENERAL if general else EulerMode.DIAGONAL,
        wiring=wiring, verify_mode=draw(st.sampled_from(VerifyMode)),
        seed_keys=seeds[0], seed_lambda=seeds[1], seed_shots=seeds[2], tamper=tamper)


class TestDeferredFingerprints:
    """Past one chunk (n >= 13), states are hashed on a worker thread while the
    run goes on; transcripts read the same as with every hash inline."""

    @settings(max_examples=40, deadline=None)
    @given(config=run_configs())
    @example(config=RunConfig(
        n=13, message=MessageSpec.uniform_qubit(13, 0.6, 0.8j), euler_mode="general",
        tamper=TamperSpec(channel="verifier-kgc", message_pauli="X" + "I" * 12)))
    @example(config=RunConfig(
        n=14, message=MessageSpec.classical("01" * 7), wiring="direct",
        verify_mode="sampled",
        tamper=TamperSpec(channel="signer-verifier", message_pauli="Y" * 14)))
    def test_transcript_bytes_equal_inline_hashing(self, config):
        deferred = run_json(config)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(protocol, "_fingerprint_soon", protocol._fingerprint)
            assert run_json(config) == deferred

    def test_events_hold_hex_after_sign_and_forward(self):
        config = RunConfig(n=14, message=MessageSpec.random_product(
            14, np.random.default_rng(8)))
        session = registered_session(config)
        pkg = session.sign(config.message.prepare())
        assert isinstance(vars(pkg.signature)["_fingerprint"], _PendingFingerprint)
        fields = ("message_fp", "signature_fp")
        (event,) = [e for e in session.transcript.events if e["type"] == "package"]
        assert all(HEX16.fullmatch(event["payload"][k]) for k in fields)
        session.verifier_forward(pkg)
        (event,) = [e for e in session.transcript.events if e["type"] == "forward"]
        assert all(HEX16.fullmatch(event["payload"][k]) for k in fields)
        assert event["payload"]["signature_fp"] == _fingerprint(pkg.signature)

    @pytest.mark.parametrize("wiring", list(Wiring))
    def test_run_returns_with_no_hash_pending(self, wiring):
        config = RunConfig(n=14, message=MessageSpec.uniform_qubit(14, 0.6, 0.8j),
                           wiring=wiring)
        transcript = run_protocol(config).transcript
        payloads = [e["payload"] for e in transcript._events]  # not through `events`
        assert not [v for p in payloads for v in p.values()
                    if isinstance(v, _PendingFingerprint)]
        fps = [v for p in payloads for k, v in p.items()
               if k.endswith("_fp") and v is not None]
        assert len(fps) >= 4 and all(HEX16.fullmatch(fp) for fp in fps)

    def test_concurrent_runs_match_inline_hashing(self):
        configs = [RunConfig(n=13, message=MessageSpec.random_product(
            13, np.random.default_rng(seed)), seed_keys=seed, euler_mode="general")
            for seed in range(6)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(protocol, "_fingerprint_soon", protocol._fingerprint)
            expected = [run_json(c) for c in configs]
        got: dict[tuple[int, int], tuple[str, str]] = {}

        def runs(worker: int) -> None:
            for i, config in enumerate(configs):
                got[worker, i] = run_json(config)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=runs, args=(w,)) for w in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == {(w, i): expected[i] for w in range(4) for i in range(len(configs))}

    def test_inline_sizes_start_no_thread(self, monkeypatch):
        monkeypatch.setattr(protocol, "_jobs", None)
        threads = threading.active_count()
        config = RunConfig(n=10, message=MessageSpec.uniform_qubit(10, 0.6, 0.8j),
                           euler_mode="general", verify_mode="sampled")
        run_protocol(config)
        assert threading.active_count() == threads
        assert protocol._jobs is None

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_runs(self):
        config = RunConfig(n=14, message=MessageSpec.random_product(
            14, np.random.default_rng(4)), euler_mode="general")
        expected = run_json(config)  # the parent's worker thread exists from here
        state = StateVector(14, random_state(14, np.random.default_rng(5)))
        expected_fp = protocol._digest(state.amps.view(np.float64))
        # Possibly still being hashed when the process forks.
        assert isinstance(protocol._fingerprint_soon(state), _PendingFingerprint)
        with warnings.catch_warnings():
            # Python 3.12+ warns on fork with threads running, the case tested here.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                if _fingerprint(state) == expected_fp and run_json(config) == expected:
                    code = 0
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while not (waited := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish within 60 s")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(waited[1]) == 0

    def test_process_exits_with_a_hash_in_flight(self):
        code = (
            "import numpy as np\n"
            "from aqs.protocol import MessageSpec, RunConfig, _fingerprint_soon, run_protocol\n"
            "r = run_protocol(RunConfig(n=16, message=MessageSpec.uniform_qubit(16, 0.6, 0.8j)))\n"
            "print(r.outcome.accepted)\n"
            "_fingerprint_soon(MessageSpec.uniform_qubit(16, 0.8, 0.6).prepare())\n"
        )
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": SRC})
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True\n", "")
        assert time.monotonic() - start < 30
