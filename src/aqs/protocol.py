"""Arbitrated signature protocol: KGC, one signer and a verifier as party machines.

One run walks four phases: trusted setup (identity keys over simulated QKD),
signing-angle registration, signing, and arbiter verification with a stored
proof on acceptance. Every externally visible step lands in an append-only
transcript whose JSON form is byte-identical across equal-seed runs.

Two wirings cover the message routing:

* ``relay``  -- the verifier forwards message, signature and blinded tag to
  the arbiter (the normative flow),
* ``direct`` -- the signer hands the message register to the arbiter
  directly and the verifier forwards only signature and blinded tag.

The verification math is identical in both.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

import numpy as np

from . import cipher, keys, qstate
from .cipher import EncryptionContext, EulerMode, Scheme
from .errors import AqsError, ConfigError
from .qstate import OpList, StateVector

EXACT_ACCEPT_THRESHOLD = 1.0 - 1e-9

# Largest register a run may ask for. A run holds about six buffers of
# 16 * 2**n bytes at its peak (42 / 132 / 404 MiB at n = 16 / 20 / 22), so
# n = 25 needs about 3 GiB and n = 26 about 6 GiB.
MAX_QUBITS = 25

# numpy draws shot counts as int64.
MAX_SHOTS = 2 ** 63 - 1

TAMPER_CHANNELS = ("signer-verifier", "verifier-kgc")


class Role(str, Enum):
    KGC = "kgc"
    SIGNER = "signer"
    VERIFIER = "verifier"


@dataclass(frozen=True)
class PartyId:
    role: Role
    index: int | None = None
    # Derived from role and index once, at construction.
    label: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        role = Role(self.role)
        object.__setattr__(self, "role", role)
        if role is Role.SIGNER:
            if self.index is None or self.index < 1:
                raise ConfigError("signer parties need a positive index")
            label = f"signer_{self.index}"
        elif self.index is not None:
            raise ConfigError(f"{role.value} takes no index")
        else:
            label = role.value
        object.__setattr__(self, "label", label)


KGC = PartyId(Role.KGC)
VERIFIER = PartyId(Role.VERIFIER)
# A run has one signer, as in the paper's three-party arbitrated model.
SIGNER = PartyId(Role.SIGNER, 1)


class Wiring(str, Enum):
    RELAY = "relay"
    DIRECT = "direct"


class VerifyMode(str, Enum):
    EXACT = "exact"
    SAMPLED = "sampled"


# -- message specification -------------------------------------------------------

@dataclass(frozen=True)
class MessageSpec:
    """Recipe for the message register: classical bits or per-qubit amplitudes.

    Preparing from a recipe is what lets the signer hold "two copies" without
    cloning: both copies are built independently from the same description.
    States are immutable, so the simulation prepares one and uses it for both.
    """

    kind: str
    bits: str | None = None
    amps: tuple[tuple[complex, complex], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == "classical":
            if not self.bits or set(self.bits) - {"0", "1"}:
                raise ConfigError("classical message needs a nonempty bit string")
        elif self.kind == "product":
            if not self.amps:
                raise ConfigError("product message needs per-qubit amplitudes")
            object.__setattr__(
                self,
                "amps",
                tuple((complex(a), complex(b)) for a, b in self.amps),
            )
        else:
            raise ConfigError(f"unknown message kind {self.kind!r}")

    @staticmethod
    def classical(bits: str) -> "MessageSpec":
        return MessageSpec(kind="classical", bits=bits)

    @staticmethod
    def product(pairs) -> "MessageSpec":
        return MessageSpec(kind="product", amps=tuple(pairs))

    @staticmethod
    def uniform_qubit(n: int, alpha: complex, beta: complex) -> "MessageSpec":
        return MessageSpec.product(((alpha, beta),) * n)

    @staticmethod
    def random_product(n: int, rng: np.random.Generator) -> "MessageSpec":
        """Per-qubit states drawn uniformly on the Bloch sphere."""
        _check_ceiling(n)
        pairs = []
        for _ in range(n):
            theta = math.acos(1.0 - 2.0 * rng.uniform())
            phi = rng.uniform(0.0, 2.0 * math.pi)
            pairs.append(
                (math.cos(theta / 2.0),
                 complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0))
            )
        return MessageSpec.product(pairs)

    @property
    def n(self) -> int:
        return len(self.bits) if self.kind == "classical" else len(self.amps)

    def prepare(self) -> StateVector:
        if self.kind == "classical":
            return qstate.basis_state(len(self.bits), self.bits)
        return qstate.init_product_state(self.amps)

    def to_payload(self) -> dict[str, Any]:
        if self.kind == "classical":
            return {"kind": "classical", "bits": self.bits}
        return {
            "kind": "product",
            "amps": [[a.real, a.imag, b.real, b.imag] for a, b in self.amps],
        }


def _check_ceiling(n: int) -> None:
    if n > MAX_QUBITS:
        raise ConfigError(f"n = {n} exceeds the {MAX_QUBITS}-qubit ceiling")


def _check_seed(seed: int, name: str = "seed") -> None:
    # numpy's generators take no negative seed, and say so with a plain ValueError.
    if seed < 0:
        raise ConfigError(f"{name} must be non-negative, got {seed}")


# -- tamper injection --------------------------------------------------------------

@dataclass(frozen=True)
class TamperSpec:
    """In-transit modification on one classical-or-quantum hop.

    ``message_pauli`` hits the message register only (signature untouched);
    ``tag_flip_bit`` flips one bit of the tag travelling on that hop.
    """

    channel: str
    message_pauli: str | None = None
    tag_flip_bit: int | None = None

    def __post_init__(self) -> None:
        if self.channel not in TAMPER_CHANNELS:
            raise ConfigError(
                f"cannot tamper channel {self.channel!r}; interceptable "
                f"channels are {TAMPER_CHANNELS}"
            )
        if self.message_pauli is not None:
            if not self.message_pauli or set(self.message_pauli.upper()) - set("IXYZ"):
                raise ConfigError(
                    f"message_pauli must be a string over IXYZ, got {self.message_pauli!r}"
                )
            object.__setattr__(self, "message_pauli", self.message_pauli.upper())
        if self.tag_flip_bit is not None and self.tag_flip_bit < 0:
            raise ConfigError("tag_flip_bit must be non-negative")

    def to_payload(self) -> dict[str, Any]:
        return {
            "channel": self.channel,
            "message_pauli": self.message_pauli,
            "tag_flip_bit": self.tag_flip_bit,
        }


def _flip_bit(bits: str, index: int) -> str:
    if index >= len(bits):
        raise ConfigError(
            f"tag has {len(bits)} bits; cannot flip bit {index}"
        )
    flipped = "1" if bits[index] == "0" else "0"
    return bits[:index] + flipped + bits[index + 1 :]


# -- protocol data types ------------------------------------------------------------

@dataclass(frozen=True)
class SignaturePackage:
    """What the signer emits: clear message copy, signature state, identity tag."""

    signer: PartyId
    message: StateVector
    signature: StateVector
    tag: str

    def __post_init__(self) -> None:
        if self.message.n != self.signature.n:
            raise ConfigError(
                f"message has {self.message.n} qubits, signature {self.signature.n}"
            )
        if len(self.tag) != self.message.n:
            raise ConfigError(
                f"tag length {len(self.tag)} != qubit count {self.message.n}"
            )


@dataclass(frozen=True)
class ForwardedPackage:
    """What the verifier hands the arbiter; message is absent in direct wiring."""

    signer: PartyId
    signature: StateVector
    tag: str
    message: StateVector | None = None

    def __post_init__(self) -> None:
        if self.message is not None and self.message.n != self.signature.n:
            raise ConfigError(
                f"message has {self.message.n} qubits, signature {self.signature.n}"
            )


@dataclass(frozen=True)
class VerificationOutcome:
    """Arbiter decision; overlap fields stay unset on a hash-stage rejection."""

    accepted: bool
    stage: str
    overlap_sq: float | None = None
    pass_probability: float | None = None
    swap_ones: int | None = None

    def to_payload(self) -> dict[str, Any]:
        return {
            "accepted": self.accepted,
            "stage": self.stage,
            "overlap_sq": self.overlap_sq,
            "pass_probability": self.pass_probability,
            "swap_ones": self.swap_ones,
        }


@dataclass(frozen=True)
class SignatureProof:
    """What the arbiter keeps after acceptance: the signing angles and blinded tag."""

    signer: PartyId
    lambdas: tuple[float, ...]
    tag: str


# -- run configuration ---------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Everything one protocol run depends on; equal configs replay bit-exactly."""

    n: int
    message: MessageSpec
    scheme: Scheme = Scheme.CHAINED_CU
    euler_mode: EulerMode = EulerMode.DIAGONAL
    wiring: Wiring = Wiring.RELAY
    verify_mode: VerifyMode = VerifyMode.EXACT
    seed_keys: int = 0
    seed_lambda: int = 0
    seed_shots: int = 0
    shots: int = 1024
    swap_shots: int = qstate.SWAP_TEST_SHOTS
    tamper: TamperSpec | None = None
    inject_key_bits: str | None = None
    inject_lambdas: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        object.__setattr__(self, "euler_mode", EulerMode(self.euler_mode))
        object.__setattr__(self, "wiring", Wiring(self.wiring))
        object.__setattr__(self, "verify_mode", VerifyMode(self.verify_mode))
        if self.n < 1:
            raise ConfigError(f"n must be at least 1, got {self.n}")
        _check_ceiling(self.n)
        if not 1 <= self.shots <= MAX_SHOTS:
            raise ConfigError(f"shots must be in 1..{MAX_SHOTS}, got {self.shots}")
        if self.swap_shots < 1:
            raise ConfigError(f"swap_shots must be at least 1, got {self.swap_shots}")
        for name in ("seed_keys", "seed_lambda", "seed_shots"):
            _check_seed(getattr(self, name), name)
        if self.message.n != self.n:
            raise ConfigError(
                f"message spec covers {self.message.n} qubits, config says {self.n}"
            )
        if self.inject_key_bits is not None and len(self.inject_key_bits) != self.n:
            raise ConfigError("injected key must have one bit per qubit")
        if self.inject_lambdas is not None:
            if len(self.inject_lambdas) != self.n:
                raise ConfigError("injected lambdas need one angle per qubit")
            object.__setattr__(self, "inject_lambdas", cipher._check_angles(
                tuple(self.inject_lambdas), self.n, "injected lambdas"))

    def to_payload(self, reveal_secrets: bool = False) -> dict[str, Any]:
        inject_key: Any = self.inject_key_bits
        inject_lams: Any = self.inject_lambdas
        if not reveal_secrets:
            if inject_key is not None:
                inject_key = {"redacted": True, "length": len(inject_key)}
            if inject_lams is not None:
                inject_lams = {"redacted": True, "count": len(inject_lams)}
        elif inject_lams is not None:
            inject_lams = list(inject_lams)
        return {
            "n": self.n,
            "message": self.message.to_payload(),
            "scheme": self.scheme.value,
            "euler_mode": self.euler_mode.value,
            "wiring": self.wiring.value,
            "verify_mode": self.verify_mode.value,
            # A run has one signer; the transcript format keeps both keys so
            # its bytes stay the same.
            "num_signers": 1,
            "signer_index": 1,
            "seed_keys": self.seed_keys,
            "seed_lambda": self.seed_lambda,
            "seed_shots": self.seed_shots,
            "shots": self.shots,
            "swap_shots": self.swap_shots,
            "tamper": self.tamper.to_payload() if self.tamper else None,
            "inject_key_bits": inject_key,
            "inject_lambdas": inject_lams,
        }


# -- transcript -----------------------------------------------------------------------

_SECRET_KEYS = ("bits", "lambdas", "thetas", "phis")


def _fingerprint(state: StateVector) -> str:
    """First 16 hex digits of SHA-256 over the amplitudes as little-endian
    float64 (re, im) pairs; ``+ 0.0`` turns -0.0 into 0.0 before hashing.

    States are immutable, so the value is kept on the state after the first call.
    """
    cache = vars(state)
    fp = cache.get("_fingerprint")
    if fp is None:
        pairs = (state.amps.view(np.float64) + 0.0).astype("<f8", copy=False)
        fp = cache["_fingerprint"] = hashlib.sha256(pairs).hexdigest()[:16]
    return fp


class Transcript:
    """Append-only event log; serializes deterministically."""

    def __init__(self, config: RunConfig) -> None:
        self.config = config
        self.events: list[dict[str, Any]] = []
        self.outcome: VerificationOutcome | None = None

    def append(self, kind: str, frm: str, to: str, payload: dict[str, Any]) -> None:
        self.events.append({"type": kind, "from": frm, "to": to, "payload": payload})

    def gate_events(self) -> list[tuple[str, tuple[int, ...]]]:
        return [
            (e["payload"]["gate"], tuple(e["payload"]["qubits"]))
            for e in self.events
            if e["type"] == "gate"
        ]

    def _redact(self, payload: dict[str, Any]) -> dict[str, Any]:
        out = dict(payload)
        for key in _SECRET_KEYS:
            if key in out and out[key] is not None:
                value = out[key]
                size = len(value)
                out[key] = {"redacted": True, "length": size}
        return out

    def to_dict(self, reveal_secrets: bool = False) -> dict[str, Any]:
        events = self.events
        if not reveal_secrets:
            events = [dict(e, payload=self._redact(e["payload"])) for e in events]
        return {
            "config": self.config.to_payload(reveal_secrets),
            "events": events,
            "outcome": self.outcome.to_payload() if self.outcome else None,
        }

    def to_json(self, reveal_secrets: bool = False) -> str:
        return json.dumps(
            self.to_dict(reveal_secrets), sort_keys=True, separators=(",", ":")
        )

    def summary_csv_row(self) -> str:
        """Flat outcome row: header plus one line."""
        header = "scheme,euler_mode,wiring,n,accepted,stage,overlap_sq,pass_probability"
        o = self.outcome
        row = ",".join(
            [
                self.config.scheme.value,
                self.config.euler_mode.value,
                self.config.wiring.value,
                str(self.config.n),
                "" if o is None else str(o.accepted).lower(),
                "" if o is None else o.stage,
                "" if o is None or o.overlap_sq is None else f"{o.overlap_sq:.12g}",
                ""
                if o is None or o.pass_probability is None
                else f"{o.pass_probability:.12g}",
            ]
        )
        return header + "\n" + row + "\n"


# -- the session ------------------------------------------------------------------------

class ProtocolSession:
    """Holds the party secret stores and drives the four phases for one run.

    Methods that act for the signer take its index, which is always
    ``SIGNER.index``; any other raises :class:`AqsError`.
    """

    def __init__(self, config: RunConfig) -> None:
        self.config = config
        self.transcript = Transcript(config)
        self.ledger = keys.DeliveryLedger()
        self._rng_keys = np.random.default_rng(config.seed_keys)
        self._rng_lambda = np.random.default_rng(config.seed_lambda)
        # Built on first use: most sessions never sample.
        self._rng_shots: np.random.Generator | None = None
        self._key_bits: str | None = None
        self._lambdas: tuple[float, ...] | None = None
        # Built at setup for cnot and qotp, at angle registration for cu.
        self._ctx: EncryptionContext | None = None
        self._verifier_key: str | None = None
        self._proof: SignatureProof | None = None
        self._direct_message: StateVector | None = None
        self._last_recovered: StateVector | None = None

    # -- phase 1: trusted setup

    def setup(self) -> None:
        cfg = self.config
        n = cfg.n
        bits = cfg.inject_key_bits
        if bits is None:
            bits = keys.random_bits(n, self._rng_keys)
        self._record_delivery(SIGNER, "identity-key", bits)
        ctx = None
        if cfg.scheme is Scheme.QOTP:
            pad = keys.random_bits(2 * n, self._rng_keys)
            self._record_delivery(SIGNER, "pad-key", pad)
            ctx = EncryptionContext(scheme=cfg.scheme, n=n, qotp_key=pad)
        elif cfg.scheme is Scheme.CHAINED_CNOT:
            ctx = EncryptionContext(
                scheme=cfg.scheme, n=n, perm=keys.derive_permutation(bits)
            )
        verifier_key = keys.random_bits(n, self._rng_keys)
        self._record_delivery(VERIFIER, "blind-key", verifier_key)
        # Only keys the ledger holds reach the parties: a setup the ledger
        # refuses leaves the session as it was.
        self._key_bits, self._ctx, self._verifier_key = bits, ctx, verifier_key

    def _record_delivery(self, to: PartyId, purpose: str, bits: str) -> None:
        record = self.ledger.distribute(KGC.label, to.label, purpose, bits)
        self.transcript.append(
            "delivery",
            record.sender,
            record.receiver,
            {"purpose": purpose, "channel": "qkd", "bits": bits, "length": len(bits)},
        )

    def _check_signer(self, index: int | None) -> None:
        if index != SIGNER.index or self._key_bits is None:
            raise AqsError(f"no signer {index} in this session")

    # -- phase 2: signing-angle registration

    def register_lambda(self, index: int) -> tuple[float, ...]:
        self._check_signer(index)
        cfg = self.config
        n = cfg.n
        lams = cfg.inject_lambdas
        if lams is None:
            lams = keys.sample_lambda(n, self._rng_lambda)
        self._lambdas = lams
        payload: dict[str, Any] = {"lambdas": list(lams), "count": n}
        thetas = phis = None
        if cfg.euler_mode is EulerMode.GENERAL:
            thetas = tuple(float(x) for x in self._rng_lambda.uniform(0, math.pi, n))
            phis = tuple(float(x) for x in self._rng_lambda.uniform(0, 2 * math.pi, n))
            payload["thetas"] = list(thetas)
            payload["phis"] = list(phis)
        if cfg.scheme is Scheme.CHAINED_CU:
            self._ctx = EncryptionContext(
                scheme=cfg.scheme, n=n, perm=keys.derive_permutation(self._key_bits),
                lambdas=lams, thetas=thetas, phis=phis, euler_mode=cfg.euler_mode,
            )
        # The angle transfer rides the authenticated channel, so the arbiter
        # reads the signer's angles from the same record.
        self.transcript.append("lambda-registration", SIGNER.label, KGC.label, payload)
        return lams

    # -- shared context construction

    def context_for(self, index: int) -> EncryptionContext:
        self._check_signer(index)
        if self._ctx is None:
            raise AqsError(f"signer {index} has not registered signing angles")
        return self._ctx

    # -- phase 3: signing

    def sign(self, index: int, message: StateVector) -> SignaturePackage:
        ctx = self.context_for(index)
        signature = self._run_phase(SIGNER.label, message, ctx, cipher.signature_ops(ctx))
        tag = keys.tag_of_bits(self._key_bits)
        pkg = SignaturePackage(signer=SIGNER, message=message, signature=signature, tag=tag)
        self.transcript.append(
            "package", pkg.signer.label, VERIFIER.label,
            {"tag": tag, "message_fp": _fingerprint(message),
             "signature_fp": _fingerprint(signature)},
        )
        return pkg

    def _run_phase(self, owner: str, state: StateVector, ctx: EncryptionContext,
                   circuit: list[qstate.Op]) -> StateVector:
        """Run one party's cipher circuit, then log its gates and skipped steps."""
        state = cipher.run(state, ctx, circuit)
        self._log_gates(owner, [(name, qubits) for name, qubits, _ in circuit])
        # Identity chain steps stay out of the gate count but leave a trace.
        if ctx.perm is not None:
            for j, t in enumerate(ctx.perm):
                if t == j:
                    self.transcript.append(
                        "skipped-step", owner, owner, {"slot": j}
                    )
        return state

    def _log_gates(self, owner: str, gate_ops: OpList) -> None:
        for name, qubits in gate_ops:
            self.transcript.append(
                "gate", owner, owner, {"gate": name, "qubits": list(qubits)}
            )

    def log_initialize(self, owner: PartyId, n: int) -> None:
        self._log_gates(owner.label, [("initialize", (q,)) for q in range(n)])

    def log_measure(self, owner: PartyId, n: int) -> None:
        self._log_gates(owner.label, [("measure", (q,)) for q in range(n)])

    # -- direct wiring: the signer hands the message register to the arbiter

    def send_message_direct(self, index: int, message: StateVector) -> None:
        self._check_signer(index)
        self._direct_message = message
        self.transcript.append(
            "direct-message", SIGNER.label, KGC.label,
            {"message_fp": _fingerprint(message)},
        )

    # -- phase 4a: verifier blinds and forwards

    def verifier_forward(self, pkg: SignaturePackage) -> ForwardedPackage:
        if self._verifier_key is None:
            raise AqsError("session not set up; verifier holds no key")
        if len(pkg.tag) != len(self._verifier_key):
            raise ConfigError(
                f"tag length {len(pkg.tag)} != verifier key length "
                f"{len(self._verifier_key)}"
            )
        blinded = keys.tag_of_bits(keys.xor_bits(pkg.tag, self._verifier_key))
        message = pkg.message if self.config.wiring is Wiring.RELAY else None
        fwd = ForwardedPackage(
            signer=pkg.signer, signature=pkg.signature, tag=blinded, message=message
        )
        self.transcript.append(
            "forward", VERIFIER.label, KGC.label,
            {"tag": blinded,
             "message_fp": None if message is None else _fingerprint(message),
             "signature_fp": _fingerprint(pkg.signature)},
        )
        return fwd

    # -- phase 4b: arbiter verification

    def kgc_verify(self, fwd: ForwardedPackage) -> VerificationOutcome:
        cfg = self.config
        idx = fwd.signer.index
        self._check_signer(idx)
        expected = keys.chained_tag(self._key_bits, self._verifier_key)
        if fwd.tag != expected:
            outcome = VerificationOutcome(accepted=False, stage="hash-check")
            self._finish(fwd, outcome)
            return outcome
        message = fwd.message
        if message is None:
            message = self._direct_message
        if message is None:
            raise AqsError(
                "no message register available: relay wiring forwards none and "
                "the signer sent nothing directly"
            )
        if message.n != fwd.signature.n:
            raise ConfigError(
                f"message has {message.n} qubits, signature {fwd.signature.n}"
            )
        ctx = self.context_for(idx)
        recovered = self._run_phase(
            KGC.label, fwd.signature, ctx,
            cipher.inverse_ops(cipher.signature_ops(ctx)),
        )
        self._last_recovered = recovered
        ov = qstate.overlap_sq(recovered, message)
        pass_probability = qstate.swap_test_pass_probability(ov)
        if cfg.verify_mode is VerifyMode.SAMPLED:
            accepted, ones = qstate.swap_test_sampled(
                pass_probability, cfg.swap_shots, self.shots_rng
            )
        else:
            accepted, ones = ov >= EXACT_ACCEPT_THRESHOLD, None
        outcome = VerificationOutcome(
            accepted=accepted, stage="state-compare", overlap_sq=ov,
            pass_probability=pass_probability, swap_ones=ones,
        )
        if outcome.accepted:
            proof = SignatureProof(signer=fwd.signer, lambdas=self._lambdas or (),
                                   tag=fwd.tag)
            self._proof = proof
            self.transcript.append(
                "proof-stored", KGC.label, KGC.label,
                {"signer": fwd.signer.label, "lambdas": list(proof.lambdas),
                 "tag": proof.tag},
            )
        self._finish(fwd, outcome)
        return outcome

    def _finish(self, fwd: ForwardedPackage, outcome: VerificationOutcome) -> None:
        self.transcript.append(
            "outcome", KGC.label, VERIFIER.label, outcome.to_payload()
        )
        self.transcript.outcome = outcome

    # -- dispute resolution

    def arbitrate_dispute(self, index: int) -> SignatureProof:
        if index != SIGNER.index or self._proof is None:
            raise AqsError(f"no accepted signature proof stored for signer {index}")
        return self._proof

    @property
    def shots_rng(self) -> np.random.Generator:
        """The generator behind the sampled swap test and the shot histogram."""
        if self._rng_shots is None:
            self._rng_shots = np.random.default_rng(self.config.seed_shots)
        return self._rng_shots


# -- end-to-end run ----------------------------------------------------------------------

@dataclass
class ProtocolResult:
    """One run's artifacts: transcript plus the states and samples around it."""

    config: RunConfig
    session: ProtocolSession
    transcript: Transcript
    outcome: VerificationOutcome
    message_state: StateVector
    recovered_state: StateVector | None
    histogram: qstate.ShotHistogram | None
    proof: SignatureProof | None
    ops: OpList


def _tamper(package: SignaturePackage | ForwardedPackage,
            spec: TamperSpec) -> SignaturePackage | ForwardedPackage:
    """The package as it arrives after ``spec`` modified it in transit."""
    from .attacks import apply_pauli_string  # call-time import avoids a cycle

    changes: dict[str, Any] = {}
    if spec.message_pauli is not None:
        if package.message is None:
            raise ConfigError(
                "no message register travels verifier->kgc under direct wiring"
            )
        changes["message"] = apply_pauli_string(package.message, spec.message_pauli)
    if spec.tag_flip_bit is not None:
        changes["tag"] = _flip_bit(package.tag, spec.tag_flip_bit)
    return dataclasses.replace(package, **changes)


def run_protocol(config: RunConfig, sample_histogram: bool = True) -> ProtocolResult:
    """Execute setup, angle registration, signing, forwarding and verification.

    Returns the full result bundle; the transcript alone suffices to replay
    the run (it embeds the config and all seeds).
    """
    session = ProtocolSession(config)
    session.setup()
    session.register_lambda(SIGNER.index)

    # The protocol prepares two copies from one recipe: the register to sign
    # and the clear copy the arbiter compares against. States are immutable,
    # so one preparation serves as both.
    message = config.message.prepare()
    session.transcript.append(
        "prepare-message", SIGNER.label, SIGNER.label,
        {"n": config.n, "copies": 2, "message_fp": _fingerprint(message)},
    )
    session.log_initialize(SIGNER, config.n)

    pkg = session.sign(SIGNER.index, message)

    tamper = config.tamper
    if tamper is not None and tamper.channel == "signer-verifier":
        session.transcript.append(
            "tamper-injection", "adversary", VERIFIER.label, tamper.to_payload()
        )
        pkg = _tamper(pkg, tamper)

    if config.wiring is Wiring.DIRECT:
        session.send_message_direct(SIGNER.index, pkg.message)

    fwd = session.verifier_forward(pkg)
    if tamper is not None and tamper.channel == "verifier-kgc":
        session.transcript.append(
            "tamper-injection", "adversary", KGC.label, tamper.to_payload()
        )
        fwd = _tamper(fwd, tamper)

    outcome = session.kgc_verify(fwd)

    recovered = None
    histogram = None
    proof = None
    if outcome.stage == "state-compare":
        recovered = session._last_recovered
        session.log_measure(KGC, config.n)
        if sample_histogram:
            histogram = qstate.sample(recovered, config.shots, session.shots_rng)
            session.transcript.append(
                "histogram", KGC.label, KGC.label,
                {"shots": config.shots,
                 "distinct_outcomes": len(histogram.counts)},
            )
    if outcome.accepted:
        proof = session.arbitrate_dispute(SIGNER.index)

    return ProtocolResult(
        config=config, session=session, transcript=session.transcript,
        outcome=outcome, message_state=message, recovered_state=recovered,
        histogram=histogram, proof=proof, ops=session.transcript.gate_events(),
    )
