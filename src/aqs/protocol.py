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

The verification math is identical in both. Each step is one plain function:
:func:`draw_keys`, :func:`build_cipher`, :func:`sign_package`, :func:`forward_package`
and :func:`arbiter_decision`; :class:`ProtocolSession` calls them and logs. The
registered cipher is one :class:`~aqs.cipher.EncryptionContext`: the signer and
the arbiter run its own ``signing`` and ``recovery`` circuits.

Events name quantum states by fingerprint only. A state past one hashing
chunk (n >= 13) is hashed on one worker thread, started on first use, while
the next kernel pass runs; the transcript waits for pending hashes before
anyone reads its events, so its bytes and event order are those of inline
hashing. The worker runs only hashlib and numpy on read-only amplitudes.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable

import numpy as np

from . import cipher, keys, qstate
from .cipher import EncryptionContext, EulerMode, Scheme
from .errors import AqsError, ConfigError
from .qstate import MAX_QUBITS, Circuit, OpList, StateVector  # MAX_QUBITS is re-exported

EXACT_ACCEPT_THRESHOLD = 1.0 - 1e-9

# numpy draws shot counts as int64.
MAX_SHOTS = 2 ** 63 - 1

TAMPER_CHANNELS = ("signer-verifier", "verifier-kgc")


# The transcript's party labels. A run has one signer, one verifier and the
# KGC, which is also the arbiter, as in the paper's arbitrated model.
KGC = "kgc"
SIGNER = "signer_1"
VERIFIER = "verifier"


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
        qstate._check_ceiling(n)
        # Two draws per qubit, in one call: the same draws as rng.uniform() and
        # rng.uniform(0, 2 pi) per qubit, for less.
        draws = rng.random(2 * max(n, 0)).tolist()
        pairs = []
        for u, v in zip(draws[::2], draws[1::2]):
            theta = math.acos(1.0 - 2.0 * u)
            phi = 2.0 * math.pi * v
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
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


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
    """Signature state, identity tag and clear message copy, on either hop.

    The signer emits all three; the verifier forwards the message only under
    relay wiring, so the arbiter's copy holds none under direct wiring.
    """

    signature: StateVector
    tag: str
    message: StateVector | None = None

    def __post_init__(self) -> None:
        n = self.signature.n
        if self.message is not None and self.message.n != n:
            raise ConfigError(f"message has {self.message.n} qubits, signature {n}")
        if len(self.tag) != n:
            raise ConfigError(f"tag length {len(self.tag)} != qubit count {n}")


@dataclass(frozen=True)
class VerificationOutcome:
    """Arbiter decision; overlap fields stay unset on a hash-stage rejection."""

    accepted: bool
    stage: str
    overlap_sq: float | None = None
    pass_probability: float | None = None
    swap_ones: int | None = None

    def to_payload(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}


@dataclass(frozen=True)
class SignatureProof:
    """What the arbiter keeps after acceptance: the signing angles and blinded tag."""

    signer: str
    lambdas: tuple[float, ...]
    tag: str


# -- run configuration ---------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Everything one protocol run depends on; equal configs replay bit-exactly. A run
    injecting a key or λ (``aqs demo``) replays only from a --reveal-secrets transcript."""

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
        qstate._check_ceiling(self.n)
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
        if self.euler_mode is EulerMode.GENERAL and self.scheme is not Scheme.CHAINED_CU:
            raise ConfigError(
                f"euler_mode 'general' sets cu rotations; scheme "
                f"{self.scheme.value!r} takes 'diagonal'"
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


# Floats per hashed chunk: the ``+ 0.0`` buffer stays at 64 KiB at any n. A
# state that fits in one chunk (n <= 12) is hashed inline, a larger one on the
# worker thread.
_FINGERPRINT_CHUNK = 8192


def _digest(floats: np.ndarray) -> str:
    """First 16 hex digits of SHA-256 over ``floats + 0.0`` as little-endian
    float64. It runs on the worker thread too, so it calls nothing but hashlib
    and numpy, and its buffer is its own."""
    step = _FINGERPRINT_CHUNK
    buf = np.empty(min(step, floats.size), dtype="<f8")
    digest = hashlib.sha256()
    for start in range(0, floats.size, step):
        digest.update(np.add(floats[start:start + step], 0.0, out=buf))
    return digest.hexdigest()[:16]


def _fingerprint(state: StateVector) -> str:
    """First 16 hex digits of SHA-256 over the amplitudes as little-endian
    float64 (re, im) pairs; ``+ 0.0`` turns -0.0 into 0.0 before hashing.

    States are immutable, so the value is kept on the state after the first
    call; a hash pending on the worker thread is waited for.
    """
    cache = vars(state)
    fp = cache.get("_fingerprint")
    if fp is None:
        fp = _digest(state.amps.view(np.float64))
    elif isinstance(fp, _PendingFingerprint):
        fp = fp.result()
    cache["_fingerprint"] = fp
    return fp


def _fingerprint_soon(state: StateVector) -> str | _PendingFingerprint:
    """:func:`_fingerprint` of a state that fits in one chunk, else a pending
    hash of it on the worker thread, kept on the state as the value is."""
    cache = vars(state)
    fp = cache.get("_fingerprint")
    if fp is None:
        floats = state.amps.view(np.float64)
        if floats.size <= _FINGERPRINT_CHUNK:
            return _fingerprint(state)
        fp = cache["_fingerprint"] = _PendingFingerprint(floats)
        _submit(fp)
    return fp


class _PendingFingerprint:
    """A fingerprint the worker thread is hashing.

    It holds the amplitudes until the hash is done. A process forked before
    then has no worker, so it hashes them itself.
    """

    __slots__ = ("_floats", "_pid", "_done", "fp")

    def __init__(self, floats: np.ndarray) -> None:
        self._floats = floats
        self._pid = os.getpid()
        self._done = threading.Event()
        self.fp: str | None = None

    def run(self) -> None:
        """On the worker thread. A failed hash stays unset: :meth:`result`
        hashes again in the caller's thread, where the error is raised."""
        with contextlib.suppress(Exception):
            self.fp = _digest(self._floats)
            self._floats = None
        self._done.set()

    def result(self) -> str:
        if self.fp is None and os.getpid() == self._pid:
            self._done.wait()
        if self.fp is None:
            self.fp = _digest(self._floats)
            self._floats = None
        return self.fp


# The worker thread's jobs and a count of them; the thread starts on the first
# deferred hash. Not a queue.SimpleQueue: importing the queue module adds 128 KiB
# of resident memory to every process.
_jobs: tuple[collections.deque, threading.Semaphore] | None = None
_jobs_lock = threading.Lock()


def _submit(pending: _PendingFingerprint) -> None:
    global _jobs
    with _jobs_lock:
        if _jobs is None:
            _jobs = collections.deque(), threading.Semaphore(0)
            threading.Thread(target=_work, args=_jobs, name="aqs-fingerprint",
                             daemon=True).start()
        jobs, count = _jobs
    jobs.append(pending)
    count.release()


def _work(jobs: collections.deque, count: threading.Semaphore) -> None:
    while True:
        count.acquire()
        jobs.popleft().run()


def _forget_worker() -> None:
    # A forked child has no worker thread; its first deferred hash starts one.
    global _jobs, _jobs_lock
    _jobs, _jobs_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_worker)


class Transcript:
    """Append-only event log; serializes deterministically.

    A fingerprint field may hold a pending hash while the worker thread runs
    it. Every read of the events (``events``, :meth:`gate_events`,
    :meth:`to_dict`, :meth:`to_json`) waits for those first, so no reader
    sees one.
    """

    def __init__(self, config: RunConfig) -> None:
        self.config = config
        self._events: list[dict[str, Any]] = []
        # Payloads that still hold a pending hash.
        self._pending: list[dict[str, Any]] = []
        self.outcome: VerificationOutcome | None = None

    @property
    def events(self) -> list[dict[str, Any]]:
        for payload in self._pending:
            for key, value in payload.items():
                if isinstance(value, _PendingFingerprint):
                    payload[key] = value.result()
        self._pending.clear()
        return self._events

    def append(self, kind: str, frm: str, to: str, payload: dict[str, Any]) -> None:
        self._events.append({"type": kind, "from": frm, "to": to, "payload": payload})

    def _append_fingerprinted(self, kind: str, frm: str, to: str,
                              payload: dict[str, Any],
                              **states: StateVector | None) -> None:
        """Append with each of ``states`` fingerprinted under its key, None as None."""
        pending = False
        for key, state in states.items():
            fp = payload[key] = None if state is None else _fingerprint_soon(state)
            pending = pending or isinstance(fp, _PendingFingerprint)
        self.append(kind, frm, to, payload)
        if pending:
            self._pending.append(payload)

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


# -- the protocol core: what each phase computes, with no transcript or ledger -----------

def draw_keys(n: int, scheme: Scheme, rng: np.random.Generator,
              identity_key: str | None = None) -> dict[str, str]:
    """The KGC's deliveries by purpose, in order: the identity key
    (``identity_key`` if given), the pad key under qotp, the blinding key.

    The drawn keys are cut from one ``keys.random_bits`` draw, in that order.
    Its draws are chunk-invariant, so these are the bits of one draw per key.
    """
    pad = 2 * n if scheme is Scheme.QOTP else 0
    bits = keys.random_bits((n if identity_key is None else 0) + pad + n, rng)
    if identity_key is None:
        identity_key, bits = bits[:n], bits[n:]
    deliveries = {"identity-key": identity_key}
    if pad:
        deliveries["pad-key"], bits = bits[:pad], bits[pad:]
    deliveries["blind-key"] = bits
    return deliveries


def build_cipher(n: int, scheme: Scheme, euler_mode: EulerMode,
                 key_of: Callable[[str], str], rng: np.random.Generator,
                 lambdas: tuple[float, ...] | None = None) -> EncryptionContext:
    """The registered cipher, keyed by ``key_of("pad-key")`` under qotp, else
    ``key_of("identity-key")``; ``rng`` draws λ (unless given), θ, φ."""
    qotp = scheme is Scheme.QOTP
    key = key_of("pad-key" if qotp else "identity-key")
    if lambdas is None:
        lambdas = keys.sample_lambda(n, rng)
    thetas = phis = None
    if euler_mode is EulerMode.GENERAL:
        thetas = tuple(rng.uniform(0, math.pi, n).tolist())
        phis = tuple(rng.uniform(0, 2 * math.pi, n).tolist())
    return EncryptionContext(
        scheme=scheme, n=n,
        perm=None if qotp else keys.derive_permutation(key),
        qotp_key=key if qotp else None,
        lambdas=lambdas, thetas=thetas, phis=phis, euler_mode=euler_mode,
    )


def sign_package(message: StateVector, ctx: EncryptionContext,
                 identity_key: str) -> SignaturePackage:
    """The signer's step: the signature, the identity tag H(K) and the clear copy."""
    return SignaturePackage(signature=cipher.run(message, ctx, ctx.signing),
                            tag=keys.tag_of_bits(identity_key), message=message)


def forward_package(pkg: SignaturePackage, blind_key: str, relay: bool) -> SignaturePackage:
    """The verifier's step: the tag blinded to H(tag xor B), the message only on relay."""
    blinded = keys.tag_of_bits(keys.xor_bits(pkg.tag, blind_key))
    return SignaturePackage(pkg.signature, blinded, pkg.message if relay else None)


def arbiter_decision(identity_key: str, blind_key: str, fwd: SignaturePackage,
                     ctx: EncryptionContext,
                     verify_mode: VerifyMode = VerifyMode.EXACT,
                     swap_shots: int = qstate.SWAP_TEST_SHOTS,
                     rng: np.random.Generator | None = None,
                     ) -> tuple[VerificationOutcome, StateVector | None]:
    """The arbiter's verdict on ``fwd``, whose tag must be H(H(K) xor B), and the
    state it recovers (None on a hash-stage rejection); ``rng`` draws the swap test."""
    if fwd.tag != keys.chained_tag(identity_key, blind_key):
        return VerificationOutcome(accepted=False, stage="hash-check"), None
    if fwd.message is None:
        raise AqsError("no message register available: direct wiring forwards none "
                       "and the signer sent nothing directly")
    recovered = cipher.run(fwd.signature, ctx, ctx.recovery)
    ov = qstate.overlap_sq(recovered, fwd.message)
    pass_probability = qstate.swap_test_pass_probability(ov)
    if verify_mode is VerifyMode.SAMPLED:
        accepted, ones = qstate.swap_test_sampled(pass_probability, swap_shots, rng)
    else:
        accepted, ones = ov >= EXACT_ACCEPT_THRESHOLD, None
    return VerificationOutcome(
        accepted=accepted, stage="state-compare", overlap_sq=ov,
        pass_probability=pass_probability, swap_ones=ones,
    ), recovered


# -- the session ------------------------------------------------------------------------

class ProtocolSession:
    """Drives and logs the four phases of one run; its ledger is the one key store.

    The session plays all three parties: the KGC, which is also the arbiter,
    one signer and one verifier. Each phase reads the keys it uses from
    ``ledger``, so a phase run before setup raises the ledger's
    :class:`AqsError`. Only angle registration takes the signer's index,
    which must be 1, the index in the ``SIGNER`` label; any other raises
    :class:`AqsError`, as does signing or verification before registration.
    """

    def __init__(self, config: RunConfig) -> None:
        self.config = config
        self.transcript = Transcript(config)
        self.ledger = keys.DeliveryLedger()
        self._rng_keys = np.random.default_rng(config.seed_keys)
        self._rng_lambda = np.random.default_rng(config.seed_lambda)
        # The generator behind the sampled swap test and the shot histogram.
        self.shots_rng = np.random.default_rng(config.seed_shots)
        # Built at angle registration, by build_cipher.
        self._ctx: EncryptionContext | None = None
        self._proof: SignatureProof | None = None
        self._direct_message: StateVector | None = None
        self._last_recovered: StateVector | None = None

    # -- phase 1: trusted setup

    def setup(self) -> None:
        cfg = self.config
        deliveries = draw_keys(cfg.n, cfg.scheme, self._rng_keys, cfg.inject_key_bits)
        for purpose, bits in deliveries.items():
            to = VERIFIER if purpose == "blind-key" else SIGNER
            self.ledger.distribute(to, purpose, bits)
            self.transcript.append(
                "delivery", KGC, to,
                {"purpose": purpose, "channel": "qkd", "bits": bits, "length": len(bits)},
            )

    # -- phase 2: signing-angle registration

    def register_lambda(self, index: int) -> tuple[float, ...]:
        if f"signer_{index}" != SIGNER:
            raise AqsError(f"no signer {index} in this session")
        cfg = self.config
        ctx = self._ctx = build_cipher(
            cfg.n, cfg.scheme, cfg.euler_mode, lambda p: self.ledger.lookup(SIGNER, p),
            self._rng_lambda, cfg.inject_lambdas)
        payload: dict[str, Any] = {"lambdas": list(ctx.lambdas), "count": cfg.n}
        if cfg.euler_mode is EulerMode.GENERAL:
            payload["thetas"] = list(ctx.thetas)
            payload["phis"] = list(ctx.phis)
        # The angle transfer rides the authenticated channel, so the arbiter
        # reads the signer's angles from the same record.
        self.transcript.append("lambda-registration", SIGNER, KGC, payload)
        return ctx.lambdas

    def context_for(self) -> EncryptionContext:
        if self._ctx is None:
            raise AqsError("the signer has not registered signing angles")
        return self._ctx

    # -- phase 3: signing

    def sign(self, message: StateVector) -> SignaturePackage:
        key = self.ledger.lookup(SIGNER, "identity-key")
        ctx = self.context_for()
        pkg = sign_package(message, ctx, key)
        self._log_phase(SIGNER, ctx, ctx.signing)
        return self._send("package", SIGNER, VERIFIER, pkg)

    def _send(self, kind: str, frm: str, to: str,
              pkg: SignaturePackage) -> SignaturePackage:
        """Log ``pkg`` leaving ``frm`` for ``to`` and hand it on."""
        self.transcript._append_fingerprinted(
            kind, frm, to, {"tag": pkg.tag},
            message_fp=pkg.message, signature_fp=pkg.signature)
        return pkg

    def _log_phase(self, owner: str, ctx: EncryptionContext, circuit: Circuit) -> None:
        """Log the gates of the cipher circuit ``owner`` ran, then its skipped steps."""
        self._log_gates(owner, [(name, qubits) for name, qubits, _ in circuit])
        # Identity chain steps stay out of the gate count but leave a trace.
        if ctx.perm is not None:
            for j, t in enumerate(ctx.perm):
                if t == j:
                    self.transcript.append(
                        "skipped-step", owner, owner, {"slot": j}
                    )

    def _log_gates(self, owner: str, gate_ops: OpList) -> None:
        for name, qubits in gate_ops:
            self.transcript.append(
                "gate", owner, owner, {"gate": name, "qubits": list(qubits)}
            )

    def log_initialize(self) -> None:
        """Log the signer's preparation of the message register."""
        self._log_gates(SIGNER, _pseudo_gates("initialize", self.config.n))

    def log_measure(self) -> None:
        """Log the arbiter's measurement of the recovered register."""
        self._log_gates(KGC, _pseudo_gates("measure", self.config.n))

    # -- direct wiring: the signer hands the message register to the arbiter

    def send_message_direct(self, message: StateVector) -> None:
        self._direct_message = message
        self.transcript._append_fingerprinted(
            "direct-message", SIGNER, KGC, {}, message_fp=message)

    # -- phase 4a: verifier blinds and forwards

    def verifier_forward(self, pkg: SignaturePackage) -> SignaturePackage:
        blind = self.ledger.lookup(VERIFIER, "blind-key")
        return self._send("forward", VERIFIER, KGC, forward_package(
            pkg, blind, self.config.wiring is Wiring.RELAY))

    # -- phase 4b: arbiter verification

    def kgc_verify(self, fwd: SignaturePackage) -> VerificationOutcome:
        cfg = self.config
        key = self.ledger.lookup(SIGNER, "identity-key")
        blind = self.ledger.lookup(VERIFIER, "blind-key")
        ctx = self.context_for()
        if fwd.message is None:
            fwd = dataclasses.replace(fwd, message=self._direct_message)
        outcome, recovered = arbiter_decision(
            key, blind, fwd, ctx, cfg.verify_mode, cfg.swap_shots, self.shots_rng)
        if recovered is not None:
            self._last_recovered = recovered
            self._log_phase(KGC, ctx, ctx.recovery)
        if outcome.accepted:
            proof = SignatureProof(signer=SIGNER, lambdas=ctx.lambdas, tag=fwd.tag)
            self._proof = proof
            self.transcript.append(
                "proof-stored", KGC, KGC,
                {"signer": SIGNER, "lambdas": list(proof.lambdas),
                 "tag": proof.tag},
            )
        self.transcript.append("outcome", KGC, VERIFIER, outcome.to_payload())
        self.transcript.outcome = outcome
        return outcome

    # -- dispute resolution

    def arbitrate_dispute(self) -> SignatureProof:
        if self._proof is None:
            raise AqsError("no accepted signature proof stored")
        return self._proof


def _pseudo_gates(name: str, n: int) -> OpList:
    return [(name, (q,)) for q in range(n)]


# -- end-to-end run ----------------------------------------------------------------------

@dataclass
class ProtocolResult:
    """One run's artifacts: transcript plus the states and samples around it."""

    config: RunConfig
    transcript: Transcript
    outcome: VerificationOutcome
    message_state: StateVector
    recovered_state: StateVector | None
    histogram: qstate.ShotHistogram | None
    proof: SignatureProof | None
    ops: OpList


def registered_session(config: RunConfig) -> ProtocolSession:
    """A session for ``config`` after trusted setup and angle registration."""
    session = ProtocolSession(config)
    session.setup()
    session.register_lambda(1)
    return session


def _intercept(session: ProtocolSession, package: SignaturePackage, channel: str,
               to: str) -> SignaturePackage:
    """The package as it reaches ``to`` over ``channel``. When the run's
    tamper spec names that channel, the change is logged and applied."""
    from .attacks import apply_pauli_string  # call-time import avoids a cycle

    spec = session.config.tamper
    if spec is None or spec.channel != channel:
        return package
    session.transcript.append("tamper-injection", "adversary", to, spec.to_payload())
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

    Returns the full result bundle; the transcript alone replays the run (it
    embeds the config and all seeds) unless it redacts injected material.
    """
    session = registered_session(config)

    # The protocol prepares two copies from one recipe: the register to sign
    # and the clear copy the arbiter compares against. States are immutable,
    # so one preparation serves as both.
    message = config.message.prepare()
    session.transcript._append_fingerprinted(
        "prepare-message", SIGNER, SIGNER, {"n": config.n, "copies": 2},
        message_fp=message)
    session.log_initialize()

    pkg = _intercept(session, session.sign(message), "signer-verifier", VERIFIER)
    if config.wiring is Wiring.DIRECT:
        session.send_message_direct(message)
    fwd = _intercept(session, session.verifier_forward(pkg), "verifier-kgc", KGC)
    outcome = session.kgc_verify(fwd)
    # The signature and any tampered message register are not needed past
    # verification; dropping them leaves room for sampling.
    del pkg, fwd

    recovered = None
    histogram = None
    proof = None
    if outcome.stage == "state-compare":
        recovered = session._last_recovered
        session.log_measure()
        if sample_histogram:
            histogram = qstate.sample(recovered, config.shots, session.shots_rng)
            session.transcript.append(
                "histogram", KGC, KGC,
                {"shots": config.shots,
                 "distinct_outcomes": len(histogram.counts)},
            )
    if outcome.accepted:
        proof = session.arbitrate_dispute()

    return ProtocolResult(
        config=config, transcript=session.transcript,
        outcome=outcome, message_state=message, recovered_state=recovered,
        histogram=histogram, proof=proof, ops=session.transcript.gate_events(),
    )


def honest_gate_events(config: RunConfig) -> OpList:
    """The gate events :func:`run_protocol` logs for an honest run of ``config``
    (no tamper), read from the circuits of the cipher that angle registration
    builds, drawn from the same seeds with no session: no state is prepared and
    nothing is logged."""
    deliveries = draw_keys(config.n, config.scheme,
                           np.random.default_rng(config.seed_keys), config.inject_key_bits)
    ctx = build_cipher(
        config.n, config.scheme, config.euler_mode, deliveries.__getitem__,
        np.random.default_rng(config.seed_lambda), config.inject_lambdas)
    return (_pseudo_gates("initialize", config.n)
            + [(name, qubits) for name, qubits, _ in ctx.signing + ctx.recovery]
            + _pseudo_gates("measure", config.n))
