"""Executable adversary models: Pauli forgeries, impersonation, in-transit tampering.

Trials call the protocol's step functions, as a session does (``build_cipher``,
``sign_package``, ``forward_package``, ``arbiter_decision``), and build no
session or transcript; the registered context carries its own signing and
recovery circuits. A forgery trial makes one state pass each to sign, to
forge the message, to forge the signature and to recover: the Pauli string is
one op list, run on each forged register by one :func:`aqs.qstate.apply_ops` call.

Every experiment is deterministic per seed: trial t of sweep row r and sigma
class c draws key, angle and shot seeds, its message and sigma from
``default_rng([seed, r, c, t])``. Impersonation draws its seeds from
``default_rng([seed, 0])``. At the ``none`` level every key guess comes, in
trial order, from the one stream ``default_rng([seed, 1])``: guess t is an
n-bit int, read MSB first from bits [t*n, (t+1)*n) of the draws
``keys.random_bits`` makes. A passing guess t draws its message and signature
from ``[seed, 2, t]``. At the other levels trial t draws from ``[seed, 1, t]``.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, fields, replace as dc_replace
from typing import Any

import numpy as np

from . import gates, keys, protocol, qstate
from .cipher import EncryptionContext, EulerMode, Scheme
from .errors import AqsError, ConfigError
from .protocol import (
    MessageSpec,
    ProtocolSession,
    RunConfig,
    SignaturePackage,
    TamperSpec,
    VerificationOutcome,
    _check_seed,
    run_protocol,
)
from .qstate import Op, StateVector

PAULI_LETTERS = "IXYZ"

SIGMA_CLASSES = ("diagonal", "xy", "random")


def _pauli_ops(sigma: str, n: int) -> list[Op]:
    """The op list of ``sigma`` on an n-qubit register: one read-only Pauli per
    letter that is not 'I' (letters are case-insensitive), in qubit order."""
    if len(sigma) != n:
        raise ConfigError(f"pauli string length {len(sigma)} != register size {n}")
    return [(letter, (q,), gates.pauli(letter))
            for q, letter in enumerate(sigma.upper()) if letter != "I"]


def apply_pauli_string(state: StateVector, sigma: str) -> StateVector:
    """Apply one Pauli letter per qubit, one gate application each; 'I'
    entries are skipped."""
    for _, (q,), gate in _pauli_ops(sigma, state.n):
        state = qstate.apply_single(state, q, gate)
    return state


def random_pauli_string(n: int, rng: np.random.Generator,
                        sigma_class: str = "random") -> str:
    """Draw a Pauli string from one of the reported classes.

    ``diagonal`` draws from {I,Z}^n minus the identity, ``xy`` conditions on
    at least one X or Y, ``random`` is uniform over all 4^n strings.
    """
    # At n = 0 the diagonal and xy classes are empty, and their loops never end.
    if n < 1:
        raise ConfigError(f"a Pauli string needs n >= 1, got {n}")
    def draw(letters: str) -> str:
        # The same draws as rng.choice(list(letters), size=n).
        return "".join([letters[i] for i in rng.integers(0, len(letters), size=n)])

    if sigma_class == "diagonal":
        while True:
            s = draw("IZ")
            if "Z" in s:
                return s
    if sigma_class == "xy":
        while True:
            s = draw(PAULI_LETTERS)
            if "X" in s or "Y" in s:
                return s
    if sigma_class == "random":
        return draw(PAULI_LETTERS)
    raise ConfigError(f"unknown sigma class {sigma_class!r}; expected {SIGMA_CLASSES}")


# -- reports ---------------------------------------------------------------------

ATTACK_CSV_HEADER = (
    "scheme,euler_mode,sigma_class,trials,accept_rate,"
    "mean_overlap_sq,min_overlap_sq"
)


@dataclass(frozen=True)
class AttackReport:
    """Aggregated outcome of one adversary row (scheme x class or one attempt)."""

    scheme: str
    euler_mode: str
    sigma_class: str
    trials: int
    accept_count: int
    mean_overlap_sq: float | None = None
    min_overlap_sq: float | None = None
    max_overlap_sq: float | None = None
    hash_pass_count: int | None = None
    details: tuple[dict[str, Any], ...] | None = None

    def __post_init__(self) -> None:
        if self.accept_count > self.trials:
            raise ConfigError("accept_count cannot exceed trials")

    @property
    def accept_rate(self) -> float:
        return self.accept_count / self.trials if self.trials else 0.0

    def csv_row(self) -> str:
        def fmt(x: float | None) -> str:
            return "" if x is None else f"{x:.12g}"

        return ",".join(
            [
                self.scheme,
                self.euler_mode,
                self.sigma_class,
                str(self.trials),
                f"{self.accept_rate:.12g}",
                fmt(self.mean_overlap_sq),
                fmt(self.min_overlap_sq),
            ]
        )

    def to_json_dict(self) -> dict[str, Any]:
        """The report's fields and accept rate; ``details`` only when collected."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "details"}
        out["accept_rate"] = self.accept_rate
        if self.details is not None:
            out["details"] = list(self.details)
        return out


def reports_to_csv(reports: list[AttackReport]) -> str:
    lines = [ATTACK_CSV_HEADER]
    lines.extend(r.csv_row() for r in reports)
    return "\n".join(lines) + "\n"


def reports_to_json(reports: list[AttackReport]) -> str:
    return json.dumps(
        [r.to_json_dict() for r in reports],
        sort_keys=True, separators=(",", ":"),
    )


def _aggregate(scheme: str, euler_mode: str, sigma_class: str, trials: int,
               outcomes: list[tuple[bool, float | None]],
               hash_pass_count: int | None = None,
               details: list[dict[str, Any]] | None = None) -> AttackReport:
    """Report over ``trials`` trials; trials missing from ``outcomes`` were
    rejected without an overlap."""
    overlaps = [ov for _, ov in outcomes if ov is not None]
    return AttackReport(
        scheme=scheme,
        euler_mode=euler_mode,
        sigma_class=sigma_class,
        trials=trials,
        accept_count=sum(1 for acc, _ in outcomes if acc),
        mean_overlap_sq=float(np.mean(overlaps)) if overlaps else None,
        min_overlap_sq=float(np.min(overlaps)) if overlaps else None,
        max_overlap_sq=float(np.max(overlaps)) if overlaps else None,
        hash_pass_count=hash_pass_count,
        details=tuple(details) if details is not None else None,
    )


# -- Pauli forgery -----------------------------------------------------------------

def honest_package(session: ProtocolSession) -> SignaturePackage:
    """Complete the signer's signing phase on the session's message.

    One preparation is both the signed register and the clear copy, as in
    :func:`aqs.protocol.run_protocol`.
    """
    return session.sign(session.config.message.prepare())


def _forged(pkg: SignaturePackage, sigma: str) -> SignaturePackage:
    """Hit message and signature with the same Pauli string, reusing the tag.

    The identity tag binds the signer, not the message, so the forged pair
    sails through the hash gate; the state compare is the only obstacle.
    Each register takes the string's op list in one :func:`aqs.qstate.apply_ops`
    pass. X, Y and Z take the kernels' anti-diagonal and diagonal paths, so
    the bytes equal those of :func:`apply_pauli_string`.
    """
    if pkg.message is None:
        raise AqsError("the package carries no message register to forge")
    ops = _pauli_ops(sigma, pkg.signature.n)
    return SignaturePackage(
        message=qstate.apply_ops(pkg.message, ops),
        signature=qstate.apply_ops(pkg.signature, ops),
        tag=pkg.tag,
    )


def pauli_forgery(session: ProtocolSession, pkg: SignaturePackage,
                  sigma: str) -> VerificationOutcome:
    """Verify ``pkg`` forged with ``sigma`` (see :func:`_forged`) in ``session``."""
    return session.kgc_verify(session.verifier_forward(_forged(pkg, sigma)))


def _registration(n: int, scheme: Scheme, euler_mode: EulerMode, rng: np.random.Generator,
                  ) -> tuple[dict[str, str], EncryptionContext]:
    """The KGC's deliveries and the registered cipher, with no session, from
    the first two of the key, angle and shot seeds that ``rng`` draws."""
    qstate._check_ceiling(n)
    seeds = rng.integers(0, 2 ** 31, size=3)
    deliveries = protocol.draw_keys(n, scheme, np.random.default_rng(int(seeds[0])))
    return deliveries, protocol.build_cipher(
        n, scheme, euler_mode, deliveries.__getitem__, np.random.default_rng(int(seeds[1])))


def _verdict(deliveries: dict[str, str], ctx: EncryptionContext,
             pkg: SignaturePackage) -> VerificationOutcome:
    """The arbiter's exact verdict on ``pkg`` once the verifier forwards it."""
    key, blind = deliveries["identity-key"], deliveries["blind-key"]
    fwd = protocol.forward_package(pkg, blind, relay=True)
    return protocol.arbiter_decision(key, blind, fwd, ctx)[0]


SWEEP_ROWS: tuple[tuple[Scheme, EulerMode], ...] = (
    (Scheme.QOTP, EulerMode.DIAGONAL),
    (Scheme.CHAINED_CNOT, EulerMode.DIAGONAL),
    (Scheme.CHAINED_CU, EulerMode.DIAGONAL),
    (Scheme.CHAINED_CU, EulerMode.GENERAL),
)


def forgery_sweep(n: int, trials: int, seed: int,
                  collect_details: bool = False) -> list[AttackReport]:
    """Forgery statistics for every scheme row and sigma class."""
    return [forgery_row(n, trials, seed, row, cls_index, collect_details)
            for row in range(len(SWEEP_ROWS))
            for cls_index in range(len(SIGMA_CLASSES))]


def forgery_row(n: int, trials: int, seed: int, row: int, cls_index: int,
                collect_details: bool = False) -> AttackReport:
    """Forgery statistics for scheme row ``SWEEP_ROWS[row]`` and sigma class
    ``SIGMA_CLASSES[cls_index]``, the same whichever other rows run."""
    if n < 2:
        raise ConfigError(f"sweep needs n >= 2, got {n}")
    if trials < 1:
        raise ConfigError(f"trials must be positive, got {trials}")
    _check_seed(seed)
    scheme, mode = SWEEP_ROWS[row]
    sigma_class = SIGMA_CLASSES[cls_index]
    outcomes: list[tuple[bool, float | None]] = []
    details: list[dict[str, Any]] = []
    for t in range(trials):
        rng = np.random.default_rng([seed, row, cls_index, t])
        deliveries, ctx = _registration(n, scheme, mode, rng)
        message = MessageSpec.random_product(n, rng).prepare()
        honest = protocol.sign_package(message, ctx, deliveries["identity-key"])
        sigma = random_pauli_string(n, rng, sigma_class)
        out = _verdict(deliveries, ctx, _forged(honest, sigma))
        outcomes.append((out.accepted, out.overlap_sq))
        if collect_details:
            details.append({"trial": t, "sigma": sigma, "accepted": out.accepted,
                            "overlap_sq": out.overlap_sq})
    mode_label = mode.value if scheme is Scheme.CHAINED_CU else "-"
    return _aggregate(scheme.value, mode_label, sigma_class, trials, outcomes,
                      details=details if collect_details else None)


# -- impersonation ------------------------------------------------------------------

KNOWLEDGE_LEVELS = ("none", "key", "key-and-lambda")

# Key guesses drawn at once at the ``none`` level. Draws are chunk-invariant,
# so this bounds memory and leaves the stream as it is.
_GUESS_CHUNK = 512


def _key_guesses(n: int, trials: int, rng: np.random.Generator) -> Iterator[int]:
    """The ``none`` level's key guesses as n-bit ints: guess t is bits
    [t*n, (t+1)*n) of ``keys.random_bits(trials * n, rng)``, read MSB first."""
    weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    for start in range(0, trials, _GUESS_CHUNK):
        count = min(_GUESS_CHUNK, trials - start)
        # The draws random_bits makes; the chunk's list is gone before the next draw.
        yield from (rng.integers(0, 2, size=count * n).reshape(count, n) @ weights).tolist()


def impersonation_attempt(n: int, trials: int, seed: int,
                          knowledge: str = "none",
                          collect_details: bool = False) -> AttackReport:
    """Forge without being the signer, at a configurable knowledge level.

    ``none``: guess the identity key; the hash gate is checked classically
    and the expensive state compare runs only for guesses that pass it.
    ``key``: the true identity key but self-chosen signing angles.
    ``key-and-lambda``: everything the signer knows (reduces to honest).
    """
    if n < 1:
        raise ConfigError(f"impersonation needs n >= 1, got {n}")
    if knowledge not in KNOWLEDGE_LEVELS:
        raise ConfigError(
            f"unknown knowledge level {knowledge!r}; expected {KNOWLEDGE_LEVELS}"
        )
    if trials < 1:
        raise ConfigError(f"trials must be positive, got {trials}")
    _check_seed(seed)
    deliveries, ctx = _registration(
        n, Scheme.CHAINED_CU, EulerMode.DIAGONAL, np.random.default_rng([seed, 0]))
    true_key, blind_key = deliveries["identity-key"], deliveries["blind-key"]

    # Only verifications are recorded: a hash-gate rejection leaves no record
    # unless details are asked for, and the report counts it as a trial.
    outcomes: list[tuple[bool, float | None]] = []
    details: list[dict[str, Any]] = []

    def verify(t: int, pkg: SignaturePackage) -> None:
        out = _verdict(deliveries, ctx, pkg)
        outcomes.append((out.accepted, out.overlap_sq))
        if collect_details:
            details.append({"trial": t, "hash_pass": True, "accepted": out.accepted,
                            "overlap_sq": out.overlap_sq})

    if knowledge == "none":
        # protocol.forward_package plus the arbiter's tag check, done on ints:
        # H(H(g) xor B) against H(H(K) xor B). Only a passing guess is verified.
        tag = keys._tagger(n, n)
        blind = int(blind_key, 2)
        target = tag(tag(int(true_key, 2)) ^ blind)
        guesses = _key_guesses(n, trials, np.random.default_rng([seed, 1]))
        for t, guess in enumerate(guesses):
            inner = tag(guess)
            if tag(inner ^ blind) != target:
                if collect_details:
                    details.append({"trial": t, "hash_pass": False, "accepted": False})
                continue
            pass_rng = np.random.default_rng([seed, 2, t])
            verify(t, SignaturePackage(
                message=MessageSpec.random_product(n, pass_rng).prepare(),
                signature=MessageSpec.random_product(n, pass_rng).prepare(),
                tag=format(inner, f"0{n}b"),
            ))
    else:
        for t in range(trials):
            # Knowledge of the key (and possibly the angles): a real signature.
            trial_rng = np.random.default_rng([seed, 1, t])
            message = MessageSpec.random_product(n, trial_rng).prepare()
            signer_ctx = ctx
            if knowledge == "key":
                # The true key under self-chosen angles, drawn from the trial's stream.
                signer_ctx = protocol.build_cipher(
                    n, ctx.scheme, ctx.euler_mode, deliveries.__getitem__, trial_rng)
            verify(t, protocol.sign_package(message, signer_ctx, true_key))

    return _aggregate(
        Scheme.CHAINED_CU.value, EulerMode.DIAGONAL.value,
        f"impersonation-{knowledge}", trials, outcomes,
        hash_pass_count=len(outcomes),
        details=details if collect_details else None,
    )


# -- in-transit tampering --------------------------------------------------------------

def tamper_in_transit(config: RunConfig, tamper: TamperSpec) -> VerificationOutcome:
    """Run the protocol with the given in-transit modification injected."""
    tampered = dc_replace(config, tamper=tamper)
    return run_protocol(tampered, sample_histogram=False).outcome
