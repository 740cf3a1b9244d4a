"""Executable adversary models: Pauli forgeries, impersonation, in-transit tampering.

Every sweep is deterministic per seed: trial t of row r draws its randomness
from ``default_rng([seed, r, t])``, so reports reproduce bit-exactly and
trials stay independent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace as dc_replace
from typing import Any

import numpy as np

from . import cipher, gates, keys, qstate
from .cipher import EulerMode, Scheme
from .errors import ConfigError
from .protocol import (
    SIGNER,
    VERIFIER,
    MessageSpec,
    ProtocolSession,
    RunConfig,
    SignaturePackage,
    TamperSpec,
    VerificationOutcome,
    _check_seed,
    run_protocol,
)
from .qstate import StateVector

PAULI_LETTERS = "IXYZ"

SIGMA_CLASSES = ("diagonal", "xy", "random")


def apply_pauli_string(state: StateVector, sigma: str) -> StateVector:
    """Apply one Pauli letter per qubit; 'I' entries are skipped."""
    if len(sigma) != state.n:
        raise ConfigError(
            f"pauli string length {len(sigma)} != register size {state.n}"
        )
    for q, letter in enumerate(sigma.upper()):
        if letter == "I":
            continue
        state = qstate.apply_single(state, q, gates.pauli(letter))
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

    def to_json_dict(self, verbose: bool = False) -> dict[str, Any]:
        out: dict[str, Any] = {
            "scheme": self.scheme,
            "euler_mode": self.euler_mode,
            "sigma_class": self.sigma_class,
            "trials": self.trials,
            "accept_count": self.accept_count,
            "accept_rate": self.accept_rate,
            "mean_overlap_sq": self.mean_overlap_sq,
            "min_overlap_sq": self.min_overlap_sq,
            "max_overlap_sq": self.max_overlap_sq,
            "hash_pass_count": self.hash_pass_count,
        }
        if verbose and self.details is not None:
            out["details"] = list(self.details)
        return out


def reports_to_csv(reports: list[AttackReport]) -> str:
    lines = [ATTACK_CSV_HEADER]
    lines.extend(r.csv_row() for r in reports)
    return "\n".join(lines) + "\n"


def reports_to_json(reports: list[AttackReport], verbose: bool = False) -> str:
    return json.dumps(
        [r.to_json_dict(verbose) for r in reports],
        sort_keys=True, separators=(",", ":"),
    )


def _aggregate(scheme: str, euler_mode: str, sigma_class: str,
               outcomes: list[tuple[bool, float | None]],
               hash_pass_count: int | None = None,
               details: list[dict[str, Any]] | None = None) -> AttackReport:
    overlaps = [ov for _, ov in outcomes if ov is not None]
    return AttackReport(
        scheme=scheme,
        euler_mode=euler_mode,
        sigma_class=sigma_class,
        trials=len(outcomes),
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
    return session.sign(SIGNER.index, session.config.message.prepare())


def pauli_forgery(session: ProtocolSession, pkg: SignaturePackage,
                  sigma: str) -> VerificationOutcome:
    """Hit message and signature with the same Pauli string, reusing the tag.

    The identity tag binds the signer, not the message, so the forged pair
    sails through the hash gate; the state compare is the only obstacle.
    """
    forged = SignaturePackage(
        signer=pkg.signer,
        message=apply_pauli_string(pkg.message, sigma),
        signature=apply_pauli_string(pkg.signature, sigma),
        tag=pkg.tag,
    )
    fwd = session.verifier_forward(forged)
    return session.kgc_verify(fwd)


def _fresh_session(n: int, scheme: Scheme, euler_mode: EulerMode,
                   rng: np.random.Generator,
                   message: MessageSpec | None = None) -> ProtocolSession:
    seeds = rng.integers(0, 2 ** 31, size=3)
    config = RunConfig(
        n=n,
        message=message if message is not None else MessageSpec.random_product(n, rng),
        scheme=scheme,
        euler_mode=euler_mode if scheme is Scheme.CHAINED_CU else EulerMode.DIAGONAL,
        seed_keys=int(seeds[0]),
        seed_lambda=int(seeds[1]),
        seed_shots=int(seeds[2]),
    )
    session = ProtocolSession(config)
    session.setup()
    session.register_lambda(SIGNER.index)
    return session


_SWEEP_ROWS: tuple[tuple[Scheme, EulerMode], ...] = (
    (Scheme.QOTP, EulerMode.DIAGONAL),
    (Scheme.CHAINED_CNOT, EulerMode.DIAGONAL),
    (Scheme.CHAINED_CU, EulerMode.DIAGONAL),
    (Scheme.CHAINED_CU, EulerMode.GENERAL),
)


def forgery_sweep(n: int, trials: int, seed: int,
                  collect_details: bool = False) -> list[AttackReport]:
    """Forgery statistics for every scheme row and sigma class."""
    if n < 2:
        raise ConfigError(f"sweep needs n >= 2, got {n}")
    if trials < 1:
        raise ConfigError(f"trials must be positive, got {trials}")
    _check_seed(seed)
    reports = []
    for row, (scheme, mode) in enumerate(_SWEEP_ROWS):
        mode_label = mode.value if scheme is Scheme.CHAINED_CU else "-"
        for cls_index, sigma_class in enumerate(SIGMA_CLASSES):
            outcomes: list[tuple[bool, float | None]] = []
            details: list[dict[str, Any]] = []
            for t in range(trials):
                rng = np.random.default_rng([seed, row, cls_index, t])
                session = _fresh_session(n, scheme, mode, rng)
                pkg = honest_package(session)
                sigma = random_pauli_string(n, rng, sigma_class)
                out = pauli_forgery(session, pkg, sigma)
                outcomes.append((out.accepted, out.overlap_sq))
                if collect_details:
                    details.append(
                        {"trial": t, "sigma": sigma, "accepted": out.accepted,
                         "overlap_sq": out.overlap_sq}
                    )
            reports.append(
                _aggregate(scheme.value, mode_label, sigma_class, outcomes,
                           details=details if collect_details else None)
            )
    return reports


# -- impersonation ------------------------------------------------------------------

KNOWLEDGE_LEVELS = ("none", "key", "key-and-lambda")


def impersonation_attempt(n: int, trials: int, seed: int,
                          knowledge: str = "none",
                          collect_details: bool = False) -> AttackReport:
    """Forge without being the signer, at a configurable knowledge level.

    ``none``: guess the identity key; the hash gate is checked classically
    and the expensive state compare runs only for guesses that pass it.
    ``key``: the true identity key but self-chosen signing angles.
    ``key-and-lambda``: everything the signer knows (reduces to honest).
    """
    if knowledge not in KNOWLEDGE_LEVELS:
        raise ConfigError(
            f"unknown knowledge level {knowledge!r}; expected {KNOWLEDGE_LEVELS}"
        )
    if trials < 1:
        raise ConfigError(f"trials must be positive, got {trials}")
    _check_seed(seed)
    rng = np.random.default_rng([seed, 0])
    session = _fresh_session(n, Scheme.CHAINED_CU, EulerMode.DIAGONAL, rng)
    true_key = session.ledger.lookup(SIGNER.label, "identity-key")
    blind_key = session.ledger.lookup(VERIFIER.label, "blind-key")
    target_tag = keys.chained_tag(true_key, blind_key)

    outcomes: list[tuple[bool, float | None]] = []
    details: list[dict[str, Any]] = []
    hash_passes = 0
    for t in range(trials):
        trial_rng = np.random.default_rng([seed, 1, t])
        if knowledge == "none":
            guess_tag = keys.tag_of_bits(keys.random_bits(n, trial_rng))
            blinded = keys.tag_of_bits(keys.xor_bits(guess_tag, blind_key))
            if blinded != target_tag:
                outcomes.append((False, None))
                if collect_details:
                    details.append(
                        {"trial": t, "hash_pass": False, "accepted": False}
                    )
                continue
            pkg = SignaturePackage(
                signer=SIGNER,
                message=MessageSpec.random_product(n, trial_rng).prepare(),
                signature=MessageSpec.random_product(n, trial_rng).prepare(),
                tag=guess_tag,
            )
        else:
            # Knowledge of the key (and possibly the angles): a real signature.
            message = MessageSpec.random_product(n, trial_rng).prepare()
            ctx = session.context_for(SIGNER.index)
            if knowledge == "key":
                ctx = dc_replace(ctx, lambdas=keys.sample_lambda(n, trial_rng))
            pkg = SignaturePackage(
                signer=SIGNER,
                message=message,
                signature=cipher.make_signature(message, ctx),
                tag=keys.tag_of_bits(true_key),
            )
        hash_passes += 1
        out = session.kgc_verify(session.verifier_forward(pkg))
        outcomes.append((out.accepted, out.overlap_sq))
        if collect_details:
            details.append(
                {"trial": t, "hash_pass": True, "accepted": out.accepted,
                 "overlap_sq": out.overlap_sq}
            )

    return _aggregate(
        Scheme.CHAINED_CU.value, EulerMode.DIAGONAL.value,
        f"impersonation-{knowledge}", outcomes,
        hash_pass_count=hash_passes,
        details=details if collect_details else None,
    )


# -- in-transit tampering --------------------------------------------------------------

def tamper_in_transit(config: RunConfig, tamper: TamperSpec) -> VerificationOutcome:
    """Run the protocol with the given in-transit modification injected."""
    tampered = dc_replace(config, tamper=tamper)
    return run_protocol(tampered, sample_histogram=False).outcome
