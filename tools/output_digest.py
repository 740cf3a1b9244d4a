"""One SHA-256 digest over the outputs of a fixed set of protocol runs and attacks.

Run it on two checkouts to check that a change leaves every output
byte-identical: equal digests mean equal outputs. It imports ``aqs`` from the
``src`` directory next to this script, so each checkout measures itself:

    python tools/output_digest.py

Two groups of outputs are hashed, each chunk behind its 8-byte length:

* every :func:`aqs.run_protocol` run over four scheme rows, both wirings,
  both verify modes, four tamper cases, a classical and a product message,
  and n = 4 and 7: the transcript JSON with and without secrets, the gate
  events, the circuit report, the recovered amplitude bytes, the histogram
  CSV and the stored proof;
* ``forgery_sweep(n=3, trials=20, seed=11, collect_details=True)`` and
  ``impersonation_attempt(4, 300, 5)`` at every knowledge level, as verbose
  report JSON.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from aqs import attacks, reports  # noqa: E402
from aqs.cipher import EulerMode, Scheme  # noqa: E402
from aqs.protocol import MessageSpec, RunConfig, TamperSpec, run_protocol  # noqa: E402

SCHEME_ROWS = (
    (Scheme.CHAINED_CU, EulerMode.DIAGONAL),
    (Scheme.CHAINED_CU, EulerMode.GENERAL),
    (Scheme.CHAINED_CNOT, EulerMode.DIAGONAL),
    (Scheme.QOTP, EulerMode.DIAGONAL),
)
WIRINGS = ("relay", "direct")
VERIFY_MODES = ("exact", "sampled")
SIZES = (4, 7)
CLASSICAL_BITS = {4: "1011", 7: "0110100"}


def tamper_cases(n: int) -> tuple[TamperSpec | None, ...]:
    """No tamper, two message Paulis and a tag flip; all valid in both wirings."""
    return (
        None,
        TamperSpec("signer-verifier", message_pauli="X" + "I" * (n - 1)),
        TamperSpec("signer-verifier", message_pauli="I" * (n - 1) + "Z"),
        TamperSpec("verifier-kgc", tag_flip_bit=n - 1),
    )


def messages(n: int) -> tuple[MessageSpec, ...]:
    return (
        MessageSpec.classical(CLASSICAL_BITS[n]),
        MessageSpec.random_product(n, np.random.default_rng(n)),
    )


def protocol_outputs():
    cases = itertools.product(SIZES, SCHEME_ROWS, WIRINGS, VERIFY_MODES)
    for i, (n, (scheme, mode), wiring, verify) in enumerate(cases):
        for j, (tamper, message) in enumerate(
                itertools.product(tamper_cases(n), messages(n))):
            seed = 8 * i + j
            config = RunConfig(
                n=n, message=message, scheme=scheme, euler_mode=mode,
                wiring=wiring, verify_mode=verify, seed_keys=seed,
                seed_lambda=seed + 1000, seed_shots=seed + 2000,
                shots=256, tamper=tamper,
            )
            result = run_protocol(config)
            yield result.transcript.to_json().encode()
            yield result.transcript.to_json(reveal_secrets=True).encode()
            yield json.dumps(result.ops).encode()
            yield reports.circuit_report_json(result.ops).encode()
            recovered = result.recovered_state
            yield b"-" if recovered is None else recovered.amps.tobytes()
            yield b"-" if result.histogram is None else result.histogram.to_csv().encode()
            proof = result.proof
            yield b"-" if proof is None else json.dumps(
                [proof.signer.label, list(proof.lambdas), proof.tag]).encode()


def attack_outputs():
    sweep = attacks.forgery_sweep(n=3, trials=20, seed=11, collect_details=True)
    yield attacks.reports_to_json(sweep, verbose=True).encode()
    for knowledge in attacks.KNOWLEDGE_LEVELS:
        report = attacks.impersonation_attempt(
            4, 300, 5, knowledge=knowledge, collect_details=True)
        yield attacks.reports_to_json([report], verbose=True).encode()


def main() -> None:
    digest = hashlib.sha256()
    for chunk in itertools.chain(protocol_outputs(), attack_outputs()):
        digest.update(len(chunk).to_bytes(8, "little"))
        digest.update(chunk)
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
