"""SHA-256 digests over the outputs of fixed protocol runs, attacks and CLI calls.

Run it on two checkouts to check that a change leaves every output
byte-identical: equal digests mean equal outputs. It imports ``aqs`` from the
``src`` directory next to this script, so each checkout measures itself:

    python tools/output_digest.py

It prints five digests, each chunk hashed behind its 8-byte length. The first
covers two groups of library outputs:

* every :func:`aqs.run_protocol` run over four scheme rows, both wirings,
  both verify modes, four tamper cases, a classical and a product message,
  and n = 4 and 7: the transcript JSON with and without secrets, the gate
  events, the circuit report, the recovered amplitude bytes, the histogram
  CSV and the stored proof;
* ``forgery_sweep(n=3, trials=20, seed=11, collect_details=True)``,
  ``impersonation_attempt(4, 300, 5)`` at every knowledge level and
  ``impersonation_attempt(4, 1300, 6)`` at the ``none`` level, whose key
  guesses span three chunks of the guess stream, as report JSON with details.

The second covers the command line: the exit code, the stdout and every file
written under ``--out`` for each call in :data:`CLI_CALLS`, which span all four
subcommands and all three attack modes. Among them are ``report`` calls at
n = 10 for every scheme row and both wirings, and a sweep that selects one
scheme row and one sigma class.

The third covers the key layer and state fingerprints on fixed inputs:
``tag_of_bits`` at several output lengths, ``pack_bits``, ``xor_bits``, seeded
``random_bits`` and ``derive_permutation`` over bit strings of length 1 to 70,
and the transcript fingerprint of states with -0.0 entries, each taken twice so
that a value kept from the first call is hashed too.

The fourth covers the same outputs as the first, with the recovered amplitudes
folded by ``+ 0.0``, which turns every -0.0 into 0.0 and leaves all other bytes
alone. A change that moves only the sign of exact zeros in those amplitudes
changes the first line and keeps the fourth.

The fifth covers runs at the benchmark's sizes, which the first stops short
of: the three ``protocol-n16`` configurations at n = 16 (general mode with
relay wiring, diagonal mode with direct wiring, and general relay with an X
on qubit 0 of the message in transit), where the local layer fills four
4-qubit blocks, and the ``sampled-verify`` configuration at n = 10 (general,
relay, sampled swap test), honest and tampered, each on three seeds with
1,024-shot histograms. It hashes the transcript JSON, the recovered amplitude
bytes and the histogram CSV of each run. It also covers the ``impersonation``
workload's size: ``impersonation_attempt(16, 10**4, seed, collect_details=True)``
for each seed in :data:`IMPERSONATION_SEEDS`, as report JSON with details.
Seed 0's guesses all fail the hash gate; one of seed 7's passes it. Last comes
the ``forgery-sweep`` workload's size: ``forgery_sweep(4, 100, seed,
collect_details=True)`` for each seed in :data:`FORGERY_SEEDS`, as report JSON.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from aqs import attacks, cli, keys, protocol, reports  # noqa: E402
from aqs.cipher import EulerMode, Scheme  # noqa: E402
from aqs.protocol import MessageSpec, RunConfig, TamperSpec, run_protocol  # noqa: E402
from aqs.qstate import StateVector, basis_state  # noqa: E402

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


def protocol_outputs(fold_zero_signs: bool = False):
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
            if recovered is None:
                yield b"-"
            else:
                amps = recovered.amps + 0.0 if fold_zero_signs else recovered.amps
                yield amps.tobytes()
            yield b"-" if result.histogram is None else result.histogram.to_csv().encode()
            proof = result.proof
            yield b"-" if proof is None else json.dumps(
                [proof.signer, list(proof.lambdas), proof.tag]).encode()


# (n, euler mode, wiring, verify mode, X tamper on qubit 0) of the bench-sized runs.
BENCH_CASES = (
    (16, "general", "relay", "exact", False),
    (16, "diagonal", "direct", "exact", False),
    (16, "general", "relay", "exact", True),
    (10, "general", "relay", "sampled", False),
    (10, "general", "relay", "sampled", True),
)


IMPERSONATION_SEEDS = (0, 7)
FORGERY_SEEDS = (0, 1)


def bench_size_outputs():
    for i, (n, mode, wiring, verify, x_tamper) in enumerate(BENCH_CASES):
        for seed in range(3):
            tamper = None
            if x_tamper:
                tamper = TamperSpec("signer-verifier", message_pauli="X" + "I" * (n - 1))
            config = RunConfig(
                n=n, message=MessageSpec.random_product(n, np.random.default_rng([i, seed])),
                scheme=Scheme.CHAINED_CU, euler_mode=mode, wiring=wiring,
                verify_mode=verify, seed_keys=10 * i + seed, seed_lambda=100 + 10 * i + seed,
                seed_shots=200 + 10 * i + seed, tamper=tamper,
            )
            result = run_protocol(config)
            yield result.transcript.to_json().encode()
            yield result.recovered_state.amps.tobytes()
            yield result.histogram.to_csv().encode()
    for seed in IMPERSONATION_SEEDS:
        report = attacks.impersonation_attempt(16, 10**4, seed, collect_details=True)
        yield attacks.reports_to_json([report]).encode()
    for seed in FORGERY_SEEDS:
        sweep = attacks.forgery_sweep(4, 100, seed, collect_details=True)
        yield attacks.reports_to_json(sweep).encode()


def attack_outputs():
    sweep = attacks.forgery_sweep(n=3, trials=20, seed=11, collect_details=True)
    yield attacks.reports_to_json(sweep).encode()
    for knowledge in attacks.KNOWLEDGE_LEVELS:
        report = attacks.impersonation_attempt(
            4, 300, 5, knowledge=knowledge, collect_details=True)
        yield attacks.reports_to_json([report]).encode()
    report = attacks.impersonation_attempt(4, 1300, 6, collect_details=True)
    yield attacks.reports_to_json([report]).encode()


# ``{out}`` is a fresh output directory per call, ``{csv}`` holds COMPARE_CSV.
# --compare runs only on a basis-state message, whose exact distribution and
# the CSV's dyadic frequencies make every TV term exact, so the sum does not
# depend on the order of its terms.
CLI_CALLS = (
    ("demo", "--out", "{out}"),
    ("demo", "--seed-shots", "3", "--shots", "512", "--reveal-secrets",
     "--out", "{out}"),
    ("run", "--qubits", "5", "--euler-mode", "general", "--message", "01101",
     "--wiring", "direct", "--seed-keys", "2", "--seed-lambda", "3",
     "--seed-shots", "4", "--shots", "300", "--reveal-secrets", "--expect-accept",
     "--out", "{out}"),
    ("run", "--scheme", "qotp", "--seed-message", "5", "--out", "{out}"),
    ("run", "--scheme", "cnot", "--message", "0110", "--compare", "{csv}",
     "--out", "{out}"),
    ("report", "--qubits", "5", "--euler-mode", "general", "--message", "10110",
     "--out", "{out}"),
    ("report", "--scheme", "cnot", "--message", "0110", "--compare", "{csv}",
     "--out", "{out}"),
    ("report", "--qubits", "10", "--scheme", "qotp", "--seed-keys", "3", "--out", "{out}"),
    ("report", "--qubits", "10", "--scheme", "cnot", "--seed-keys", "4", "--out", "{out}"),
    ("report", "--qubits", "10", "--wiring", "direct", "--seed-keys", "5",
     "--message", "0110100111", "--out", "{out}"),
    ("report", "--qubits", "10", "--euler-mode", "general", "--seed-keys", "6",
     "--seed-lambda", "7", "--out", "{out}"),
    ("attack", "--sweep", "pauli", "--qubits", "3", "--trials", "5", "--seed", "2",
     "--verbose", "--out", "{out}"),
    ("attack", "--sweep", "pauli", "--qubits", "3", "--trials", "5",
     "--scheme", "qotp", "--class", "xy", "--out", "{out}"),
    ("attack", "--sweep", "pauli", "--qubits", "4", "--trials", "5", "--seed", "3",
     "--scheme", "cnot", "--class", "diagonal", "--verbose", "--out", "{out}"),
    ("attack", "--impersonate", "key", "--trials", "20", "--seed", "1",
     "--verbose", "--out", "{out}"),
    ("attack", "--impersonate", "none", "--qubits", "6", "--trials", "50",
     "--out", "{out}"),
    ("attack", "--tamper", "tag-flip", "--out", "{out}"),
    ("attack", "--tamper", "message-x", "--tamper-channel", "signer-verifier",
     "--message", "0110", "--euler-mode", "general", "--seed-keys", "9",
     "--out", "{out}"),
)
COMPARE_CSV = "basis_label,count\n0110,700\n1001,300\n1111,24\n"


def cli_outputs():
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "compare.csv"
        csv.write_text(COMPARE_CSV)
        for i, call in enumerate(CLI_CALLS):
            out_dir = Path(tmp) / f"out{i}"
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main([a.format(out=out_dir, csv=csv) for a in call])
            yield f"{code}\n{stdout.getvalue()}".encode()
            for path in sorted(out_dir.iterdir()):
                yield path.name.encode()
                yield path.read_bytes()


KEY_LENGTHS = (1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 70)


def key_outputs():
    rng = np.random.default_rng(20)
    for length in KEY_LENGTHS:
        bits = keys.random_bits(length, rng)
        other = keys.random_bits(length, rng)
        yield f"{bits} {other}".encode()
        yield keys.pack_bits(bits)
        yield keys.xor_bits(bits, other).encode()
        yield json.dumps(keys.derive_permutation(bits)).encode()
        for out_bits in (None, 1, 5, 8, 9, 3 * length + 1):
            yield keys.tag_of_bits(bits, out_bits).encode()
    half = 2 ** -0.5
    states = (
        basis_state(3, 5),
        StateVector(2, np.array([-0.0, complex(half, -0.0), complex(-0.0, -half), 0.0])),
        StateVector(1, np.array([complex(-0.0, 1.0), complex(0.0, -0.0)])),
        MessageSpec.random_product(4, np.random.default_rng(3)).prepare(),
    )
    for state in states:
        for _ in range(2):
            yield protocol._fingerprint(state).encode()


def digest_of(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(len(chunk).to_bytes(8, "little"))
        digest.update(chunk)
    return digest.hexdigest()


def main() -> None:
    print(digest_of(itertools.chain(protocol_outputs(), attack_outputs())),
          "runs and attacks")
    print(digest_of(cli_outputs()), "cli")
    print(digest_of(key_outputs()), "keys and fingerprints")
    print(digest_of(itertools.chain(protocol_outputs(fold_zero_signs=True),
                                    attack_outputs())),
          "runs and attacks, zero signs folded")
    print(digest_of(bench_size_outputs()), "bench-sized runs")


if __name__ == "__main__":
    main()
