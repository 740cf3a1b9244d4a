"""The four benchmark workloads: their inputs, their calls and their checks.

A *call* is one call into a workload's entry point; a *trial* is one decided
accept/reject outcome. Call i of a run draws its inputs from
``default_rng([seed, workload salt, 1, i])`` and the warm-up call from
``default_rng([seed, workload salt, 0])``, so a seed fixes every input and
a longer run only extends the same sequence.

Calls are grouped into *rounds*: a round is a fixed multiset of call kinds,
and a run times whole rounds only. Each checker returns a list of problems;
an empty list means the output passed. Checks compare against
:mod:`reference` or against properties the method must have, never against
stored output.
"""

from __future__ import annotations

import json
import math
import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from aqs import attacks, keys, protocol
from aqs.protocol import MessageSpec, RunConfig, TamperSpec

import reference

ACCEPT = 1.0 - 1e-9
SIGMA_CLASSES = ("diagonal", "xy", "random")
SWEEP_ROWS = (("qotp", "diagonal"), ("cnot", "diagonal"),
              ("cu", "diagonal"), ("cu", "general"))


@dataclass(frozen=True)
class Call:
    index: int
    kind: str
    trials: int
    inputs: dict[str, Any] = field(repr=False)


def bloch_pairs(n: int, rng: np.random.Generator) -> tuple[tuple[complex, complex], ...]:
    """Per-qubit states uniform on the Bloch sphere."""
    theta = np.arccos(1.0 - 2.0 * rng.uniform(size=n))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return tuple((complex(math.cos(t / 2)), complex(math.cos(p), math.sin(p)) * math.sin(t / 2))
                 for t, p in zip(theta, phi))


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2 ** 31, size=count)]


class Workload:
    name = ""
    round: tuple[str, ...] = ()
    # How strongly call times follow the host speed probe (see hostspeed.py).
    host_exponent = 1.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.salt = zlib.crc32(self.name.encode())

    def warmup_call(self) -> Call:
        return self.make_call(-1, np.random.default_rng([self.seed, self.salt, 0]))

    def call(self, index: int) -> Call:
        return self.make_call(index, np.random.default_rng([self.seed, self.salt, 1, index]))

    def make_call(self, index: int, rng: np.random.Generator) -> Call:
        raise NotImplementedError

    def run(self, call: Call) -> Any:
        raise NotImplementedError

    def slot(self, call: Call, output: Any) -> str:
        """Which round slot a finished call fills; by default its input kind."""
        return call.kind

    def check(self, call: Call, output: Any) -> list[str]:
        """Problems with one output; may also tally it for :meth:`check_run`."""
        raise NotImplementedError

    def check_run(self) -> list[str]:
        """Checks over all calls of a run, for properties no single call shows."""
        return []


# -- protocol runs ------------------------------------------------------------------

def protocol_config(call: Call, n: int, verify_mode: str) -> RunConfig:
    inp = call.inputs
    tamper = None
    if inp["tamper"]:
        tamper = TamperSpec(channel="signer-verifier", message_pauli="X" + "I" * (n - 1))
    return RunConfig(
        n=n, message=MessageSpec.product(inp["pairs"]), scheme="cu",
        euler_mode=inp["euler_mode"], wiring=inp["wiring"], verify_mode=verify_mode,
        seed_keys=inp["seeds"][0], seed_lambda=inp["seeds"][1],
        seed_shots=inp["seeds"][2], tamper=tamper,
    )


def identity_key(transcript) -> str:
    for event in transcript.events:
        if (event["type"] == "delivery" and event["to"] == "signer_1"
                and event["payload"]["purpose"] == "identity-key"):
            return event["payload"]["bits"]
    raise LookupError("no identity-key delivery in the transcript")


def check_protocol_result(call: Call, result, n: int) -> list[str]:
    """Checks every protocol run shares, exact or sampled verification."""
    problems = []
    pairs = call.inputs["pairs"]
    expected = reference.product_state(pairs)
    if np.max(np.abs(result.message_state.amps - expected)) > 1e-12:
        problems.append("message state differs from the product of its qubits")
    outcome = result.outcome
    if outcome.stage != "state-compare" or result.recovered_state is None:
        return problems + [f"run stopped at stage {outcome.stage!r}"]
    if np.max(np.abs(result.recovered_state.amps - expected)) > 1e-10:
        problems.append("recovered state differs from the message by more than 1e-10")
    if call.inputs["tamper"]:
        want = reference.x_tamper_overlap(*pairs[0])
        if abs(outcome.overlap_sq - want) > 1e-9:
            problems.append(f"tampered overlap {outcome.overlap_sq!r}, expected {want!r}")
    elif outcome.overlap_sq < ACCEPT:
        problems.append(f"honest overlap {outcome.overlap_sq!r} below {ACCEPT}")

    perm = reference.key_permutation(identity_key(result.transcript))
    moved = [(j, t) for j, t in enumerate(perm) if t != j]
    counts = Counter(name for name, _ in result.ops)
    want_counts = Counter({"initialize": n, "u": n, "u_adjoint": n, "measure": n,
                           "cu": len(moved), "cu_adjoint": len(moved)})
    if counts != +want_counts:
        problems.append(f"gate counts {dict(counts)}, expected {dict(+want_counts)}")
    pairs_used = {q for name, q in result.ops if name in ("cu", "cu_adjoint")}
    if pairs_used != set(moved):
        problems.append("controlled gates do not follow the key permutation")

    hist = result.histogram
    shots = result.config.shots
    if hist is None or hist.shots != shots or sum(hist.counts.values()) != shots:
        return problems + ["histogram does not hold the configured shots"]
    for q, (_, beta) in enumerate(pairs):
        ones = sum(c for label, c in hist.counts.items() if label[q] == "1")
        p = abs(beta) ** 2
        if not reference.binomial_within(ones, shots * p, shots * p * (1 - p)):
            problems.append(f"qubit {q} marginal {ones}/{shots} far from p={p:.4g}")
    return problems


class ProtocolN16(Workload):
    """run_protocol at n = 16 plus the transcript's JSON, cycling three configs."""

    name = "protocol-n16"
    round = ("general-relay", "diagonal-direct", "general-relay-x")
    CONFIGS = {
        "general-relay": ("general", "relay", False),
        "diagonal-direct": ("diagonal", "direct", False),
        "general-relay-x": ("general", "relay", True),
    }

    def __init__(self, seed: int, n: int = 16) -> None:
        super().__init__(seed)
        self.n = n

    def make_call(self, index, rng):
        kind = self.round[max(index, 0) % len(self.round)]
        mode, wiring, tamper = self.CONFIGS[kind]
        inputs = {"pairs": bloch_pairs(self.n, rng), "seeds": _seeds(rng, 3),
                  "euler_mode": mode, "wiring": wiring, "tamper": tamper}
        return Call(index, kind, 1, inputs)

    def run(self, call):
        result = protocol.run_protocol(protocol_config(call, self.n, "exact"))
        return result, result.transcript.to_json()

    def check(self, call, output):
        result, text = output
        problems = check_protocol_result(call, result, self.n)
        accepted = result.outcome.accepted
        if accepted != (result.outcome.overlap_sq >= ACCEPT):
            problems.append("decision disagrees with the exact threshold")
        if not call.inputs["tamper"] and not accepted:
            problems.append("honest run rejected")
        if json.loads(text)["outcome"] != result.outcome.to_payload():
            problems.append("transcript JSON does not hold the run's outcome")
        return problems


class SampledVerify(Workload):
    """run_protocol with the finite-shot swap test at n = 10, honest then tampered."""

    name = "sampled-verify"
    round = ("honest", "tampered")
    # Mostly numpy passes over a 32 MiB state, which slow down less than the
    # probe when the host is busy; see "Noise" in README.md.
    host_exponent = 0.75

    def __init__(self, seed: int, n: int = 10) -> None:
        super().__init__(seed)
        self.n = n
        # Swap-test ancilla-1 counts over the run: observed, expected, variance.
        self.ones = self.mean = self.var = 0.0

    def make_call(self, index, rng):
        kind = self.round[max(index, 0) % len(self.round)]
        inputs = {"pairs": bloch_pairs(self.n, rng), "seeds": _seeds(rng, 3),
                  "euler_mode": "general", "wiring": "relay",
                  "tamper": kind == "tampered"}
        return Call(index, kind, 1, inputs)

    def run(self, call):
        return protocol.run_protocol(protocol_config(call, self.n, "sampled"))

    def check(self, call, output):
        problems = check_protocol_result(call, output, self.n)
        o = output.outcome
        if o.swap_ones is None or o.pass_probability is None:
            return problems + ["sampled outcome lacks swap-test fields"]
        if abs(o.pass_probability - (0.5 + 0.5 * o.overlap_sq)) > 1e-12:
            problems.append("pass_probability is not 1/2 + overlap/2")
        if not 0 <= o.swap_ones <= output.config.swap_shots:
            problems.append(f"swap_ones {o.swap_ones} outside 0..shots")
        if o.accepted != (o.swap_ones == 0):
            problems.append("decision disagrees with the ancilla counts")
        if not call.inputs["tamper"] and o.swap_ones != 0:
            problems.append(f"honest run has swap_ones={o.swap_ones}")
        p = (1.0 - o.overlap_sq) / 2.0
        shots = output.config.swap_shots
        self.ones += o.swap_ones
        self.mean += shots * p
        self.var += shots * p * (1 - p)
        return problems

    def check_run(self):
        if not reference.binomial_within(self.ones, self.mean, self.var):
            return [f"swap_ones total {self.ones:g} outside 5 sigma of {self.mean:.4g}"]
        return []


# -- attack sweeps ----------------------------------------------------------------------

def in_class(sigma: str, cls: str) -> bool:
    if cls == "diagonal":
        return set(sigma) <= {"I", "Z"} and "Z" in sigma
    if cls == "xy":
        return "X" in sigma or "Y" in sigma
    return set(sigma) <= set("IXYZ")


def _sigma(n: int, cls: str, rng: np.random.Generator) -> str:
    while True:
        s = "".join(rng.choice(list("IXYZ"), size=n))
        if in_class(s, cls):
            return s


def check_aggregates(report, details) -> list[str]:
    problems = []
    overlaps = [d["overlap_sq"] for d in details if d.get("overlap_sq") is not None]
    if report.trials != len(details):
        problems.append(f"trials {report.trials} != {len(details)} details")
    if report.accept_count != sum(d["accepted"] for d in details):
        problems.append("accept_count disagrees with the details")
    want = (float(np.mean(overlaps)), min(overlaps), max(overlaps)) if overlaps \
        else (None, None, None)
    got = (report.mean_overlap_sq, report.min_overlap_sq, report.max_overlap_sq)
    for label, g, w in zip(("mean", "min", "max"), got, want):
        if (g is None) != (w is None) or (w is not None and abs(g - w) > 1e-12):
            problems.append(f"{label} overlap {g!r} disagrees with details ({w!r})")
    return problems


class ForgerySweep(Workload):
    """attacks.forgery_sweep at n = 4: 4 scheme rows x 3 sigma classes."""

    name = "forgery-sweep"
    round = ("sweep",)

    def __init__(self, seed: int, n: int = 4, trials: int = 100) -> None:
        super().__init__(seed)
        self.n = n
        self.trials = trials

    def make_call(self, index, rng):
        draws = [(scheme, mode, cls, bloch_pairs(self.n, rng), _seeds(rng, 3),
                  _sigma(self.n, cls, rng))
                 for scheme, mode in SWEEP_ROWS for cls in SIGMA_CLASSES]
        inputs = {"seed": _seeds(rng, 1)[0], "draws": draws}
        return Call(index, "sweep", 12 * self.trials, inputs)

    def run(self, call):
        return attacks.forgery_sweep(self.n, self.trials, call.inputs["seed"],
                                     collect_details=True)

    def check(self, call, output):
        problems = []
        expected_rows = [(s, m if s == "cu" else "-", c)
                         for s, m in SWEEP_ROWS for c in SIGMA_CLASSES]
        rows = [(r.scheme, r.euler_mode, r.sigma_class) for r in output]
        if rows != expected_rows:
            return [f"sweep rows {rows} differ from {expected_rows}"]
        for report in output:
            tag = f"{report.scheme}/{report.euler_mode}/{report.sigma_class}"
            details = report.details or ()
            problems += [f"{tag}: {p}" for p in check_aggregates(report, details)]
            for t, d in enumerate(details):
                sigma, ov, acc = d["sigma"], d["overlap_sq"], d["accepted"]
                bad = []
                if d["trial"] != t or len(sigma) != self.n:
                    bad.append("trial index or sigma length wrong")
                if not in_class(sigma, report.sigma_class):
                    bad.append("sigma outside its class")
                if not 0.0 <= ov <= 1.0:
                    bad.append(f"overlap {ov!r} outside [0, 1]")
                if acc != (ov >= ACCEPT):
                    bad.append("decision disagrees with the exact threshold")
                if report.scheme == "qotp" and not acc:
                    bad.append("one-time-pad forgery rejected")
                if set(sigma) == {"I"} and not acc:
                    bad.append("identity string rejected")
                if (report.scheme, report.euler_mode) == ("cu", "diagonal") \
                        and set(sigma) <= {"I", "Z"} and not acc:
                    bad.append("Z-only forgery rejected by the diagonal instantiation")
                if report.scheme == "cu" and ("X" in sigma or "Y" in sigma) and acc:
                    bad.append("X/Y forgery accepted by cu")
                problems += [f"{tag} trial {t} ({sigma}): {b}" for b in bad]
        return problems + self.check_against_matrices(call)

    def check_against_matrices(self, call: Call) -> list[str]:
        """Forgeries drawn here through ProtocolSession against full-matrix overlaps."""
        problems = []
        for scheme, mode, cls, pairs, seeds, sigma in call.inputs["draws"]:
            config = RunConfig(n=self.n, message=MessageSpec.product(pairs),
                               scheme=scheme, euler_mode=mode, seed_keys=seeds[0],
                               seed_lambda=seeds[1], seed_shots=seeds[2])
            session = protocol.ProtocolSession(config)
            session.setup()
            session.register_lambda(1)
            out = attacks.pauli_forgery(session, attacks.honest_package(session), sigma)
            material: dict[str, Any] = {}
            for e in session.transcript.events:
                if e["type"] == "delivery" and e["to"] == "signer_1":
                    material[e["payload"]["purpose"]] = e["payload"]["bits"]
                elif e["type"] == "lambda-registration":
                    material.update(e["payload"])
            signing = reference.signature_operator(
                scheme, self.n, material["identity-key"],
                pad_bits=material.get("pad-key"), lambdas=material.get("lambdas"),
                thetas=material.get("thetas"), phis=material.get("phis"))
            want = reference.forgery_overlap(signing, reference.product_state(pairs), sigma)
            if out.overlap_sq is None or abs(out.overlap_sq - want) > 1e-9:
                problems.append(f"{scheme}/{mode} forgery {sigma}: overlap "
                                f"{out.overlap_sq!r}, full matrix gives {want!r}")
        return problems


class Impersonation(Workload):
    """attacks.impersonation_attempt at n = 16, 10^4 key guesses per call.

    A guess passes the hash gate about 3 times in 2^16 (a key match or a
    16-bit tag collision), so a call has no pass about 69% of the time and
    exactly one about 26%, and each pass costs a full n = 16 verification,
    more than the call's 10^4 guesses. Timing calls as they come would make
    the figures depend on how many passes a seed happens to draw. A round is
    therefore three calls with no pass and one with exactly one, near the
    2.7 : 1 ratio of the two; calls run in seed order, and a call that ends in
    no complete round (including every call with two or more passes) is run
    and checked but not timed.
    """

    name = "impersonation"
    round = ("no-pass", "no-pass", "no-pass", "one-pass")
    TAG_CHECKS = 4

    def __init__(self, seed: int, n: int = 16, trials: int = 10 ** 4) -> None:
        super().__init__(seed)
        self.n = n
        self.trials = trials

    def warmup_call(self):
        # A hundredth of a call: a hash-gate pass, which costs more than the
        # rest of set-up, then comes on about one seed in 200, so set-up time
        # does not depend on the seed.
        call = super().warmup_call()
        return Call(call.index, call.kind, self.trials // 100, call.inputs)

    def make_call(self, index, rng):
        lengths = rng.integers(1, 3 * self.n, size=self.TAG_CHECKS)
        bit_strings = ["".join(rng.choice(list("01"), size=int(k))) for k in lengths]
        inputs = {"seed": _seeds(rng, 1)[0], "bit_strings": bit_strings}
        return Call(index, "guesses", self.trials, inputs)

    def run(self, call):
        return attacks.impersonation_attempt(self.n, call.trials, call.inputs["seed"],
                                             knowledge="none", collect_details=True)

    def slot(self, call, output):
        return {0: "no-pass", 1: "one-pass"}.get(output.hash_pass_count, "other")

    def check(self, call, output):
        details = output.details or ()
        problems = check_aggregates(output, details)
        if output.accept_count != 0:
            problems.append(f"{output.accept_count} impersonations accepted")
        passes = [d for d in details if d["hash_pass"]]
        if output.hash_pass_count != len(passes):
            problems.append("hash_pass_count disagrees with the details")
        for t, d in enumerate(details):
            if d["trial"] != t or d["accepted"]:
                problems.append(f"trial {t}: wrong index or accepted")
            if not d["hash_pass"] and d.get("overlap_sq") is not None:
                problems.append(f"trial {t}: hash-gate rejection carries an overlap")
            if d["hash_pass"] and not 0.0 <= d["overlap_sq"] < ACCEPT:
                problems.append(f"trial {t}: overlap {d['overlap_sq']!r} not a rejection")
        for bits in call.inputs["bit_strings"]:
            for out_bits in (None, self.n):
                if keys.tag_of_bits(bits, out_bits) != reference.shake_tag(bits, out_bits):
                    problems.append(f"tag_of_bits({bits!r}, {out_bits}) differs from SHAKE-256")
        return problems


WORKLOADS = {w.name: w for w in (ProtocolN16, ForgerySweep, Impersonation, SampledVerify)}
