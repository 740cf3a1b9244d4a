"""Circuit accounting and histogram comparison.

Two depth conventions are reported side by side:

* sequential -- every two-qubit chain step is its own layer; a contiguous
  block of same-named single-qubit gates on distinct qubits is one layer,
* asap       -- greedy per-qubit dependency scheduling; a gate starts on the
  earliest layer where all its qubits are free.

The asap depth can be smaller because chain steps on disjoint qubit pairs
overlap.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .errors import ConfigError
from .qstate import OpList, ShotHistogram, StateVector

# Canonical class order for the signing pipeline; extra classes sort after.
GATE_CLASSES = ("initialize", "cu", "u", "u_adjoint", "cu_adjoint", "measure")


@dataclass(frozen=True)
class GateCountReport:
    counts: dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @staticmethod
    def from_ops(ops: OpList) -> "GateCountReport":
        counts: dict[str, int] = {}
        for name, _ in ops:
            counts[name] = counts.get(name, 0) + 1
        ordered = {name: counts[name] for name in GATE_CLASSES if name in counts}
        for name in sorted(counts):
            if name not in ordered:
                ordered[name] = counts[name]
        return GateCountReport(counts=ordered)

    def to_json_dict(self) -> dict[str, Any]:
        return {"counts": dict(self.counts), "total": self.total}


@dataclass(frozen=True)
class DepthReport:
    sequential_depth: int
    asap_depth: int

    def __post_init__(self) -> None:
        if self.asap_depth > self.sequential_depth:
            raise ConfigError(
                f"asap depth {self.asap_depth} exceeds sequential "
                f"{self.sequential_depth}"
            )

    @staticmethod
    def from_ops(ops: OpList) -> "DepthReport":
        return DepthReport(
            sequential_depth=sequential_depth(ops), asap_depth=asap_depth(ops)
        )

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "sequential_depth": self.sequential_depth,
            "asap_depth": self.asap_depth,
        }


def sequential_depth(ops: OpList) -> int:
    depth = 0
    block_name: str | None = None
    block_qubits: set[int] = set()
    for name, qubits in ops:
        if len(qubits) == 1:
            q = qubits[0]
            if name == block_name and q not in block_qubits:
                block_qubits.add(q)
                continue
            depth += 1
            block_name = name
            block_qubits = {q}
        else:
            depth += 1
            block_name = None
            block_qubits = set()
    return depth


def asap_depth(ops: OpList) -> int:
    ready: dict[int, int] = {}
    depth = 0
    for _, qubits in ops:
        layer = 1 + max((ready.get(q, 0) for q in qubits), default=0)
        for q in qubits:
            ready[q] = layer
        depth = max(depth, layer)
    return depth


def circuit_report_json(ops: OpList) -> str:
    gate = GateCountReport.from_ops(ops)
    depth = DepthReport.from_ops(ops)
    return json.dumps(
        {"gate_counts": gate.to_json_dict(), "depth": depth.to_json_dict()},
        sort_keys=True, separators=(",", ":"),
    )


# -- distribution/histogram comparison ------------------------------------------------

def _as_prob_map(dist: Any) -> tuple[int, dict[str, float]]:
    """Normalize a comparison operand to (qubit count, label -> probability)."""
    if isinstance(dist, ShotHistogram):
        return dist.n, {
            label: count / dist.shots for label, count in dist.counts.items()
        }
    if isinstance(dist, StateVector):
        dist = np.abs(np.asarray(dist.amps)) ** 2
    arr = np.asarray(dist, dtype=float)
    if arr.ndim != 1 or arr.size < 2 or arr.size & (arr.size - 1):
        raise ConfigError(
            f"distribution length {arr.size} is not a power of two"
        )
    n = arr.size.bit_length() - 1
    total = float(arr.sum())
    if total <= 0:
        raise ConfigError("distribution has no mass")
    return n, {
        format(i, f"0{n}b"): float(p) / total for i, p in enumerate(arr) if p > 0
    }


def compare_histograms(a: Any, b: Any) -> float:
    """Total variation distance between two outcome distributions, in [0, 1].

    Operands may be ShotHistograms, probability arrays, or StateVectors.
    """
    na, pa = _as_prob_map(a)
    nb, pb = _as_prob_map(b)
    if na != nb:
        raise ConfigError(
            f"cannot compare distributions over {na} and {nb} qubits"
        )
    # fsum rounds once, so the result does not depend on the order in which
    # the label set iterates, which varies with the string hash seed.
    labels = set(pa) | set(pb)
    return 0.5 * math.fsum(abs(pa.get(k, 0.0) - pb.get(k, 0.0)) for k in labels)


def distribution_to_csv(probs: np.ndarray) -> str:
    """CSV with one row per basis label: ``basis_label,probability``."""
    arr = np.asarray(probs, dtype=float)
    n = arr.size.bit_length() - 1
    if arr.size != 2 ** n:
        raise ConfigError(
            f"distribution length {arr.size} is not a power of two"
        )
    lines = ["basis_label,probability"]
    for i, p in enumerate(arr):
        lines.append(f"{format(i, f'0{n}b')},{p:.17g}")
    return "\n".join(lines) + "\n"
