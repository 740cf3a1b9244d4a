"""Host speed sampled during timed work, to express times at a reference speed.

On a host whose cores are shared with other tenants, the same call can take
from 1x to 2x its quiet time, and that speed changes within seconds. So
while a call runs, a timer signal every ``PERIOD_S`` runs one part of a
fixed probe, the parts in turn, and records how long it took. The parts are
small-array numpy calls like those of the program's per-gate bookkeeping, a
copy of a 4 MiB array (past L2, as the program's n = 16 states and strings
go), and float formatting, JSON and SHA-256 as in state fingerprints; each
takes about 1 ms. The host's probe time is the geometric mean of the parts'
median times. The probes' own time is taken out of the call's time, and the
rest is scaled by ``(REFERENCE_S / probe time) ** exponent``: the time the
call would take on a host where the probe takes ``REFERENCE_S``. A busy host
stretches the call and the probes alike; a change to the program moves the
call and not the probes, which import nothing from ``aqs``.

``exponent`` is how strongly a workload's time follows the probe's, 1 for
work like the probe's. Each workload states its own (see workloads.py).
"""

from __future__ import annotations

import hashlib
import json
import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.025
# Typical probe time on the machine the README's figures come from.
REFERENCE_S = 0.0012

_GATE = np.exp(0.3j) * np.eye(4, dtype=complex)
_EYE = np.eye(4)
_STATE = np.full(16, 0.25, dtype=complex)
_SOURCE = np.random.default_rng(12345).standard_normal(1 << 19)
_TARGET = np.empty_like(_SOURCE)
_FLOATS = [math.sin(i) * 10.0 ** (i % 7 - 3) for i in range(800)]


def _small_arrays() -> None:
    for _ in range(12):
        np.allclose(_GATE @ _GATE.conj().T, _EYE)
        np.kron(_GATE[:2, :2], _GATE[:2, :2])
        state = _STATE * 1.0
        np.vdot(state, state)


def _memory() -> None:
    for _ in range(3):
        np.copyto(_TARGET, _SOURCE)


def _text() -> None:
    text = json.dumps([format(x, ".17g") for x in _FLOATS])
    hashlib.sha256(text.encode()).digest()


PARTS = (_small_arrays, _memory, _text)


def probe(part: int) -> float:
    """Seconds one part of the probe takes now."""
    start = time.perf_counter()
    PARTS[part]()
    return time.perf_counter() - start


def probe_time(samples: list[list[float]]) -> float:
    """The host's probe time: the geometric mean of the parts' medians."""
    return math.exp(sum(math.log(statistics.median(s)) for s in samples) / len(samples))


class Clock:
    """Times one stretch of work while sampling the host's speed inside it."""

    def __init__(self) -> None:
        self.samples: list[list[float]] = [[] for _ in PARTS]
        self.ticks = 0
        self.start_s = 0.0

    def _tick(self, signum, frame) -> None:
        part = self.ticks % len(PARTS)
        self.ticks += 1
        self.samples[part].append(probe(part))

    def start(self, start_s: float | None = None) -> None:
        """Start timing now, or from ``start_s``; probes start now either way."""
        self.samples = [[] for _ in PARTS]
        self.ticks = 0
        signal.signal(signal.SIGALRM, self._tick)
        self.start_s = time.perf_counter() if start_s is None else start_s
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> tuple[float, float]:
        """The work's own seconds and the host's probe time during it."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        wall = time.perf_counter() - self.start_s
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        seconds = wall - sum(map(sum, self.samples))
        # Work shorter than a few periods: the parts it missed run once now.
        for part, samples in enumerate(self.samples):
            if not samples:
                samples.append(probe(part))
        return seconds, probe_time(self.samples)


def factor(probe_s: float, exponent: float) -> float:
    """Factor that takes a time measured while probes took ``probe_s`` to reference speed."""
    return (REFERENCE_S / probe_s) ** exponent
