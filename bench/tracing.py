"""Spans around calls into the program's layers, taken from outside the program.

:class:`Tracer` replaces public functions (and a few public methods) of the
``aqs`` layer modules by module or class attribute with wrappers that record
one span each: name, start, end, parent span and a size in amplitudes where
the layer has one. The program looks these names up at call time, so its own
calls between layers are seen too. Spans stay in memory until :meth:`save`;
:func:`layer_metrics` turns them into the per-layer metrics, per trial.

A span's self time is its duration minus the durations of its direct
children. Only the traced process is patched, and :meth:`uninstall` puts
every original back.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

from aqs import attacks, cipher, gates, kernels, keys, protocol, qstate

LAYERS = {"protocol": protocol, "attacks": attacks, "cipher": cipher,
          "gates": gates, "qstate": qstate, "kernels": kernels, "keys": keys}

# Public methods that are layer entry points, beside the modules' functions.
METHODS = {
    protocol.ProtocolSession: ("setup", "register_lambda", "context_for", "sign",
                               "log_initialize", "log_measure", "send_message_direct",
                               "verifier_forward", "kgc_verify", "arbitrate_dispute"),
    protocol.Transcript: ("append", "to_json"),
    protocol.MessageSpec: ("prepare", "random_product"),
    keys.DeliveryLedger: ("distribute", "lookup"),
}


def _amps_of_state(args, kwargs) -> int:
    return 2 ** args[0].n


def _amps_of_array(args, kwargs) -> int:
    return int(args[0].shape[0])


# Span name -> how to read its size in amplitudes from the call's arguments.
SIZES = {
    "qstate.state_to_json": _amps_of_state,
    "qstate.StateVector": _amps_of_state,
    "kernels.apply_single_inplace": _amps_of_array,
    "kernels.apply_controlled_inplace": _amps_of_array,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.enabled = False
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- installing wrappers

    def _wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        size_of = SIZES.get(name)
        tracer, stack = self, self._stack
        name_ids, parents = self.name_id, self.parent
        starts, ends, sizes = self.start, self.end, self.size
        clock = perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            sizes.append(size_of(args, kwargs) if size_of else 0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
        return traced

    def _patch(self, owner, attr: str, name: str) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            new = staticmethod(self._wrap(name, raw.__func__))
        else:
            new = self._wrap(name, raw)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self) -> None:
        for layer, module in LAYERS.items():
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    self._patch(module, attr, f"{layer}.{attr}")
        for cls, attrs in METHODS.items():
            layer = cls.__module__.rsplit(".", 1)[-1]
            for attr in attrs:
                self._patch(cls, attr, f"{layer}.{cls.__name__}.{attr}")
        # Construction of a state: copy, shape check and norm check.
        self._patch(qstate.StateVector, "__post_init__", "qstate.StateVector")

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    # -- output

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


def layer_metrics(names: list[str], spans: dict[str, np.ndarray],
                  trials: int, wall_s: float) -> dict[str, float]:
    """Per-trial layer metrics from recorded spans.

    ``wall_s`` is the summed wall time of the traced calls; what no root span
    covers of it is ``trace.uncovered_s``.
    """
    nid, parent = spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    size = spans["size"].astype(np.float64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_s = dur - child

    layer = np.array([n.split(".", 1)[0] for n in names], dtype="U16")[nid]
    parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], "")

    def pick(*span_names):
        ids = [names.index(s) for s in span_names if s in names]
        return np.isin(nid, ids)

    apply = pick("qstate.apply_single", "qstate.apply_controlled")
    single = pick("kernels.apply_single_inplace")
    controlled = pick("kernels.apply_controlled_inplace")
    kernel = single | controlled
    # A controlled gate updates the control = 1 half of the amplitudes.
    amps_updated = size[single].sum() + size[controlled].sum() / 2.0
    kernel_s = dur[kernel].sum()
    cipher_fn = layer == "cipher"
    builds = pick("qstate.StateVector")
    to_json = pick("qstate.state_to_json")
    tags = pick("keys.tag_of_bits")
    pauli = pick("attacks.apply_pauli_string")
    adjoint = pick("gates.adjoint")
    swap = pick("qstate.swap_test_sampled")
    prepare = pick("qstate.init_product_state", "qstate.basis_state")

    raw = {
        "qstate.state_to_json.calls": to_json.sum(),
        "qstate.state_to_json.s": dur[to_json].sum(),
        "qstate.state_to_json.amps": size[to_json].sum(),
        "qstate.statevector.builds": builds.sum(),
        "qstate.statevector.s": dur[builds].sum(),
        "qstate.statevector.bytes": 16.0 * size[builds].sum(),
        "qstate.apply.calls": apply.sum(),
        "qstate.apply.self_s": self_s[apply].sum(),
        "qstate.prepare.calls": prepare.sum(),
        "qstate.prepare.s": dur[prepare].sum(),
        "qstate.sample.s": dur[pick("qstate.sample")].sum(),
        "qstate.swap_test.calls": swap.sum(),
        "qstate.swap_test.s": dur[swap].sum(),
        "kernels.single.calls": single.sum(),
        "kernels.single.s": dur[single].sum(),
        "kernels.controlled.calls": controlled.sum(),
        "kernels.controlled.s": dur[controlled].sum(),
        "kernels.amps_updated": amps_updated,
        "cipher.calls": (cipher_fn & (parent_layer != "cipher")).sum(),
        "cipher.gates": (apply & (parent_layer == "cipher")).sum(),
        "cipher.self_s": self_s[cipher_fn].sum(),
        "gates.adjoint.calls": adjoint.sum(),
        "gates.adjoint.s": dur[adjoint].sum(),
        "keys.tag_of_bits.calls": tags.sum(),
        "keys.tag_of_bits.s": dur[tags].sum(),
        "keys.random_bits.s": dur[pick("keys.random_bits")].sum(),
        "keys.xor_bits.s": dur[pick("keys.xor_bits")].sum(),
        "protocol.self_s": self_s[layer == "protocol"].sum(),
        "protocol.transcript_events": pick("protocol.Transcript.append").sum(),
        "attacks.apply_pauli_string.calls": pauli.sum(),
        "attacks.apply_pauli_string.s": dur[pauli].sum(),
        "attacks.self_s": self_s[layer == "attacks"].sum(),
        "trace.uncovered_s": wall_s - dur[~has_parent].sum(),
    }
    out = {k: float(v) / trials for k, v in raw.items()}
    # Read, write, 16 bytes each, for every updated amplitude (computed, not measured).
    out["kernels.bytes_per_s"] = 32.0 * amps_updated / kernel_s if kernel_s > 0 else 0.0
    return out
