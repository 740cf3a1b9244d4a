"""Run one benchmark workload, check its outputs and print its metrics.

    python3 bench/run.py --workload protocol-n16 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, with every time scaled to a reference
host speed (see hostspeed.py); with ``--trace 1`` they are the
per-layer ones, from a traced re-run of the same calls. See README.md.
"""

import os
import sys
import time

T0 = time.perf_counter()
# Pinned before numpy loads: one thread, so two cores measure the program.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import hostspeed  # noqa: E402  (imports numpy)

# Set-up is timed from T0, with the host's speed sampled from here on.
SETUP_CLOCK = hostspeed.Clock()
if __name__ == "__main__":
    SETUP_CLOCK.start(T0)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 3
PHASE_LIMIT_S = 120.0

END_TO_END_UNITS = {"setup_s": "s", "trials_per_s": "1/s", "call_p50_ms": "ms",
                    "peak_rss_mib": "MiB"}


def layer_unit(name: str) -> str:
    if name.endswith("bytes_per_s"):
        return "B/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("amps", "amps_updated")):
        return "amps"
    if name == "trace.overhead":
        return "ratio"
    return "count"


@dataclass
class Done:
    call: Any
    seconds: float
    slot: str
    failed: bool
    # Reference time over host time, from the probes taken during the call.
    scale: float = 1.0

    @property
    def reference_seconds(self) -> float:
        return self.seconds * self.scale


class Runner:
    """Executes calls of one workload, times them and checks every output."""

    def __init__(self, workload, tracer=None) -> None:
        self.workload = workload
        self.tracer = tracer
        # Untraced calls sample the host's speed; traced ones must not, so
        # that spans hold only the program's time.
        self.clock = None if tracer else hostspeed.Clock()
        self.problems: list[str] = []
        self.next_index = 0

    def execute(self, call, traced: bool = False, sampled: bool = True) -> Done:
        """Run and check one call; ``sampled=False`` leaves the host speed clock alone."""
        clock = self.clock if sampled else None
        if traced:
            self.tracer.enabled = True
        if clock:
            clock.start()
        start = time.perf_counter()
        try:
            output, failed = self.workload.run(call), False
        except Exception:
            output, failed = None, True
            traceback.print_exc()
        seconds, scale = time.perf_counter() - start, 1.0
        if clock:
            seconds, probe_s = clock.stop()
            scale = hostspeed.factor(probe_s, self.workload.host_exponent)
        if traced:
            self.tracer.enabled = False
        if failed:
            return Done(call, seconds, self.workload.round[0], True, scale)
        self.problems += [f"call {call.index} ({call.kind}): {p}"
                          for p in self.workload.check(call, output)]
        slot = self.workload.slot(call, output)
        # Outputs are dropped and collected here, outside the timer, so that
        # no call pays for an earlier call's garbage and the peak resident set
        # is that of one call's work, not of when a collection happened to run.
        del output
        gc.collect()
        return Done(call, seconds, slot, False, scale)

    def rounds(self, seconds: float) -> list[list[Done]]:
        """Run calls in index order until a whole round ends after ``seconds``.

        A finished call fills a free slot of its kind; calls left in no
        complete round when the run stops are checked but not timed.
        """
        need = Counter(self.workload.round)
        pools: dict[str, list[Done]] = {slot: [] for slot in need}
        rounds: list[list[Done]] = []
        start = time.perf_counter()
        while True:
            done = self.execute(self.workload.call(self.next_index))
            self.next_index += 1
            if done.slot in pools:
                pools[done.slot].append(done)
            if all(len(pools[s]) >= k for s, k in need.items()):
                rounds.append([pools[s].pop(0) for s in self.workload.round])
                if time.perf_counter() - start >= seconds:
                    return rounds
            elif time.perf_counter() - start > PHASE_LIMIT_S:
                raise RuntimeError("no complete round within the time limit")

    def rerun_traced(self, rounds: list[list[Done]]) -> list[list[Done]]:
        again = [[self.execute(d.call, traced=True) for d in r] for r in rounds]
        for first, second in zip(sum(rounds, []), sum(again, [])):
            if first.slot != second.slot:
                self.problems.append(f"call {first.call.index} changed slot on a re-run")
        return again


def summarize(rounds: list[list[Done]]) -> tuple[int, int, float, list[float]]:
    timed = [d for r in rounds for d in r]
    attempted = sum(d.call.trials for d in timed)
    failed = sum(d.call.trials for d in timed if d.failed)
    return attempted, failed, sum(d.seconds for d in timed), [d.seconds for d in timed]


def typical_round(rounds: list[list[Done]]) -> list[float]:
    """Reference times of one round's calls, each its slot's median over the run.

    A median per slot keeps a call that met a busy moment of the host from
    moving the figures, and keeps the mix of call kinds that of one round
    however many rounds a seed's calls happened to fill.
    """
    by_slot: dict[str, list[float]] = {}
    for r in rounds:
        for d in r:
            by_slot.setdefault(d.slot, []).append(d.reference_seconds)
    medians = {slot: statistics.median(v) for slot, v in by_slot.items()}
    return [medians[d.slot] for d in rounds[0]]


def machine() -> dict[str, Any]:
    import numpy as np
    from aqs import kernels

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": kernels.active_backend(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "platform": platform.platform(),
    }


def setup_sample(args) -> float:
    """Set-up time of a fresh process at reference host speed."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up process exited with {proc.returncode}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up in this process, print it and exit")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "aqs" / "__init__.py").is_file():
        print(f"error: no program source at {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    runner = Runner(workload, tracer)
    # The warm-up call is part of set-up, so the set-up clock samples it.
    if runner.execute(workload.warmup_call(), sampled=False).failed:
        runner.problems.append("the warm-up call raised")
    setup_seconds, setup_probe_s = SETUP_CLOCK.stop()
    setup_s = setup_seconds * hostspeed.factor(setup_probe_s, workload.host_exponent)
    if args.setup_only:
        # Check failures are reported by the measuring process, which runs
        # the same warm-up call.
        print(json.dumps({"setup_s": setup_s, "wall_setup_s": setup_seconds,
                          "probe_s": setup_probe_s, "probes": SETUP_CLOCK.ticks}))
        return 0

    info = {"machine": machine(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}
    print("machine " + json.dumps(info["machine"], sort_keys=True))
    if args.trace:
        metrics, attempted, failed = traced_metrics(runner, args, info)
    else:
        metrics, attempted, failed = timed_metrics(runner, args, setup_s, info)
    runner.problems += workload.check_run()
    units = END_TO_END_UNITS if not args.trace else {k: layer_unit(k) for k in metrics}
    result = {"correct": not runner.problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    info.update(result=result, problems=runner.problems)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=1, sort_keys=True) + "\n")
    for problem in runner.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def timed_metrics(runner: Runner, args, setup_s: float, info: dict):
    """End-to-end metrics of whole rounds run for ``args.seconds``.

    Times are at reference host speed: each call's wall time, less the host
    speed probes taken during it, scaled by their times. The unscaled figures
    (wall time less the probes) go to the run record.
    """
    rounds = runner.rounds(args.seconds)
    attempted, failed, wall, durations = summarize(rounds)
    timed = [d for r in rounds for d in r]
    samples = [setup_s] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
    round_trials = sum(d.call.trials for d in rounds[0])
    round_times = typical_round(rounds)
    metrics = {
        "setup_s": statistics.median(samples),
        "trials_per_s": (attempted - failed) / attempted * round_trials / sum(round_times),
        "call_p50_ms": 1000.0 * statistics.median(round_times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info.update(setup_samples=samples, call_seconds=durations,
                call_scales=[d.scale for d in timed],
                call_kinds=[d.call.kind for d in timed],
                call_slots=[d.slot for d in timed],
                wall_trials_per_s=(attempted - failed) / wall,
                wall_call_p50_ms=1000.0 * statistics.median(durations),
                untimed_calls=runner.next_index - len(durations))
    print("wall " + json.dumps({k: info[k] for k in ("wall_trials_per_s", "wall_call_p50_ms")}))
    return metrics, attempted, failed


def traced_metrics(runner: Runner, args, info: dict):
    """Untraced rounds for half the time, then the same calls traced."""
    from tracing import layer_metrics

    rounds = runner.rounds(args.seconds / 2.0)
    attempted, failed, wall, _ = summarize(rounds)
    runner.tracer.install()
    try:
        again = runner.rerun_traced(rounds)
    finally:
        runner.tracer.uninstall()
    attempted_t, failed_t, wall_t, _ = summarize(again)
    trials = max(attempted_t - failed_t, 1)
    metrics = layer_metrics(runner.tracer.names, runner.tracer.arrays(), trials, wall_t)
    metrics["trace.overhead"] = ((attempted - failed) / wall) / (trials / wall_t)
    for name, value in metrics.items():
        share = ""
        if layer_unit(name) == "s":
            share = f"  {100.0 * value * trials / wall_t:5.1f}% of traced call time"
        print(f"layer {name:34s} {value:12.6g} {layer_unit(name)}{share}")
    runner.tracer.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
    info.update(untraced_wall_s=wall, traced_wall_s=wall_t, spans=len(runner.tracer.start))
    return metrics, attempted + attempted_t, failed + failed_t


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        # A run that ends before set-up does must not leave the timer running.
        signal.setitimer(signal.ITIMER_REAL, 0.0)
