"""Command-line front end.

Subcommands: ``demo`` (the fixed four-qubit reference walkthrough), ``run``
(one configurable protocol run), ``attack`` (forgery, impersonation, and
tamper experiments), ``report`` (gate-count and depth accounting without
measurement sampling).

Each subcommand registers only the flags it reads, and ``attack`` rejects a
flag its chosen mode does not read.

Exit codes: 0 success; 1 verification failed while ``--expect-accept`` (or
during demo); 2 rejected input (``config error:``); 3 I/O error. Anything
else, a traceback included, is a bug.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import attacks, qstate, reports
from .cipher import EulerMode, Scheme
from .errors import AqsError, ConfigError
from .protocol import (
    MessageSpec,
    RunConfig,
    TamperSpec,
    VerifyMode,
    Wiring,
    honest_gate_events,
    run_protocol,
)

DEMO_KEY_BITS = "1010"
DEMO_LAMBDAS = (math.pi / 3, math.pi / 4, math.pi / 6, math.pi / 8)
DEMO_ALPHA = 1.0 / math.sqrt(3.0)
DEMO_BETA = 1j * math.sqrt(2.0 / 3.0)
DEMO_QUBITS = 4

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_CONFIG = 2
EXIT_IO = 3


# What each attack mode reads besides --qubits and --out, by argparse dest.
ATTACK_MODE_READS = {
    "sweep": {"scheme", "sigma_class", "trials", "seed", "verbose"},
    "impersonate": {"trials", "seed", "verbose"},
    "tamper": {"scheme", "euler_mode", "seed_keys", "seed_lambda", "wiring",
               "message", "seed_message", "tamper_channel"},
}


class _Parser(argparse.ArgumentParser):
    """Reports a rejected argument the way :func:`main` reports bad input."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"config error: {self.prog}: {message}\n")


def seed(text: str) -> int:
    """argparse type of the seed flags: numpy's generators take no negative seed."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seeds are non-negative, got {value}")
    return value


def _add_register_flags(p: argparse.ArgumentParser) -> None:
    """The protocol configuration, for the commands that build one."""
    p.add_argument("--qubits", type=int, default=4, help="register size n")
    p.add_argument("--scheme", choices=[s.value for s in Scheme], default="cu")
    p.add_argument("--euler-mode", choices=[m.value for m in EulerMode],
                   default="diagonal")
    p.add_argument("--seed-keys", type=seed, default=0)
    p.add_argument("--seed-lambda", type=seed, default=0)
    p.add_argument("--wiring", choices=[w.value for w in Wiring], default="relay",
                   help="relay: verifier forwards the message register; "
                        "direct: signer hands it to the arbiter")
    p.add_argument("--message", default=None, metavar="BITS",
                   help="classical message bits; default is a random product state")
    p.add_argument("--seed-message", type=seed, default=0,
                   help="seed for the random product message")


def _add_sampling_flags(p: argparse.ArgumentParser) -> None:
    """For the commands that sample a histogram and write a transcript."""
    p.add_argument("--seed-shots", type=seed, default=0)
    p.add_argument("--shots", type=int, default=1024)
    p.add_argument("--reveal-secrets", action="store_true",
                   help="include key bits and signing angles in the transcript")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="aqs",
        description="Arbitrated quantum signature protocol simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The demo is a pinned scenario, so it takes no register flags.
    demo = sub.add_parser("demo", help="fixed four-qubit reference walkthrough")
    run = sub.add_parser("run", help="one configurable protocol run")
    attack = sub.add_parser("attack", help="adversary experiments")
    report = sub.add_parser("report", help="gate/depth accounting, no sampling")

    for p in (run, attack, report):
        _add_register_flags(p)
    for p in (demo, run):
        _add_sampling_flags(p)
    for p in (demo, run, attack, report):
        p.add_argument("--out", type=Path, default=None, help="output directory")
    for p in (demo, run, report):
        p.add_argument("--compare", type=Path, default=None, metavar="CSV",
                       help="histogram CSV to compare against the exact distribution")
    run.add_argument("--expect-accept", action="store_true",
                     help="exit 1 if verification rejects")

    attack.add_argument("--sweep", choices=["pauli"], default=None,
                        help="run the scheme x sigma-class forgery sweep")
    attack.add_argument("--class", dest="sigma_class",
                        choices=list(attacks.SIGMA_CLASSES), default=None,
                        help="restrict the sweep to one sigma class")
    attack.add_argument("--impersonate", choices=list(attacks.KNOWLEDGE_LEVELS),
                        default=None, help="impersonation at a knowledge level")
    attack.add_argument("--tamper", choices=["tag-flip", "message-x"], default=None,
                        help="in-transit tampering experiment")
    attack.add_argument("--tamper-channel",
                        choices=["signer-verifier", "verifier-kgc"],
                        default="verifier-kgc")
    attack.add_argument("--trials", type=int, default=100)
    attack.add_argument("--seed", type=seed, default=0,
                        help="sweep seed (per-trial streams derive from it)")
    attack.add_argument("--verbose", action="store_true",
                        help="include per-trial detail in the JSON report")
    return parser


def _message_spec(args: argparse.Namespace, n: int) -> MessageSpec:
    if args.message is not None:
        if len(args.message) != n:
            raise ConfigError(
                f"--message has {len(args.message)} bits but --qubits is {n}"
            )
        return MessageSpec.classical(args.message)
    return MessageSpec.random_product(n, np.random.default_rng(args.seed_message))


def _config_from_args(args: argparse.Namespace, **sampling) -> RunConfig:
    n = args.qubits
    return RunConfig(
        n=n,
        message=_message_spec(args, n),
        scheme=Scheme(args.scheme),
        euler_mode=EulerMode(args.euler_mode),
        wiring=Wiring(args.wiring),
        verify_mode=VerifyMode.EXACT,
        seed_keys=args.seed_keys,
        seed_lambda=args.seed_lambda,
        **sampling,
    )


def _write(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text)


def _outcome_line(outcome) -> str:
    parts = [f"accepted={str(outcome.accepted).lower()}", f"stage={outcome.stage}"]
    if outcome.overlap_sq is not None:
        parts.append(f"overlap_sq={outcome.overlap_sq:.12g}")
    return " ".join(parts)


def _compare(result, args: argparse.Namespace) -> float | None:
    """Print and return the TV distance of the ``--compare`` histogram from
    the exact post-protocol distribution; None without ``--compare``."""
    if args.compare is None:
        return None
    if result.recovered_state is None:
        raise ConfigError("nothing to compare: run rejected before state compare")
    try:
        text = args.compare.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{args.compare} is not UTF-8 text: {exc}") from None
    external = qstate.ShotHistogram.from_csv(text)
    tv = reports.compare_histograms(
        external, qstate.distribution(result.recovered_state)
    )
    print(f"tv_distance={tv:.12g}")
    return tv


def _emit_run_outputs(result, args: argparse.Namespace, files: dict[str, str]) -> None:
    """Print the ``--compare`` distance, then write ``files`` under ``--out``
    with the transcript, the histogram and the comparison added."""
    tv = _compare(result, args)
    if args.out is None:
        return
    files["transcript.json"] = (
        result.transcript.to_json(reveal_secrets=args.reveal_secrets) + "\n")
    if result.histogram is not None:
        files["histogram.csv"] = result.histogram.to_csv()
    if tv is not None:
        files["comparison.json"] = json.dumps({"tv_distance": tv}, sort_keys=True) + "\n"
    for name, text in files.items():
        _write(args.out, name, text)


def cmd_demo(args: argparse.Namespace) -> int:
    message = MessageSpec.uniform_qubit(DEMO_QUBITS, DEMO_ALPHA, DEMO_BETA)
    config = RunConfig(
        n=DEMO_QUBITS,
        message=message,
        scheme=Scheme.CHAINED_CU,
        euler_mode=EulerMode.DIAGONAL,
        wiring=Wiring.DIRECT,
        seed_shots=args.seed_shots,
        shots=args.shots,
        inject_key_bits=DEMO_KEY_BITS,
        inject_lambdas=DEMO_LAMBDAS,
    )
    result = run_protocol(config, sample_histogram=args.out is not None)
    initial = qstate.distribution(result.message_state)
    gate = reports.GateCountReport.from_ops(result.ops)
    depth = reports.DepthReport.from_ops(result.ops)

    print(_outcome_line(result.outcome))
    label = int("0110", 2)
    print(f"prob(|0110>)={initial[label]:.5f}")
    print(f"gate_total={gate.total} sequential_depth={depth.sequential_depth} "
          f"asap_depth={depth.asap_depth}")

    _emit_run_outputs(result, args, {
        "initial_distribution.csv": reports.distribution_to_csv(initial),
        "post_distribution.csv": reports.distribution_to_csv(
            qstate.distribution(result.recovered_state)),
        "report.json": reports.circuit_report_json(result.ops) + "\n",
    })
    return EXIT_OK if result.outcome.accepted else EXIT_REJECTED


def cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args, seed_shots=args.seed_shots, shots=args.shots)
    result = run_protocol(config, sample_histogram=args.out is not None)
    print(_outcome_line(result.outcome))
    _emit_run_outputs(result, args,
                      {"outcome.csv": result.transcript.summary_csv_row()})
    if args.expect_accept and not result.outcome.accepted:
        return EXIT_REJECTED
    return EXIT_OK


def _reject_foreign_flags(args: argparse.Namespace, mode: str) -> None:
    defaults = vars(build_parser().parse_args(["attack"]))
    foreign = set().union(*ATTACK_MODE_READS.values()) - ATTACK_MODE_READS[mode]
    changed = sorted(
        "--class" if dest == "sigma_class" else "--" + dest.replace("_", "-")
        for dest in foreign if getattr(args, dest) != defaults[dest]
    )
    if changed:
        raise ConfigError(f"--{mode} does not read {', '.join(changed)}")


def _emit_attack_reports(reports: list[attacks.AttackReport],
                         args: argparse.Namespace) -> None:
    """Print the reports as CSV, with an impersonation's hash-gate count, and
    write them as CSV and JSON under ``--out``."""
    csv_text = attacks.reports_to_csv(reports)
    print(csv_text, end="")
    if args.impersonate is not None:
        print(f"hash_pass_count={reports[0].hash_pass_count}")
    if args.out is not None:
        _write(args.out, "attack_report.csv", csv_text)
        _write(args.out, "attack_report.json",
               attacks.reports_to_json(reports) + "\n")


def cmd_attack(args: argparse.Namespace) -> int:
    modes = [m for m in ATTACK_MODE_READS if getattr(args, m) is not None]
    if len(modes) != 1:
        raise ConfigError(
            "pick exactly one of --sweep, --impersonate, --tamper"
        )
    _reject_foreign_flags(args, modes[0])

    if args.sweep is not None:
        _emit_attack_reports([
            attacks.forgery_row(args.qubits, args.trials, args.seed, row, cls_index,
                                collect_details=args.verbose)
            for row, (scheme, _) in enumerate(attacks.SWEEP_ROWS)
            if scheme.value == args.scheme
            for cls_index, sigma_class in enumerate(attacks.SIGMA_CLASSES)
            if args.sigma_class in (None, sigma_class)
        ], args)
        return EXIT_OK

    if args.impersonate is not None:
        _emit_attack_reports([attacks.impersonation_attempt(
            args.qubits, args.trials, args.seed, knowledge=args.impersonate,
            collect_details=args.verbose)], args)
        return EXIT_OK

    config = _config_from_args(args)
    if args.tamper == "tag-flip":
        spec = TamperSpec(channel=args.tamper_channel, tag_flip_bit=0)
    else:
        spec = TamperSpec(channel=args.tamper_channel,
                          message_pauli="X" + "I" * (config.n - 1))
    outcome = attacks.tamper_in_transit(config, spec)
    print(_outcome_line(outcome))
    if args.out is not None:
        _write(args.out, "tamper_outcome.json",
               json.dumps(outcome.to_payload(), sort_keys=True) + "\n")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    text = reports.circuit_report_json(honest_gate_events(config))
    print(text)
    if args.compare is not None:
        _compare(run_protocol(config, sample_histogram=False), args)
    if args.out is not None:
        _write(args.out, "report.json", text + "\n")
    return EXIT_OK


_COMMANDS = {
    "demo": cmd_demo,
    "run": cmd_run,
    "attack": cmd_attack,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except AqsError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
