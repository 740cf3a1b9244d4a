"""Command-line behavior: output files, exit codes and cross-command invariants."""

import argparse
import contextlib
import filecmp
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from aqs import attacks, cli, protocol, qstate
from aqs.protocol import MAX_QUBITS, VerificationOutcome
from aqs.qstate import ShotHistogram


def run_cli(*argv) -> int:
    return cli.main(list(argv))


class TestDemo:
    def test_exit_and_stdout(self, capsys):
        assert run_cli("demo") == 0
        out = capsys.readouterr().out
        assert "accepted=true" in out
        assert "prob(|0110>)=0.04938" in out
        assert "gate_total=24 sequential_depth=12 asap_depth=10" in out

    def test_output_files(self, tmp_path):
        assert run_cli("demo", "--out", str(tmp_path / "d")) == 0
        names = sorted(p.name for p in (tmp_path / "d").iterdir())
        assert names == [
            "histogram.csv", "initial_distribution.csv",
            "post_distribution.csv", "report.json", "transcript.json",
        ]

    def test_byte_identical_across_runs(self, tmp_path):
        run_cli("demo", "--out", str(tmp_path / "a"))
        run_cli("demo", "--out", str(tmp_path / "b"))
        for name in ("histogram.csv", "initial_distribution.csv",
                     "post_distribution.csv", "report.json", "transcript.json"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False), name

    def test_post_distribution_matches_initial(self, tmp_path):
        run_cli("demo", "--out", str(tmp_path / "d"))

        def probs(name):
            body = (tmp_path / "d" / name).read_text().splitlines()[1:]
            return [float(line.split(",")[1]) for line in body]

        initial = probs("initial_distribution.csv")
        post = probs("post_distribution.csv")
        assert len(initial) == 16
        assert all(abs(a - b) < 1e-10 for a, b in zip(post, initial))

    def test_report_json_content(self, tmp_path):
        run_cli("demo", "--out", str(tmp_path / "d"))
        data = json.loads((tmp_path / "d" / "report.json").read_text())
        assert data["gate_counts"]["total"] == 24
        assert data["depth"]["sequential_depth"] == 12
        assert data["depth"]["asap_depth"] == 10

    def test_histogram_matches_shots(self, tmp_path):
        run_cli("demo", "--out", str(tmp_path / "d"), "--shots", "512")
        h = ShotHistogram.from_csv((tmp_path / "d" / "histogram.csv").read_text())
        assert h.shots == 512

    def test_seed_shots_changes_histogram_only(self, tmp_path):
        run_cli("demo", "--out", str(tmp_path / "a"), "--seed-shots", "1")
        run_cli("demo", "--out", str(tmp_path / "b"), "--seed-shots", "2")
        assert not filecmp.cmp(tmp_path / "a" / "histogram.csv",
                               tmp_path / "b" / "histogram.csv", shallow=False)
        assert filecmp.cmp(tmp_path / "a" / "post_distribution.csv",
                           tmp_path / "b" / "post_distribution.csv", shallow=False)

    def test_compare_against_own_histogram(self, tmp_path, capsys):
        run_cli("demo", "--out", str(tmp_path / "d"))
        capsys.readouterr()
        assert run_cli("demo", "--compare", str(tmp_path / "d" / "histogram.csv"),
                       "--out", str(tmp_path / "e")) == 0
        out = capsys.readouterr().out
        (tv_line,) = [ln for ln in out.splitlines() if ln.startswith("tv_distance=")]
        assert float(tv_line.split("=")[1]) < 0.12
        data = json.loads((tmp_path / "e" / "comparison.json").read_text())
        assert data["tv_distance"] < 0.12

    def test_demo_rejects_config_flags(self):
        # The walkthrough is pinned; register-shaping flags belong to `run`.
        with pytest.raises(SystemExit) as exc:
            run_cli("demo", "--qubits", "6")
        assert exc.value.code == 2

    def test_secrets_absent_unless_revealed(self, tmp_path):
        run_cli("demo", "--out", str(tmp_path / "a"))
        run_cli("demo", "--out", str(tmp_path / "b"), "--reveal-secrets")
        plain = (tmp_path / "a" / "transcript.json").read_text()
        full = (tmp_path / "b" / "transcript.json").read_text()
        assert "1.0471975511965976" not in plain  # pi/3 signing angle
        assert "1.0471975511965976" in full


def _refuse_sampling(*args, **kwargs):
    raise AssertionError("a shot histogram was sampled")


# Each command with its flags that ask for an accepting run.
SAMPLING_COMMANDS = [("demo",), ("run", "--message", "0110")]


class TestHistogramOnlyUnderOut:
    """``demo`` and ``run`` sample a shot histogram only to write it."""

    @pytest.mark.parametrize("command", SAMPLING_COMMANDS)
    def test_sampling_only_with_out(self, command, monkeypatch, tmp_path, capsys):
        with monkeypatch.context() as patch:
            patch.setattr(qstate, "sample", _refuse_sampling)
            assert run_cli(*command) == 0
        assert "accepted=true" in capsys.readouterr().out
        assert run_cli(*command, "--out", str(tmp_path / "o")) == 0
        assert (tmp_path / "o" / "histogram.csv").exists()

    def test_compare_needs_no_sampling(self, monkeypatch, tmp_path, capsys):
        csv = tmp_path / "h.csv"
        csv.write_text("basis_label,count\n0110,1\n")
        monkeypatch.setattr(qstate, "sample", _refuse_sampling)
        assert run_cli("demo", "--compare", str(csv)) == 0
        assert "tv_distance=" in capsys.readouterr().out


class TestRun:
    def test_classical_message_accepts(self, capsys):
        assert run_cli("run", "--message", "0110", "--expect-accept") == 0
        out = capsys.readouterr().out
        assert "accepted=true" in out and "stage=state-compare" in out

    def test_output_files(self, tmp_path):
        assert run_cli("run", "--message", "0110",
                       "--out", str(tmp_path / "r")) == 0
        names = sorted(p.name for p in (tmp_path / "r").iterdir())
        assert names == ["histogram.csv", "outcome.csv", "transcript.json"]
        outcome = (tmp_path / "r" / "outcome.csv").read_text().splitlines()
        assert outcome[0] == \
            "scheme,euler_mode,wiring,n,accepted,stage,overlap_sq,pass_probability"
        assert outcome[1].startswith("cu,diagonal,relay,4,true,state-compare")

    def test_default_message_is_seeded_product(self, capsys):
        assert run_cli("run", "--qubits", "3", "--seed-message", "7") == 0
        first = capsys.readouterr().out
        assert run_cli("run", "--qubits", "3", "--seed-message", "7") == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("scheme", ["cu", "cnot", "qotp"])
    def test_all_schemes(self, scheme):
        assert run_cli("run", "--scheme", scheme, "--message", "0110",
                       "--expect-accept") == 0

    def test_general_euler_mode(self):
        assert run_cli("run", "--euler-mode", "general", "--message", "0110",
                       "--expect-accept") == 0

    def test_direct_wiring(self):
        assert run_cli("run", "--wiring", "direct", "--message", "0110",
                       "--expect-accept") == 0

    def test_message_length_mismatch_exits_2(self, capsys):
        assert run_cli("run", "--qubits", "3", "--message", "0110") == 2
        assert "config error" in capsys.readouterr().err

    def test_register_above_ceiling_exits_2(self, capsys):
        assert run_cli("run", "--qubits", "64", "--message", "0" * 64) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"{MAX_QUBITS}-qubit ceiling" in err

    @pytest.mark.parametrize("command", [
        ("run",), ("report",), ("attack", "--tamper", "tag-flip"),
    ], ids=lambda command: command[-1])
    @pytest.mark.parametrize("scheme", ["cnot", "qotp"])
    def test_general_euler_mode_off_cu_exits_2(self, capsys, command, scheme):
        assert run_cli(*command, "--scheme", scheme, "--euler-mode", "general",
                       "--message", "0110") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"config error: euler_mode 'general' sets cu "
                                f"rotations; scheme '{scheme}' takes 'diagonal'\n")

    @pytest.mark.parametrize("argv", [
        ("run", "--seed-keys", "-1"),
        ("run", "--seed-lambda", "-1"),
        ("report", "--seed-message", "-1"),
        ("demo", "--seed-shots", "-1"),
        ("attack", "--sweep", "pauli", "--seed", "-1"),
    ], ids=lambda argv: argv[-2])
    def test_negative_seed_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"config error: aqs {argv[0]}: argument {argv[-2]}" in err
        assert "non-negative" in err

    def test_internal_value_error_propagates(self, monkeypatch):
        # Only rejected input maps to exit 2; a ValueError from inside the
        # program is a bug and keeps its traceback.
        def broken(config, sample_histogram=True):
            raise ValueError("internal invariant broken")

        monkeypatch.setattr(cli, "run_protocol", broken)
        with pytest.raises(ValueError, match="internal invariant broken"):
            run_cli("run", "--message", "0110")

    def test_bad_choice_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--scheme", "rsa")
        assert exc.value.code == 2

    def test_missing_compare_file_exits_3(self, tmp_path, capsys):
        assert run_cli("run", "--message", "0110",
                       "--compare", str(tmp_path / "absent.csv")) == 3
        assert "i/o error" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, reason", [
        ("0110,0\n1111,0\n", "sum to zero"),
        ("0110,-4\n1111,5\n", "negative count"),
        ("0110,3\n0110,5\n", "appears twice"),
        ("0110,5,7\n", "'0110,5,7' has 3 fields"),
        (",5\n", "basis label '' is not a bit string"),
        ("0110,abc\n", "count 'abc' is not an integer"),
        # Past int()'s 4,300-digit limit for decimal strings.
        ("0000," + "1" * 5000 + "\n", "count has 5000 digits"),
    ], ids=["all-zero", "negative", "duplicate", "extra-field", "empty-label",
            "non-integer", "too-many-digits"])
    def test_bad_compare_csv_exits_2(self, tmp_path, capsys, rows, reason):
        path = tmp_path / "h.csv"
        path.write_text("basis_label,count\n" + rows)
        assert run_cli("demo", "--compare", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and reason in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("count", ["1_000", " 5", "٣"],
                             ids=["underscore", "leading-space", "arabic-indic-digit"])
    def test_count_not_in_ascii_digits_exits_2(self, tmp_path, capsys, count):
        path = tmp_path / "h.csv"
        path.write_text(f"basis_label,count\n0110,{count}\n1001,3\n", encoding="utf-8")
        assert run_cli("run", "--message", "0110", "--compare", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"count {count!r} is not an integer in ASCII decimal digits" in err

    def test_non_utf8_compare_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "h.csv"
        path.write_bytes(b"basis_label,count\n\xff0110,5\n")
        assert run_cli("run", "--message", "0110", "--compare", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "not UTF-8 text" in err

    def test_expect_accept_failure_exits_1(self, monkeypatch, capsys):
        def fake_run(config, sample_histogram=True):
            from aqs.protocol import run_protocol as real_run

            result = real_run(config, sample_histogram=sample_histogram)
            result.outcome = VerificationOutcome(
                accepted=False, stage="state-compare", overlap_sq=0.5,
            )
            return result

        monkeypatch.setattr(cli, "run_protocol", fake_run)
        assert run_cli("run", "--message", "0110", "--expect-accept") == 1
        assert "accepted=false" in capsys.readouterr().out


class TestAttack:
    def test_exactly_one_mode_required(self, capsys):
        assert run_cli("attack") == 2
        assert run_cli("attack", "--sweep", "pauli", "--impersonate", "none") == 2

    def test_sweep_rows_for_default_scheme(self, capsys, tmp_path):
        assert run_cli("attack", "--sweep", "pauli", "--qubits", "3",
                       "--trials", "3", "--out", str(tmp_path / "s")) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("scheme,euler_mode,sigma_class")
        rows = [ln.split(",") for ln in out[1:]]
        assert len(rows) == 6  # cu appears as both diagonal and general
        assert all(r[0] == "cu" for r in rows)
        data = json.loads((tmp_path / "s" / "attack_report.json").read_text())
        assert len(data) == 6

    def test_sweep_class_filter(self, capsys):
        assert run_cli("attack", "--sweep", "pauli", "--qubits", "3",
                       "--trials", "2", "--class", "xy") == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 2
        assert all(ln.split(",")[2] == "xy" for ln in rows)

    def test_sweep_qotp_always_forged(self, capsys):
        assert run_cli("attack", "--sweep", "pauli", "--qubits", "3",
                       "--trials", "4", "--scheme", "qotp") == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 3
        assert all(float(ln.split(",")[4]) == 1.0 for ln in rows)

    @pytest.mark.parametrize("argv,rows", [
        (("--scheme", "qotp", "--class", "xy"), [1]),
        (("--scheme", "cu",), [6, 7, 8, 9, 10, 11]),
    ])
    def test_sweep_runs_only_the_rows_it_prints(self, monkeypatch, capsys, tmp_path,
                                                argv, rows):
        # Each trial draws its keys once.
        draws = []
        real = protocol.draw_keys
        monkeypatch.setattr(protocol, "draw_keys",
                            lambda *a: draws.append(a) or real(*a))
        assert run_cli("attack", "--sweep", "pauli", *argv, "--trials", "5",
                       "--verbose", "--out", str(tmp_path / "s")) == 0
        assert len(draws) == 5 * len(rows)
        sweep = attacks.forgery_sweep(4, 5, 0, collect_details=True)
        kept = [sweep[i] for i in rows]
        assert capsys.readouterr().out == attacks.reports_to_csv(kept)
        assert ((tmp_path / "s" / "attack_report.json").read_text()
                == attacks.reports_to_json(kept) + "\n")

    def test_impersonation_output(self, capsys, tmp_path):
        assert run_cli("attack", "--impersonate", "none", "--qubits", "6",
                       "--trials", "20", "--out", str(tmp_path / "i")) == 0
        out = capsys.readouterr().out
        assert "impersonation-none" in out
        assert "hash_pass_count=" in out
        assert (tmp_path / "i" / "attack_report.csv").exists()

    def test_impersonation_full_knowledge(self, capsys):
        assert run_cli("attack", "--impersonate", "key-and-lambda",
                       "--qubits", "4", "--trials", "3") == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert float(row.split(",")[4]) == 1.0

    @pytest.mark.parametrize("knowledge, trials", [("none", "-1"), ("key", "0")])
    def test_impersonation_non_positive_trials_exits_2(self, capsys, knowledge,
                                                       trials):
        assert run_cli("attack", "--impersonate", knowledge,
                       "--trials", trials) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert "trials must be positive" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("qubits", ["0", "-1"])
    def test_impersonation_empty_register_exits_2(self, capsys, qubits):
        assert run_cli("attack", "--impersonate", "none", "--qubits", qubits) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: impersonation needs n >= 1, got {qubits}\n"
        assert captured.out == ""

    def test_tamper_tag_flip(self, capsys, tmp_path):
        assert run_cli("attack", "--tamper", "tag-flip",
                       "--out", str(tmp_path / "t")) == 0
        assert "accepted=false stage=hash-check" in capsys.readouterr().out
        data = json.loads((tmp_path / "t" / "tamper_outcome.json").read_text())
        assert data["accepted"] is False

    def test_tamper_message_x(self, capsys):
        assert run_cli("attack", "--tamper", "message-x",
                       "--tamper-channel", "signer-verifier",
                       "--message", "0110") == 0
        assert "stage=state-compare" in capsys.readouterr().out

    def test_tamper_impossible_channel_exits_2(self, capsys):
        assert run_cli("attack", "--tamper", "message-x", "--wiring", "direct",
                       "--message", "0110") == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (("--impersonate", "none", "--scheme", "qotp"), "--scheme"),
        (("--sweep", "pauli", "--euler-mode", "general", "--class", "xy"),
         "--euler-mode"),
        (("--tamper", "tag-flip", "--trials", "7", "--class", "xy"),
         "--class, --trials"),
        (("--impersonate", "key", "--message", "0110"), "--message"),
        (("--sweep", "pauli", "--tamper-channel", "signer-verifier"),
         "--tamper-channel"),
        (("--tamper", "tag-flip", "--seed", "3", "--verbose"), "--seed, --verbose"),
    ], ids=["impersonate-scheme", "sweep-euler-mode", "tamper-trials-class",
            "impersonate-message", "sweep-tamper-channel", "tamper-seed-verbose"])
    def test_flag_the_mode_does_not_read_exits_2(self, capsys, argv, named):
        assert run_cli("attack", *argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"config error: {argv[0]} does not read {named}\n"
        assert captured.out == ""

    def test_flag_left_at_its_default_is_accepted(self):
        assert run_cli("attack", "--impersonate", "none", "--trials", "2",
                       "--scheme", "cu", "--tamper-channel", "verifier-kgc") == 0


class TestReport:
    def test_stdout_json(self, capsys):
        assert run_cli("report", "--message", "0110") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["depth"]["asap_depth"] <= data["depth"]["sequential_depth"]

    def test_counts_match_run_transcript(self, capsys, tmp_path):
        # The report's totals must equal the gate events a run logs for the
        # same configuration.
        assert run_cli("report", "--message", "0110") == 0
        counted = json.loads(capsys.readouterr().out)["gate_counts"]["total"]
        assert run_cli("run", "--message", "0110",
                       "--out", str(tmp_path / "r")) == 0
        transcript = json.loads((tmp_path / "r" / "transcript.json").read_text())
        gate_events = [e for e in transcript["events"] if e["type"] == "gate"]
        assert counted == len(gate_events)

    def test_out_file(self, tmp_path):
        assert run_cli("report", "--message", "0110",
                       "--out", str(tmp_path / "rep")) == 0
        data = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert data["gate_counts"]["total"] == 24

    def test_report_builds_no_state(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the report built or ran a state")

        monkeypatch.setattr(qstate, "apply_ops", refuse)
        monkeypatch.setattr(qstate.StateVector, "__post_init__", refuse)
        assert run_cli("report", "--qubits", "25",
                       "--euler-mode", "general") == 0
        # Key seed 0 gives a 25-qubit permutation with no fixed point, so
        # every slot has a chain step.
        data = json.loads(capsys.readouterr().out)
        assert data["gate_counts"] == {
            "counts": {name: 25 for name in ("cu", "cu_adjoint", "initialize",
                                             "measure", "u", "u_adjoint")},
            "total": 150,
        }
        assert data["depth"] == {"asap_depth": 18, "sequential_depth": 54}

    def test_qotp_report_counts(self, capsys):
        assert run_cli("report", "--scheme", "qotp", "--message", "0110") == 0
        data = json.loads(capsys.readouterr().out)
        names = set(data["gate_counts"]["counts"])
        assert names <= {"initialize", "z", "x", "measure"}


def _flags_by_command() -> dict[str, set[str]]:
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {a.option_strings[-1] for a in p._actions
               if a.option_strings and a.dest != "help"}
        for name, p in sub.choices.items()
    }


REGISTER_FLAGS = {"--qubits", "--scheme", "--euler-mode", "--seed-keys",
                  "--seed-lambda", "--wiring", "--message", "--seed-message"}
FLAGS = {
    "demo": {"--seed-shots", "--shots", "--reveal-secrets", "--out", "--compare"},
    "run": REGISTER_FLAGS | {"--seed-shots", "--shots", "--reveal-secrets",
                             "--out", "--compare", "--expect-accept"},
    "report": REGISTER_FLAGS | {"--out", "--compare"},
    "attack": REGISTER_FLAGS | {"--out", "--sweep", "--class", "--impersonate",
                                "--tamper", "--tamper-channel", "--trials",
                                "--seed", "--verbose"},
}

# Parsed at the parent of this change, read by nothing.
REMOVED = [
    ("attack", "--compare", "x.csv"), ("attack", "--expect-accept"),
    ("attack", "--reveal-secrets"), ("attack", "--shots", "5"),
    ("attack", "--seed-shots", "1"), ("report", "--shots", "5"),
    ("report", "--seed-shots", "1"), ("report", "--expect-accept"),
    ("report", "--reveal-secrets"),
]


class TestInputSurface:
    def test_each_command_registers_the_flags_it_reads(self):
        assert _flags_by_command() == FLAGS
        assert sum(map(len, FLAGS.values())) == 46

    @pytest.mark.parametrize("argv", REMOVED, ids=lambda a: f"{a[0]}{a[1]}")
    def test_removed_flag_rejected(self, capsys, argv):
        base = {"attack": ("--tamper", "tag-flip"), "report": ("--message", "0110")}
        with pytest.raises(SystemExit) as exc:
            run_cli(argv[0], *base[argv[0]], *argv[1:])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "config error:" in err and f"unrecognized arguments: {argv[1]}" in err


# Values for every flag; None marks a switch. Seeds go negative, registers
# past the ceiling, so rejected input is drawn as often as valid input.
SEEDS = st.integers(-3, 2 ** 40)
VALUES = {
    "--qubits": st.one_of(st.integers(-2, 6), st.sampled_from([26, 40, 64])),
    "--scheme": st.sampled_from(["cu", "cnot", "qotp", "rsa"]),
    "--euler-mode": st.sampled_from(["diagonal", "general"]),
    "--seed-keys": SEEDS, "--seed-lambda": SEEDS, "--seed-message": SEEDS,
    "--seed-shots": SEEDS, "--seed": SEEDS,
    "--wiring": st.sampled_from(["relay", "direct"]),
    "--message": st.text("01x", max_size=7),
    "--shots": st.one_of(st.integers(-1, 3000), st.just(2 ** 63)),
    "--trials": st.integers(-1, 5),
    "--sweep": st.just("pauli"),
    "--class": st.sampled_from(["diagonal", "xy", "random"]),
    "--impersonate": st.sampled_from(["none", "key", "key-and-lambda"]),
    "--tamper": st.sampled_from(["tag-flip", "message-x"]),
    "--tamper-channel": st.sampled_from(["signer-verifier", "verifier-kgc"]),
    "--out": st.just("out"),
    "--compare": st.just("absent.csv"),
    "--reveal-secrets": None, "--expect-accept": None, "--verbose": None,
}
ALL_FLAGS = sorted(VALUES)
ATTACK_MODES = ["--sweep", "--impersonate", "--tamper"]


def _exit_code(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one ``aqs`` call; argparse's exit counts."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestInputProperties:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_argv_gives_a_documented_exit(self, data):
        command = data.draw(st.sampled_from(sorted(FLAGS)))
        own = sorted(FLAGS[command])
        flags = data.draw(st.lists(st.sampled_from(own), unique=True, max_size=6))
        if command == "attack":
            mode = data.draw(st.sampled_from(ATTACK_MODES))
            # Keep sweeps and impersonation small: the default is 100 trials.
            flags = [mode] + (["--trials"] if mode != "--tamper" else []) + [
                f for f in flags if f != "--trials"]
        if data.draw(st.integers(0, 9)) == 0:  # now and then a foreign flag
            flags.append(data.draw(st.sampled_from(ALL_FLAGS)))
        with tempfile.TemporaryDirectory() as tmp:
            argv = [command]
            for flag in flags:
                if VALUES[flag] is None:
                    argv.append(flag)
                    continue
                value = str(data.draw(VALUES[flag]))
                if flag in ("--out", "--compare"):
                    value = str(Path(tmp) / value)
                argv.append(f"{flag}={value}")
            code, _, err = _exit_code(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        if code == 2:
            assert "config error:" in err, (argv, err)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(body=st.one_of(
        st.binary(max_size=64),
        st.lists(
            st.tuples(
                st.one_of(st.text("01", min_size=4, max_size=4),
                          st.text(max_size=5)),
                st.one_of(st.integers(-3, 10 ** 20).map(str), st.text(max_size=4),
                          # Longer than int()'s 4,300-digit limit for decimal strings.
                          st.builds(lambda digit, k: digit * k,
                                    st.sampled_from("0123456789"),
                                    st.integers(4301, 6000))),
            ).map(",".join),
            max_size=8,
        ).map(lambda rows: "\n".join(["basis_label,count", *rows]).encode()),
    ))
    def test_any_compare_file_gives_0_or_2(self, tmp_path, body):
        path = tmp_path / "h.csv"
        path.write_bytes(body)
        code, out, err = _exit_code(
            ["run", "--message", "0110", "--compare", str(path)])
        assert code in (0, 2), (body, code, err)
        if code == 0:
            (line,) = [ln for ln in out.splitlines() if ln.startswith("tv_distance=")]
            assert 0.0 <= float(line.split("=")[1]) <= 1.0, body
        else:
            assert err.startswith("config error:"), (body, err)


class TestEntryPoint:
    @pytest.mark.skipif(shutil.which("aqs") is None,
                        reason="the aqs console script is not on PATH "
                               "(package not pip-installed)")
    def test_installed_script(self, tmp_path):
        import subprocess

        proc = subprocess.run(
            ["aqs", "demo", "--out", str(tmp_path / "d")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "accepted=true" in proc.stdout

    def test_declared_script_target_runs_demo(self, tmp_path):
        # Call the [project.scripts] target the way pip's generated wrapper
        # does, so the console-script wiring is checked without an install.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["aqs"]
        module, attr = target.split(":")
        code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        proc = subprocess.run(
            [sys.executable, "-c", code, "demo", "--out", str(tmp_path / "d")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "accepted=true" in proc.stdout
