"""Command-line behavior: output files, exit codes and cross-command invariants."""

import filecmp
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from aqs import cli
from aqs.protocol import VerificationOutcome
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
    ], ids=["all-zero", "negative", "duplicate", "extra-field", "empty-label",
            "non-integer"])
    def test_bad_compare_csv_exits_2(self, tmp_path, capsys, rows, reason):
        path = tmp_path / "h.csv"
        path.write_text("basis_label,count\n" + rows)
        assert run_cli("demo", "--compare", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and reason in err
        assert "Traceback" not in err

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

    def test_qotp_report_counts(self, capsys):
        assert run_cli("report", "--scheme", "qotp", "--message", "0110") == 0
        data = json.loads(capsys.readouterr().out)
        names = set(data["gate_counts"]["counts"])
        assert names <= {"initialize", "z", "x", "measure"}


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
