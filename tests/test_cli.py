import json
import os
import pathlib
import subprocess
import sys

import pytest

from lce_lab import check_witness, computable_least_witness, default_samples
from lce_lab.cli import main
from lce_lab.registry import parse_real
from lce_lab.speedability import MAX_HORIZON
from lce_lab.util import dump_json

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_fresh(argv, cwd, **env):
    """The CLI in a process of its own, as ``python -m lce_lab``, with
    ``env`` added to the environment."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "lce_lab", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path, **env), cwd=cwd, timeout=60,
    )


@pytest.fixture
def three_code_file(tmp_path):
    path = tmp_path / "B3.json"
    path.write_text(
        dump_json(
            {
                "name": "B3",
                "entries": [
                    {"code": "0", "output": "1"},
                    {"code": "10", "output": "10"},
                    {"code": "11", "output": "101"},
                ],
            }
        )
    )
    return str(path)


@pytest.fixture
def bad_machine_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        dump_json(
            {"entries": [{"code": "0", "output": "1"}, {"code": "01", "output": "1"}]}
        )
    )
    return str(path)


class TestCheckWitness:
    def test_self_reduction_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "check-witness",
                "--alpha", "geometric:1",
                "--beta", "geometric:1",
                "--witness", "identity",
                "--c", "2",
                "--samples", "1000",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True and doc["samples_checked"] == 1000

    def test_violation_exits_one(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "check-witness",
                "--alpha", "geometric:1/2",
                "--beta", "geometric:1/4",
                "--witness", "identity",
                "--c", "1",
                "--samples", "64",
                "--out", str(out),
            ]
        )
        assert code == 1
        doc = json.loads(out.read_text())
        assert any(v["reason"] == "gap_bound_failed" for v in doc["violations"])

    def test_reports_are_byte_identical(self, tmp_path):
        args = [
            "check-witness",
            "--alpha", "set:evens",
            "--beta", "geometric:1",
            "--witness", "scaling:2/3:forward",
            "--samples", "200",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_fresh(
            [
                "check-witness",
                "--alpha", "geometric:1/2",
                "--beta", "geometric:1/4",
                "--witness", "identity",
                "--c", "1",
                "--samples", "16",
                "--out", str(out),
            ],
            tmp_path,
        )
        assert proc.returncode == 1, proc.stderr
        assert json.loads(out.read_text())["passed"] is False

    def test_weakened_default_schedule_drops_non_dyadic_points(self, tmp_path):
        # geometric:7/9 approximates through non-dyadic points such as 7/18
        out = tmp_path / "report.json"
        code = main(
            [
                "check-witness",
                "--alpha", "geometric:5/8",
                "--beta", "geometric:7/9",
                "--witness", "least",
                "--out", str(out),
            ]
        )
        assert code in (0, 1)
        doc = json.loads(out.read_text())
        assert doc["samples_checked"] > 0 and doc["witness"] == "least(geometric:5/8)"

    def test_weakened_default_schedule_keeps_dyadic_beta_points(self, tmp_path):
        # geometric:1 approximates through dyadics only, so nothing is dropped
        out = tmp_path / "report.json"
        code = main(
            ["check-witness", "--alpha", "set:evens", "--beta", "geometric:1", "--witness", "least", "--out", str(out)]
        )
        alpha, beta = parse_real("set:evens"), parse_real("geometric:1")
        witness = computable_least_witness(alpha)
        report = check_witness(alpha, beta, witness, default_samples(beta, witness))
        assert code == 0
        assert out.read_text() == dump_json(report.to_json_dict())

    def test_weakened_default_schedule_drops_points_outside_the_unit_interval(self, tmp_path):
        # geometric:1:1/2:2 starts its approximation at -1; the grid itself lies in [0,1)
        out = tmp_path / "report.json"
        argv = ["check-witness", "--alpha", "geometric:5/8", "--beta", "geometric:1:1/2:2", "--witness", "least"]
        assert main(argv + ["--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert (doc["samples_checked"], doc["skipped"]) == (1077, 0)

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_nonpositive_sample_count_is_usage_error(self, count, capsys):
        code = main(
            [
                "check-witness",
                "--alpha", "geometric:1",
                "--beta", "geometric:1",
                "--witness", "identity",
                "--samples", count,
            ]
        )
        assert code == 2
        assert f"sample count must be positive, got {count}" in capsys.readouterr().err

    def test_huge_grid_with_least_is_decided_per_length(self, tmp_path):
        # 2**40 samples: the per-sample loop would run for days.
        out = tmp_path / "report.json"
        code = main(
            [
                "check-witness",
                "--alpha", "geometric:5/8",
                "--beta", "geometric:1",
                "--witness", "least",
                "--samples", "1099511627776",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["samples_checked"] == 1 << 40 and doc["skipped"] == 0

    def test_huge_passing_grid_with_identity_is_decided_in_closed_form(self, tmp_path):
        out = tmp_path / "report.json"
        argv = ["check-witness", "--alpha", "geometric:1", "--beta", "geometric:1", "--witness", "identity"]
        assert main(argv + ["--samples", "1099511627776", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["samples_checked"] == 1 << 40 and doc["skipped"] == 0
        assert doc["max_ratio_seen"] == "1" and doc["violations"] == []

    @pytest.mark.parametrize(
        "alpha, beta, witness",
        [
            # at_length, but the grid reaches past 1, where lengths stop
            ("geometric:5/8", "geometric:2", "least"),
        ],
    )
    def test_huge_grid_without_a_per_length_decider_is_usage_error(self, alpha, beta, witness, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "check-witness",
                "--alpha", alpha,
                "--beta", beta,
                "--witness", witness,
                "--samples", "1099511627776",
                "--out", str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "checking 1099511627776 grid samples one by one refused (cap 2**20)\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "alpha, witness, depth, checked",
        [
            # The default schedule has no depth cap of its own: identity decides
            # a depth-17 grid in closed form.  beta's points 1 - 2**-i with
            # i > depth lie off the grid.
            ("geometric:1", "identity", "17", (1 << 17) + 47),
            # least decides a depth-40 grid per length
            ("geometric:5/8", "least", "40", (1 << 40) + 24),
        ],
    )
    def test_deep_default_schedule_reports(self, alpha, witness, depth, checked, tmp_path):
        out = tmp_path / "report.json"
        argv = ["check-witness", "--alpha", alpha, "--beta", "geometric:1", "--witness", witness]
        assert main(argv + ["--grid-depth", depth, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["samples_checked"] == checked and doc["skipped"] == 0

    def test_default_schedule_below_two_with_least_stops_its_grid_at_one(self, tmp_path):
        # least takes only samples in [0,1), so its depth-40 grid below 2 stops
        # at 1 and is decided per length; beta's points past 0 are all >= 1.
        out = tmp_path / "report.json"
        argv = ["check-witness", "--alpha", "geometric:5/8", "--beta", "geometric:2", "--witness", "least"]
        assert main(argv + ["--grid-depth", "40", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["samples_checked"] == 1 << 40 and doc["skipped"] == 0
        assert doc["max_ratio_seen"] == "1/8" and doc["violations"] == []

    def test_weakened_default_schedule_is_the_clipped_library_check(self, tmp_path):
        out = tmp_path / "report.json"
        argv = ["check-witness", "--alpha", "geometric:5/8", "--beta", "geometric:2", "--witness", "least"]
        assert main(argv + ["--out", str(out)]) == 0
        alpha, beta = parse_real("geometric:5/8"), parse_real("geometric:2")
        witness = computable_least_witness(alpha)
        samples = default_samples(beta, witness)
        assert samples.grid.size == 1 << 10  # [0, 1) at depth 10, not [0, 2)
        assert out.read_text() == dump_json(check_witness(alpha, beta, witness, samples).to_json_dict())

    def test_grid_depth_past_the_bound_is_usage_error(self, tmp_path, capsys):
        # The bound is the horizon's; a depth-4096 grid is still decided in closed form.
        out = tmp_path / "report.json"
        argv = ["check-witness", "--alpha", "geometric:1", "--beta", "geometric:1", "--witness", "identity"]
        assert main(argv + ["--grid-depth", str(MAX_HORIZON + 1), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "grid depth must be <= 4096, got 4097\n"
        assert captured.out == ""
        assert not out.exists()
        assert main(argv + ["--grid-depth", str(MAX_HORIZON), "--out", str(out)]) == 0
        # beta's points 1 - 2**-i, i <= 64, all lie on the grid
        assert json.loads(out.read_text())["samples_checked"] == 1 << MAX_HORIZON

    @pytest.mark.parametrize(
        "beta, count, depth",
        [
            ("geometric:1", (1 << MAX_HORIZON) + 1, MAX_HORIZON + 1),
            ("geometric:1", 1 << 13000, 13000),
            # 2 samples below 2**-13000 need depth 13001
            (f"geometric:1/{1 << 13000}", 2, 13001),
        ],
    )
    def test_samples_past_the_depth_bound_are_usage_error(self, beta, count, depth, tmp_path, capsys):
        # --samples deepens its grid until it holds the count; past the
        # --grid-depth bound it is refused before any sample is built.
        out = tmp_path / "report.json"
        argv = ["check-witness", "--alpha", "geometric:5/8", "--beta", beta, "--witness", "least"]
        assert main(argv + ["--samples", str(count), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"sample grid depth must be <= 4096, got {depth}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_samples_at_the_depth_bound_are_decided(self, tmp_path):
        out = tmp_path / "report.json"
        argv = ["check-witness", "--alpha", "geometric:5/8", "--beta", "geometric:1", "--witness", "least"]
        assert main(argv + ["--samples", str(1 << MAX_HORIZON), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["samples_checked"] == 1 << MAX_HORIZON and doc["passed"]

    def test_default_schedule_past_the_row_cap_is_usage_error(self, tmp_path, capsys):
        # identity fails the gap bound at every grid sample: 2 - q >= 2 * (1 - q).
        out = tmp_path / "report.json"
        argv = ["check-witness", "--alpha", "geometric:2", "--beta", "geometric:1", "--witness", "identity"]
        assert main(argv + ["--grid-depth", "40", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "listing 1099511627776 violation rows refused (cap 2**20)\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("witness", ["scaling:2:forward", "least"])
    def test_constant_for_a_witness_that_fixes_its_own_is_usage_error(self, witness, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "check-witness",
                "--alpha", "geometric:1",
                "--beta", "geometric:1",
                "--witness", witness,
                "--c", "7",
                "--out", str(out),
            ]
        )
        assert code == 2
        assert "--c sets the identity witness's constant" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_constant_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = ["check-witness", "--alpha", "geometric:1", "--beta", "geometric:1", "--witness", "identity"]
        assert main(argv + ["--c", "", "--out", str(out)]) == 2
        assert "not an exact integer: ''" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_witness_spec(self, capsys):
        code = main(
            [
                "check-witness",
                "--alpha", "geometric:1",
                "--beta", "geometric:1",
                "--witness", "wizardry",
            ]
        )
        assert code == 2
        assert "witness" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check-witness", "cmm-build"])
    def test_unknown_witness_spec_comes_before_the_constant_rule(self, command, tmp_path, three_code_file, capsys):
        out = tmp_path / "out.json"
        inputs = {"check-witness": ["--alpha", "geometric:1", "--beta", "geometric:1"], "cmm-build": ["--B", three_code_file]}
        assert main([command, *inputs[command], "--witness", "wizardry", "--c", "3", "--out", str(out)]) == 2
        assert "unknown witness spec 'wizardry'" in capsys.readouterr().err
        assert not out.exists()


class TestSpecFieldCounts:
    """Every spec kind checks its field count; a bad spec is a usage error."""

    COMMANDS = {
        "real": ["speed-trace", "--speedup", "identity", "--real"],
        "witness": ["check-witness", "--alpha", "geometric:1", "--beta", "geometric:1", "--witness"],
        "speed-up": ["speed-trace", "--real", "geometric:1", "--speedup"],
        "translation": ["speed-check", "--real", "geometric:1", "--rho", "1/2", "--translation"],
    }

    @pytest.mark.parametrize(
        "what, spec",
        [
            ("real", "geometric"),
            ("real", "geometric:1:1/2:1:junk"),
            ("real", "set:squares"),
            ("real", "set:evens:x"),
            ("real", "omega:"),
            ("real", "omega:a:b"),
            ("real", "zeta:1"),
            ("witness", "identity:junk"),
            ("witness", "least:x"),
            ("witness", "scaling:2"),
            ("speed-up", "identity:9"),
            ("speed-up", "linear:"),
            ("translation", "affine:"),
            ("translation", "identity:x"),
        ],
    )
    def test_bad_spec_exits_two(self, what, spec, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(self.COMMANDS[what] + [spec, "--out", str(out)]) == 2
        assert "usage:" not in capsys.readouterr().err  # the spec failed, not the command line
        assert not out.exists()

    @pytest.mark.parametrize(
        "what, spec", [("real", "geometric:1"), ("witness", "identity"), ("speed-up", "linear:2"), ("translation", "affine:1/2")]
    )
    def test_good_spec_runs(self, what, spec, tmp_path):
        assert main(self.COMMANDS[what] + [spec, "--out", str(tmp_path / "report.json")]) in (0, 1)


class TestSpeedTrace:
    def test_csv_trace_and_exit(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(
            [
                "speed-trace",
                "--real", "geometric:1",
                "--speedup", "linear:2",
                "--horizon", "10",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,ratio_num,ratio_den,running_min_num,running_min_den"
        assert len(lines) == 12  # header + horizon+1 rows
        assert lines[-1].split(",") == ["10", "1", "1024", "1", "1024"]

    def test_rho_controls_exit_code(self):
        base = ["speed-trace", "--real", "geometric:1", "--horizon", "8", "--out"]
        assert main(["speed-trace", "--real", "geometric:1", "--speedup", "linear:2",
                     "--horizon", "8", "--rho", "1/2", "--format", "json"]) == 0
        assert main(["speed-trace", "--real", "geometric:1", "--speedup", "identity",
                     "--horizon", "8", "--rho", "1/2", "--format", "json"]) == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("rho", ["1", "2", "0", "-1/2"])
    def test_rho_outside_the_unit_interval_is_usage_error(self, rho, fmt, tmp_path, capsys):
        # Every ratio is at most 1, so rho >= 1 would make any trace evidence.
        out = tmp_path / "trace.out"
        argv = ["speed-trace", "--real", "geometric:1", "--speedup", "linear:2", f"--rho={rho}", "--format", fmt]
        assert main(argv + ["--out", str(out)]) == 2
        assert f"rho must lie in (0,1), got {rho}" in capsys.readouterr().err
        assert not out.exists()
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int str-conversion limit")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_integers_too_long_to_print_are_usage_error(self, fmt, tmp_path, capsys):
        # With ratio 10**-200, a 25-step trace already holds integers of over 4300 digits.
        ratio = "1/1" + "0" * 200
        out = tmp_path / "trace.out"
        argv = ["speed-trace", "--real", f"geometric:1:{ratio}", "--speedup", "linear:2", "--horizon", "25", "--format", fmt]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("report not written: Exceeds the limit")
        assert captured.err.count("\n") == 1
        assert main(argv + ["--out", str(out)]) == 2
        assert list(tmp_path.iterdir()) == []  # neither the report nor a temp file

    def test_csv_bytes_on_stdout_and_in_the_file(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        argv = ["speed-trace", "--real", "geometric:1", "--speedup", "linear:2", "--horizon", "1"]
        expected = "n,ratio_num,ratio_den,running_min_num,running_min_den\r\n0,1,1,1,1\r\n1,1,2,1,2\r\n"
        assert main(argv) == 0
        assert capsys.readouterr().out == expected
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == expected.encode()

    def test_omega_real_from_machine_file(self, three_code_file, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(
            [
                "speed-trace",
                "--real", f"omega:{three_code_file}",
                "--speedup", "identity",
                "--horizon", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 3

    def test_json_format(self, tmp_path):
        out = tmp_path / "trace.json"
        assert main(
            [
                "speed-trace",
                "--real", "geometric:1",
                "--speedup", "linear:2",
                "--horizon", "3",
                "--format", "json",
                "--out", str(out),
            ]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["running_min"] == "1/8"
        assert len(doc["entries"]) == 4


class TestSpeedCheck:
    def test_evidence(self):
        assert main(
            [
                "speed-check",
                "--real", "geometric:1",
                "--translation", "affine:1/2",
                "--rho", "1/2",
            ]
        ) == 0

    def test_no_evidence(self):
        assert main(
            [
                "speed-check",
                "--real", "geometric:1",
                "--translation", "affine:1/2",
                "--rho", "1/4",
            ]
        ) == 1

    def test_amplification_recovers_evidence(self):
        assert main(
            [
                "speed-check",
                "--real", "geometric:1",
                "--translation", "affine:1/2",
                "--rho", "1/4",
                "--amplify", "2",
            ]
        ) == 0

    def test_invalid_candidate_is_a_failure_with_its_report(self, tmp_path, capsys):
        argv = ["speed-check", "--real", "geometric:1", "--translation", "identity", "--rho", "1/2"]
        assert main(argv) == 1
        printed = capsys.readouterr()
        assert json.loads(printed.out)["valid"] is False and printed.err == ""
        out = tmp_path / "check.json"
        assert main([*argv, "--out", str(out)]) == 1
        assert out.read_text() == printed.out and capsys.readouterr().out == ""

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_amplify_below_one_is_usage_error(self, k, capsys):
        assert main(
            [
                "speed-check",
                "--real", "geometric:1",
                "--translation", "affine:1/2",
                "--rho", "1/2",
                "--amplify", k,
            ]
        ) == 2
        assert "--amplify" in capsys.readouterr().err


class TestConvert:
    def test_speedup_to_translation(self, tmp_path):
        out = tmp_path / "conv.json"
        assert main(
            [
                "convert",
                "--real", "geometric:1",
                "--speedup", "linear:2",
                "--probes", "3/8,1/2",
                "--out", str(out),
            ]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["direction"] == "speedup-to-translation"
        assert doc["mappings"][0] == {"q": "3/8", "g_q": "3/4"}

    def test_translation_to_speedup(self, tmp_path):
        out = tmp_path / "conv.json"
        assert main(
            [
                "convert",
                "--real", "geometric:1",
                "--translation", "affine:1/2",
                "--horizon", "5",
                "--out", str(out),
            ]
        ) == 0
        doc = json.loads(out.read_text())
        assert [m["f_i"] for m in doc["mappings"]] == [3, 4, 5, 6, 7, 8]

    def test_needs_exactly_one_direction(self, capsys):
        assert main(["convert", "--real", "geometric:1"]) == 2

    @pytest.mark.parametrize("horizon", ["0", "-1"])
    @pytest.mark.parametrize("direction", [["--translation", "affine:1/2"], ["--speedup", "linear:2"]])
    def test_horizon_below_one_is_usage_error(self, direction, horizon, capsys):
        assert main(["convert", "--real", "geometric:1", *direction, "--horizon", horizon]) == 2
        assert f"horizon must be >= 1, got {horizon}" in capsys.readouterr().err

    def test_speedup_index_past_the_cap_is_refused(self, tmp_path, capsys):
        out = tmp_path / "conv.json"
        argv = ["convert", "--real", "geometric:1", "--speedup", "linear:10000000", "--probes", "1/2"]
        assert main(argv) == 2
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "linear(10000000): f(1) = 10000000 is past the index cap 1000000\n" * 2)
        assert not out.exists()

    def test_probes_make_the_horizon_unused(self, tmp_path):
        out = tmp_path / "conv.json"
        argv = ["convert", "--real", "geometric:1", "--speedup", "linear:2", "--probes", "1/2"]
        assert main(argv + ["--horizon", "0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["mappings"] == [{"q": "1/2", "g_q": "3/4"}]

    @pytest.mark.parametrize(
        "flags, err",
        [
            (["--speedup", "linear:2", "--amplify", "3", "--probes", "1/2"], "--amplify applies to --translation, not --speedup\n"),
            (["--translation", "affine:1/2", "--probes", "1/2"], "--probes applies to --speedup, not --translation\n"),
        ],
        ids=["amplify-with-speedup", "probes-with-translation"],
    )
    def test_flags_of_the_other_direction_are_refused(self, flags, err, tmp_path, capsys):
        out = tmp_path / "conv.json"
        argv = ["convert", "--real", "geometric:1", *flags]
        assert main(argv) == 2
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == err * 2
        assert not out.exists()

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_amplify_below_one_is_usage_error(self, k, capsys):
        assert main(
            [
                "convert",
                "--real", "geometric:1",
                "--translation", "affine:1/2",
                "--amplify", k,
            ]
        ) == 2
        assert "--amplify" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["speed-check", "--real", "geometric:1", "--translation", "affine:1/2", "--rho", "1/2"],
        ["convert", "--real", "geometric:1", "--translation", "affine:1/2"],
    ],
    ids=["speed-check", "convert-translation"],
)
def test_amplify_above_the_bound_is_usage_error(argv, tmp_path, capsys):
    # Every probe composes the map k times over k-bit integers, so the cost grows with k squared.
    out = tmp_path / "report.json"
    argv = argv + ["--horizon", "1", "--out", str(out)]
    assert main(argv + ["--amplify", str(MAX_HORIZON + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "amplification count must be <= 4096, got 4097\n"
    assert captured.out == ""
    assert not out.exists()
    assert main(argv + ["--amplify", str(MAX_HORIZON)]) == 0
    assert json.loads(out.read_text())


@pytest.mark.parametrize(
    "argv",
    [
        ["gallery"],
        ["speed-trace", "--real", "geometric:1", "--speedup", "linear:2"],
        ["speed-check", "--real", "geometric:1", "--translation", "affine:1/2", "--rho", "1/2"],
        ["convert", "--real", "geometric:1", "--speedup", "linear:2"],
        ["convert", "--real", "geometric:1", "--translation", "affine:1/2"],
    ],
    ids=["gallery", "speed-trace", "speed-check", "convert-speedup", "convert-translation"],
)
@pytest.mark.parametrize("horizon", [MAX_HORIZON + 1, 3_000_000])
def test_horizon_above_the_bound_is_usage_error(argv, horizon, tmp_path, capsys):
    # Each command holds horizon + 1 exact values, so 3,000,000 would exhaust memory.
    if argv == ["gallery"]:
        config = tmp_path / "gallery.json"
        config.write_text(dump_json([{"name": "g1", "kind": "geometric", "parameters": {"limit": "1"}}]))
        argv = ["gallery", "--config", str(config)]
    out = tmp_path / "report.json"
    assert main(argv + ["--horizon", str(horizon), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"horizon must be <= {MAX_HORIZON}, got {horizon}\n"
    assert captured.out == ""
    assert not out.exists()


class TestMachines:
    def test_build_then_check(self, tmp_path, three_code_file):
        built = tmp_path / "A.json"
        assert main(
            [
                "cmm-build",
                "--B", three_code_file,
                "--witness", "identity",
                "--c", "1",
                "--out", str(built),
            ]
        ) == 0
        doc = json.loads(built.read_text())
        assert doc["pad_length"] == 1 and len(doc["entries"]) == 6
        assert main(
            [
                "cmm-check",
                "--A", str(built),
                "--B", three_code_file,
                "--alpha", "set:evens",
                "--beta", "set:evens",
                "--c", "1",
                "--n-max", "8",
            ]
        ) == 0

    def test_measure_line_follows_the_written_report(self, tmp_path, three_code_file, capsys):
        argv = ["cmm-build", "--B", three_code_file, "--witness", "identity"]
        assert main(argv) == 0
        printed = capsys.readouterr()
        assert json.loads(printed.out)["pad_length"] == 1 and printed.err == "measure 1 (source 1)\n"
        assert main([*argv, "--out", str(tmp_path / "no-such-dir" / "A.json")]) == 2
        printed = capsys.readouterr()
        assert printed.out == "" and printed.err.startswith("i/o failure: ") and len(printed.err.splitlines()) == 1

    def test_pad_width_comes_from_the_witness(self, tmp_path):
        # Code 1**(n-1) 0 outputs the first n bits of 1/5; scaling by 3 has c = 4.
        source = tmp_path / "fifth.json"
        entries = [{"code": "1" * (n - 1) + "0", "output": format((1 << n) // 5, f"0{n}b")} for n in range(1, 17)]
        source.write_text(dump_json({"name": "fifth", "entries": entries}))
        built = tmp_path / "A.json"
        argv = ["cmm-build", "--B", str(source), "--witness", "scaling:3:forward", "--out", str(built)]
        assert main(argv) == 0
        assert json.loads(built.read_text())["pad_length"] == 3
        check = tmp_path / "check.json"
        argv = ["cmm-check", "--A", str(built), "--B", str(source), "--alpha", "geometric:3/5",
                "--beta", "geometric:1/5", "--c", "3", "--n-max", "16", "--out", str(check)]
        assert main(argv) == 0
        assert json.loads(check.read_text())["first_failure"] is None

    @pytest.mark.parametrize(
        "witness, c", [(["scaling:1/2:forward"], "7"), (["least", "--alpha", "geometric:5/8"], "3")]
    )
    def test_constant_for_a_witness_that_fixes_its_own_is_usage_error(self, witness, c, tmp_path, three_code_file, capsys):
        out = tmp_path / "A.json"
        argv = ["cmm-build", "--B", three_code_file, "--witness", *witness, "--c", c, "--out", str(out)]
        assert main(argv) == 2
        assert "--c sets the identity witness's constant" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", [None, ["x"], 5, True, {"n": "x"}])
    def test_machine_name_that_is_not_a_string_is_usage_error(self, name, tmp_path, three_code_file, capsys):
        # the name is written into the report as it is, so it must be text
        source = tmp_path / "named.json"
        source.write_text(json.dumps({"name": name, "entries": [{"code": "0", "output": "1"}, {"code": "1", "output": "0"}]}))
        message = f"name must be a string, got {name!r}\n"
        for argv in (
            ["cmm-build", "--B", str(source), "--witness", "identity"],
            ["cmm-check", "--A", three_code_file, "--B", str(source), "--alpha", "set:evens", "--beta", "set:evens"],
            ["check-witness", "--alpha", f"omega:{source}", "--beta", "geometric:1", "--witness", "identity"],
        ):
            out = tmp_path / "out.json"
            assert main([*argv, "--out", str(out)]) == 2
            assert capsys.readouterr() == ("", message)
            assert not out.exists()

    @pytest.mark.parametrize("c", ["1", "3", "7"])
    def test_identity_constant_sets_the_pad(self, c, tmp_path, three_code_file):
        out = tmp_path / "A.json"
        assert main(["cmm-build", "--B", three_code_file, "--witness", "identity", "--c", c, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["pad_length"] == {"1": 1, "3": 2, "7": 3}[c]

    def test_prefix_violation_is_usage_error(self, bad_machine_file, three_code_file, capsys):
        code = main(
            [
                "cmm-check",
                "--A", bad_machine_file,
                "--B", three_code_file,
                "--alpha", "set:evens",
                "--beta", "set:evens",
            ]
        )
        assert code == 2
        assert "prefix violation (0, 01)" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["code", "output"])
    @pytest.mark.parametrize("bad", ["012", "0_1", " 1", "\uff11", 1, [0, 1], None])
    def test_non_binary_code_or_output_is_usage_error(self, field, bad, tmp_path, three_code_file, capsys):
        machine = tmp_path / "A.json"
        machine.write_text(json.dumps({"entries": [{"code": "0", "output": "1", field: bad}]}))
        argv = ["cmm-check", "--A", str(machine), "--B", three_code_file, "--alpha", "set:evens", "--beta", "set:evens"]
        assert main(argv) == 2
        assert f"{field} must be a binary string" in capsys.readouterr().err

    @pytest.mark.parametrize("pad", [2.7, 1.0, True, "1", -3])
    def test_non_natural_pad_length_is_usage_error(self, pad, tmp_path, three_code_file, capsys):
        padded = tmp_path / "padded.json"
        padded.write_text(json.dumps({"entries": [{"code": "0", "output": "1"}], "pad_length": pad}))
        argv = ["cmm-check", "--A", str(padded), "--B", three_code_file, "--alpha", "set:evens", "--beta", "set:evens"]
        assert main(argv) == 2
        assert "pad_length must be an integer >= 0" in capsys.readouterr().err

    def test_failing_complexity_bound_exits_one(self, tmp_path, three_code_file):
        empty = tmp_path / "empty.json"
        empty.write_text(dump_json({"entries": []}))
        assert main(
            [
                "cmm-check",
                "--A", str(empty),
                "--B", three_code_file,
                "--alpha", "set:evens",
                "--beta", "set:evens",
            ]
        ) == 1

    @pytest.mark.parametrize("c, pads", [("1099511627776", 41), ("524287", 19)])
    def test_transport_past_the_code_cap_is_usage_error(self, c, pads, tmp_path, three_code_file, capsys):
        # Three codes with 2**19 pads each would be 1,572,864 codes; 2**41 pads would never end.
        out = tmp_path / "A.json"
        assert main(["cmm-build", "--B", three_code_file, "--witness", "identity", "--c", c, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"transporting 3 codes with 2**{pads} pads each refused (cap 2**20 codes)\n"
        assert captured.out == ""
        assert not out.exists()

    def test_removed_overflow_flag_is_usage_error(self, tmp_path, three_code_file, capsys):
        out = tmp_path / "A.json"
        argv = ["cmm-build", "--B", three_code_file, "--witness", "identity", "--overflow", "error", "--out", str(out)]
        assert main(argv) == 2
        assert "unrecognized arguments: --overflow error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "alpha, beta, message",
        [
            ("geometric:1", "set:evens", "alpha limit must lie in [0,1), got 1"),
            ("set:evens", "geometric:1", "beta limit must lie in [0,1), got 1"),
        ],
    )
    def test_limit_outside_the_unit_interval_is_usage_error(self, alpha, beta, message, tmp_path, three_code_file, capsys):
        # An empty B codes no prefix of beta, so no row would ever truncate alpha.
        empty = tmp_path / "empty.json"
        empty.write_text(dump_json({"entries": []}))
        out = tmp_path / "check.json"
        for b in (three_code_file, str(empty)):
            argv = ["cmm-check", "--A", three_code_file, "--B", b, "--alpha", alpha, "--beta", beta, "--out", str(out)]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err == message + "\n"
            assert captured.out == ""
            assert not out.exists()

    def test_n_max_past_the_bound_is_usage_error(self, tmp_path, three_code_file, capsys):
        # The bound is the horizon's; the check truncates both limits at every n <= n_max.
        out = tmp_path / "check.json"
        argv = ["cmm-check", "--A", three_code_file, "--B", three_code_file, "--alpha", "set:evens", "--beta", "set:evens"]
        assert main(argv + ["--n-max", str(MAX_HORIZON + 1), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "n_max must be <= 4096, got 4097\n"
        assert captured.out == ""
        assert not out.exists()
        assert main(argv + ["--n-max", str(MAX_HORIZON), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["first_failure"] is None


class TestGallery:
    def test_build_and_report(self, tmp_path):
        config = tmp_path / "gallery.json"
        config.write_text(
            dump_json(
                [
                    {"name": "g1", "kind": "geometric", "parameters": {"limit": "1"}},
                    {"name": "e", "kind": "set_real", "parameters": {"set": "evens"}},
                    {
                        "name": "s",
                        "kind": "staircase",
                        "parameters": {"limit": "1", "gaps": ["1", "1/3"], "tail_ratio": "1/2"},
                    },
                ]
            )
        )
        out = tmp_path / "report.json"
        assert main(["gallery", "--config", str(config), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert [e["name"] for e in doc["entries"]] == ["g1", "e", "s"]
        assert doc["entries"][1]["limit"] == "2/3"

    def test_set_real_without_a_set_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "gallery.json"
        config.write_text(dump_json([{"name": "e", "kind": "set_real", "parameters": {}}]))
        out = tmp_path / "report.json"
        assert main(["gallery", "--config", str(config), "--out", str(out)]) == 2
        assert "entry 0 ('e'): set_real supports the infinite periodic sets" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", [None, ["x"], 7, False])
    def test_entry_name_that_is_not_a_string_is_usage_error(self, name, tmp_path, capsys):
        # the name is written into the report as it is, so it must be text
        config = tmp_path / "gallery.json"
        config.write_text(json.dumps([{"name": "g", "kind": "geometric", "parameters": {"limit": "1"}},
                                      {"name": name, "kind": "geometric", "parameters": {"limit": "1"}}]))
        out = tmp_path / "report.json"
        assert main(["gallery", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"gallery entry 1: name must be a string, got {name!r}\n")
        assert not out.exists()
        # a machine's name inside an entry is named with its entry
        machine = {"name": name, "entries": [{"code": "0", "output": "1"}]}
        config.write_text(json.dumps([{"name": "o", "kind": "omega_toy", "parameters": {"machine": machine}}]))
        assert main(["gallery", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"gallery entry 0 ('o'): name must be a string, got {name!r}\n")
        assert not out.exists()

    def test_bad_config_reports_entry(self, tmp_path, capsys):
        config = tmp_path / "gallery.json"
        config.write_text(
            dump_json([{"name": "bad", "kind": "geometric", "parameters": {"limit": "1", "ratio": "3/2"}}])
        )
        assert main(["gallery", "--config", str(config)]) == 2
        assert "entry 0" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", [1.9, 2.7, True, "2", 0])
    def test_non_integer_halting_stage_is_usage_error(self, stage, tmp_path, capsys):
        config = tmp_path / "gallery.json"
        machine = {"entries": [{"code": "0", "output": "1"}, {"code": "10", "output": "1"}]}
        config.write_text(
            json.dumps([{"name": "o", "kind": "omega_toy", "parameters": {"machine": machine, "stages": {"0": stage}}}])
        )
        assert main(["gallery", "--config", str(config)]) == 2
        assert "halting stage for code '0' must be an integer >= 1" in capsys.readouterr().err

    def test_stage_for_a_missing_code_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "gallery.json"
        machine = {"entries": [{"code": "0", "output": "1"}, {"code": "10", "output": "1"}]}
        config.write_text(
            json.dumps([{"name": "o", "kind": "omega_toy", "parameters": {"machine": machine, "stages": {"0": 1, "11": 2}}}])
        )
        assert main(["gallery", "--config", str(config)]) == 2
        assert "entry 0 ('o'): halting stage given for code '11'" in capsys.readouterr().err

    def test_unknown_parameter_name_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "gallery.json"
        config.write_text(
            dump_json(
                [
                    {"name": "g1", "kind": "geometric", "parameters": {"limit": "1"}},
                    {"name": "g2", "kind": "geometric", "parameters": {"limit": "1", "ratoi": "3/4"}},
                ]
            )
        )
        assert main(["gallery", "--config", str(config)]) == 2
        assert "entry 1 ('g2'): geometric has no parameter 'ratoi'" in capsys.readouterr().err

    def test_stages_must_be_an_object(self, tmp_path, capsys):
        config = tmp_path / "gallery.json"
        machine = {"entries": [{"code": "0", "output": "1"}]}
        config.write_text(
            json.dumps([{"name": "o", "kind": "omega_toy", "parameters": {"machine": machine, "stages": [1]}}])
        )
        assert main(["gallery", "--config", str(config)]) == 2
        assert "entry 0" in capsys.readouterr().err

    @pytest.mark.parametrize("parameters", [[["limit", "1"]], "x"])
    def test_parameters_must_be_an_object(self, parameters, tmp_path, capsys):
        # A list of pairs would otherwise be read as a dict, and a string fail inside dict().
        config = tmp_path / "gallery.json"
        config.write_text(json.dumps([{"name": "g", "kind": "geometric", "parameters": parameters}]))
        out = tmp_path / "report.json"
        assert main(["gallery", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"gallery entry 0 ('g'): parameters must be an object, got {parameters!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("gaps", ["21", {"0": "1"}, "1/2"])
    def test_staircase_gaps_must_be_a_list(self, gaps, tmp_path, capsys):
        # A string would otherwise be read one character per gap: "21" as [2, 1].
        config = tmp_path / "gallery.json"
        config.write_text(
            json.dumps([{"name": "s", "kind": "staircase", "parameters": {"limit": "3", "gaps": gaps}}])
        )
        out = tmp_path / "report.json"
        assert main(["gallery", "--config", str(config), "--out", str(out)]) == 2
        assert f"entry 0 ('s'): staircase gaps must be a list of rationals, got {gaps!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, parameters, missing",
        [
            ("geometric", {"ratio": "1/2"}, "limit"),
            ("staircase", {"gaps": ["1"]}, "limit"),
            ("staircase", {"limit": "1"}, "gaps"),
            ("omega_toy", {"stages": {}}, "machine"),
        ],
    )
    def test_missing_parameter_is_named(self, kind, parameters, missing, tmp_path, capsys):
        config = tmp_path / "gallery.json"
        config.write_text(json.dumps([{"name": "g", "kind": kind, "parameters": parameters}]))
        out = tmp_path / "report.json"
        assert main(["gallery", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"gallery entry 0 ('g'): {kind} needs parameter {missing!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("horizon", ["0", "-1"])
    def test_horizon_below_one_is_usage_error(self, tmp_path, horizon, capsys):
        config = tmp_path / "gallery.json"
        config.write_text(dump_json([{"name": "g1", "kind": "geometric", "parameters": {"limit": "1"}}]))
        out = tmp_path / "report.json"
        assert main(["gallery", "--config", str(config), "--horizon", horizon, "--out", str(out)]) == 2
        assert f"horizon must be >= 1, got {horizon}" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_without_subcommand(self):
        assert main([]) == 2


class TestUndecodableInput:
    """An input file that is not UTF-8 is bad input, named as such; it is not
    blamed on the report (UnicodeDecodeError is a ValueError)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["cmm-build", "--B", "{bad}", "--witness", "identity"],
            ["gallery", "--config", "{bad}"],
            ["cmm-check", "--A", "{bad}", "--B", "{good}", "--alpha", "set:evens", "--beta", "set:evens"],
            ["cmm-check", "--A", "{good}", "--B", "{bad}", "--alpha", "set:evens", "--beta", "set:evens"],
            ["check-witness", "--alpha", "geometric:1/2", "--beta", "omega:{bad}", "--witness", "identity"],
        ],
        ids=["cmm-build-B", "gallery-config", "cmm-check-A", "cmm-check-B", "omega-file"],
    )
    def test_non_utf8_file_is_bad_input(self, argv, tmp_path, three_code_file, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe")
        out = tmp_path / "out.json"
        argv = [arg.format(bad=bad, good=three_code_file) for arg in argv]
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("bad JSON input: "), captured.err
        assert captured.out == ""
        assert not out.exists()

    # Each input file is read as UTF-8 whatever the locale: under the POSIX
    # locale with UTF-8 mode off, a UTF-8 name loads and Latin-1 bytes do not.
    @pytest.mark.parametrize(
        "argv, document, code",
        [
            (["cmm-build", "--B", "{path}", "--witness", "identity"], {"name": "{name}", "entries": [{"code": "0", "output": "1"}]}, 0),
            (["gallery", "--config", "{path}"], [{"name": "{name}", "kind": "geometric", "parameters": {"limit": "1"}}], 0),
            (["check-witness", "--alpha", "omega:{path}", "--beta", "geometric:1", "--witness", "identity", "--grid-depth", "2"], {"name": "{name}", "entries": [{"code": "0", "output": "1"}]}, 1),
        ],
        ids=["cmm-build-B", "gallery-config", "omega-file"],
    )
    @pytest.mark.parametrize("encoding, failure", [("utf-8", None), ("latin-1", "bad JSON input: 'utf-8' codec can't decode byte 0xe9")])
    def test_input_is_utf8_under_the_posix_locale(self, argv, document, code, encoding, failure, tmp_path):
        path = tmp_path / "input.json"
        path.write_bytes(json.dumps(document, ensure_ascii=False).replace("{name}", "caf\u00e9").encode(encoding))
        done = run_fresh([arg.format(path=path) for arg in argv], tmp_path, PYTHONUTF8="0", LC_ALL="POSIX")
        if failure is None:
            assert (done.returncode, done.stderr.startswith("bad JSON input")) == (code, False), done.stderr
        else:
            assert done.returncode == 2 and done.stderr.startswith(failure), done.stderr
            assert done.stdout == ""


class TestIntegerText:
    """Every integer in a flag, a spec or a JSON string is an optional sign and
    ASCII digits: the underscores and non-ASCII digits ``int`` also reads are
    refused with exit 2, and nothing is written."""

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["check-witness", "--alpha", "geometric:1/2", "--beta", "geometric:1/4", "--witness", "identity", "--grid-depth", "\u0661_0"], "argument --grid-depth: invalid int value: '\u0661_0'"),
            (["check-witness", "--alpha", "geometric:1/2", "--beta", "geometric:1/4", "--witness", "identity", "--grid-depth", "1_0"], "argument --grid-depth: invalid int value: '1_0'"),
            (["check-witness", "--alpha", "geometric:1/2", "--beta", "geometric:1/4", "--witness", "identity", "--samples", "\uff16\uff14"], "argument --samples: invalid int value: '\uff16\uff14'"),
            (["check-witness", "--alpha", "geometric:1/2", "--beta", "geometric:1/4", "--witness", "identity", "--c", "\uff12"], "not an exact integer: '\uff12'"),
            (["check-witness", "--alpha", "geometric:\uff11/\uff12", "--beta", "geometric:1/4", "--witness", "identity"], "not an exact integer: '\uff11'"),
            (["check-witness", "--alpha", "geometric:\u0663/4", "--beta", "geometric:1", "--witness", "identity"], "not an exact integer: '\u0663'"),
            (["check-witness", "--alpha", "geometric:1", "--beta", "geometric:1", "--witness", "scaling:1_0:forward"], "not an exact integer: '1_0'"),
            (["speed-trace", "--real", "geometric:1", "--speedup", "linear:1_0"], "linear speed-up needs an integer factor, got '1_0'"),
            (["speed-trace", "--real", "geometric:1", "--speedup", "linear:2", "--horizon", "1_0"], "argument --horizon: invalid int value: '1_0'"),
            (["speed-check", "--real", "geometric:1", "--translation", "affine:1/2", "--rho", "1/2", "--amplify", "\uff12"], "argument --amplify: must be an integer >= 1, got '\uff12'"),
            (["convert", "--real", "geometric:1", "--translation", "affine:1/2", "--amplify", "2_0"], "argument --amplify: must be an integer >= 1, got '2_0'"),
            (["convert", "--real", "geometric:1", "--speedup", "linear:2", "--probes", "1/2,1_0/3"], "not an exact integer: '1_0'"),
        ],
    )
    def test_lenient_integer_forms_are_refused(self, argv, err, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert err in captured.err and captured.out == ""
        assert not out.exists()

    def test_lenient_integer_forms_in_a_gallery_file_are_refused(self, tmp_path, capsys):
        config, out = tmp_path / "gallery.json", tmp_path / "out.json"
        config.write_text(json.dumps([{"name": "g", "kind": "geometric", "parameters": {"limit": "\uff11/\uff12"}}]), encoding="utf-8")
        assert main(["gallery", "--config", str(config), "--out", str(out)]) == 2
        assert "not an exact integer: '\uff11'" in capsys.readouterr().err
        assert not out.exists()

    def test_signed_ascii_integers_still_read(self, tmp_path):
        signed, plain = tmp_path / "signed.json", tmp_path / "plain.json"
        argv = ["check-witness", "--alpha", "geometric:+1/2", "--beta", "geometric: 1/4 ", "--witness", "identity", "--c", "+1", "--grid-depth", "+3"]
        assert main(argv + ["--out", str(signed)]) == 1
        argv = ["check-witness", "--alpha", "geometric:1/2", "--beta", "geometric:1/4", "--witness", "identity", "--c", "1", "--grid-depth", "3"]
        assert main(argv + ["--out", str(plain)]) == 1
        assert signed.read_bytes() == plain.read_bytes()


class TestParserReuse:
    """``main`` builds its parser once per process; later calls must behave
    as if each ran in a fresh process."""

    def test_a_flag_does_not_carry_over(self, tmp_path, three_code_file):
        out = tmp_path / "A.json"
        argv = ["cmm-build", "--B", three_code_file, "--witness", "identity", "--out", str(out)]
        assert main(argv + ["--c", "3"]) == 0
        assert json.loads(out.read_text())["pad_length"] == 2
        assert main(argv) == 0
        assert json.loads(out.read_text())["pad_length"] == 1

    def test_a_usage_error_leaves_the_next_call_unchanged(self, tmp_path, three_code_file, capsys):
        assert main(["cmm-build", "--B", three_code_file]) == 2
        assert main(["cmm-build", "--B", three_code_file, "--witness", "identity", "--overflow", "clamp"]) == 2
        capsys.readouterr()
        argv = ["cmm-build", "--B", three_code_file, "--witness", "identity", "--c", "7"]
        assert main(argv) == 0
        got = capsys.readouterr()
        fresh = run_fresh(argv, tmp_path)
        assert fresh.returncode == 0
        assert (got.out, got.err) == (fresh.stdout, fresh.stderr)

    def test_help_exits_zero_and_the_parser_still_works(self, tmp_path, three_code_file, capsys):
        assert main(["--help"]) == 0
        assert main(["cmm-check", "--help"]) == 0
        assert "--n-max" in capsys.readouterr().out
        out = tmp_path / "A.json"
        assert main(["cmm-build", "--B", three_code_file, "--witness", "identity", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["pad_length"] == 1

    def test_every_subcommand_twice_matches_a_fresh_run(self, tmp_path, three_code_file):
        gallery = tmp_path / "gallery.json"
        gallery.write_text(json.dumps([{"name": "g", "kind": "geometric", "parameters": {"limit": "1"}}]))
        runs = [
            ["gallery", "--config", str(gallery), "--horizon", "6"],
            ["check-witness", "--alpha", "geometric:1/2", "--beta", "geometric:1/4", "--witness", "identity",
             "--c", "1", "--samples", "16"],
            ["speed-trace", "--real", "geometric:1", "--speedup", "linear:2", "--horizon", "6", "--rho", "1/4"],
            ["speed-check", "--real", "geometric:1", "--translation", "affine:1/2", "--rho", "1/4", "--amplify", "2"],
            ["convert", "--real", "geometric:1", "--speedup", "linear:2", "--probes", "1/2,3/4"],
            ["cmm-build", "--B", three_code_file, "--witness", "scaling:3:forward"],
            ["cmm-check", "--A", three_code_file, "--B", three_code_file, "--alpha", "set:evens",
             "--beta", "set:evens", "--c", "0", "--n-max", "6"],
        ]
        for argv in runs:
            fresh = run_fresh([*argv, "--out", str(tmp_path / "fresh.json")], tmp_path)
            for attempt in (1, 2):
                out = tmp_path / f"in-process-{attempt}.json"
                assert main([*argv, "--out", str(out)]) == fresh.returncode, argv
                assert out.read_bytes() == (tmp_path / "fresh.json").read_bytes(), argv


def stdlib_form(text: str) -> str:
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


class TestDeterministicReports:
    """The same inputs give byte-identical report files, in json.dumps's layout."""

    @pytest.fixture
    def wide_machine_file(self, tmp_path):
        # all 2**7 codes of width 7; the first ones code prefixes of set:evens
        entries = [
            {"code": format(j, "07b"), "output": ("10" * 8)[: j + 1] if j < 16 else format(j * 37 % 101, "b")}
            for j in range(1 << 7)
        ]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"name": "wide", "entries": entries}))
        return str(path)

    def run_twice(self, tmp_path, name, argv, expect):
        texts = []
        for attempt in (1, 2):
            out = tmp_path / f"{name}-{attempt}.json"
            assert main(argv + ["--out", str(out)]) == expect
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]
        text = texts[0].decode("ascii")
        assert text == stdlib_form(text)
        return tmp_path / f"{name}-1.json", json.loads(text)

    def test_violating_check_witness(self, tmp_path):
        argv = [
            "check-witness",
            "--alpha", "geometric:11/8",
            "--beta", "geometric:1",
            "--witness", "identity",
            "--c", "3/2",
            "--samples", "600",
        ]
        _, doc = self.run_twice(tmp_path, "check", argv, expect=1)
        assert len(doc["violations"]) > 300

    def test_cmm_build_and_check(self, tmp_path, wide_machine_file):
        built, doc = self.run_twice(
            tmp_path, "build", ["cmm-build", "--B", wide_machine_file, "--witness", "identity", "--c", "3"], expect=0
        )
        assert len(doc["entries"]) == 4 << 7
        _, doc = self.run_twice(
            tmp_path,
            "check",
            [
                "cmm-check",
                "--A", str(built),
                "--B", wide_machine_file,
                "--alpha", "set:evens",
                "--beta", "set:evens",
                "--c", "2",
                "--n-max", "16",
            ],
            expect=0,
        )
        assert len(doc["rows"]) == 16
