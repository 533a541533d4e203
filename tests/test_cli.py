"""Command-line interface: parsing, reports, exit codes, self checks."""

import json

import numpy as np
import pytest

from ifmsim import cli, core, experiment, verify
from ifmsim.cli import EXIT_MISMATCH, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, RunConfig, main
from ifmsim.core import space_dim


def reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestParsing:
    def test_valid_run_config(self):
        command, cfg = cli.parse_config(
            ["run", "--scheme", "multipixel-zeno", "--d", "4", "--N", "100",
             "--pattern", "1010"]
        )
        assert command == "run"
        assert cfg.scheme == "multipixel-zeno"
        assert cfg.d == 4
        assert cfg.n_cycles == 100
        assert cfg.pixel_pattern().f == (1, 0, 1, 0)

    def test_pattern_length_mismatch(self, capsys):
        code = main(["run", "--scheme", "multipixel-zeno", "--d", "4",
                     "--N", "10", "--pattern", "10"])
        assert code == EXIT_USAGE
        assert "pattern length 2 does not match d=4" in capsys.readouterr().err

    def test_missing_pattern(self, capsys):
        code = main(["run", "--scheme", "multipixel-zeno", "--d", "4", "--N", "10"])
        assert code == EXIT_USAGE
        assert "pattern" in capsys.readouterr().err

    def test_transmissions_config(self):
        _, cfg = cli.parse_config(
            ["run", "--scheme", "semitransparent-zeno", "--d", "2", "--N", "10",
             "--transmissions", "0.1,0.9"]
        )
        assert cfg.pixel_pattern().transmissions == (0.1, 0.9)

    def test_transmission_out_of_range(self, capsys):
        code = main(["run", "--scheme", "semitransparent-zeno", "--d", "1",
                     "--N", "10", "--transmissions", "1.5"])
        assert code == EXIT_USAGE
        assert "transmissions" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--frobnicate"])
        assert excinfo.value.code == 2

    def test_config_file_with_flag_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "scheme": "multipixel-zeno", "d": 2, "N": 4, "pattern": "10", "seed": 5,
        }))
        _, cfg = cli.parse_config(["run", "--config", str(path), "--N", "8"])
        assert cfg.scheme == "multipixel-zeno"
        assert cfg.n_cycles == 8
        assert cfg.seed == 5

    @pytest.mark.parametrize("entry, field", [
        ({"pattern": 1010}, "pattern"),
        ({"format": "xml"}, "format"),
        ({"d": "4"}, "d"),
        ({"N": 2.7}, "N"),
        ({"n": 10}, "n"),
    ])
    def test_config_file_values_checked_like_flags(self, tmp_path, capsys, entry, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"scheme": "multipixel-zeno", "d": 4, "N": 10, "pattern": "1010", **entry}))
        code = main(["run", "--config", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith(f"usage error: config: {field}: ")
        assert "Traceback" not in captured.err

    def test_run_rejects_sweep_axes(self, capsys):
        code = main(["run", "--scheme", "multipixel-zeno", "--d", "2",
                     "--pattern", "10", "--sweep-N", "10,20"])
        assert code == EXIT_USAGE
        assert "sweep" in capsys.readouterr().err

    def test_config_round_trip(self):
        cfg = RunConfig(scheme="multipixel-zeno", d=4, n_cycles=10, pattern="1010",
                        shots=1000, seed=3)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_round_trip_with_transmissions(self):
        cfg = RunConfig(scheme="semitransparent-zeno", d=2, n_cycles=50,
                        transmissions=(0.1, 0.9), sweep_t=(0.0, 0.5))
        assert RunConfig.from_dict(cfg.to_dict()) == cfg


class TestCmdRun:
    def test_ev_present_report(self, capsys):
        code, report = run_json(capsys, [
            "run", "--scheme", "ev-single-pass", "--d", "1", "--pattern", "1"])
        assert code == EXIT_OK
        assert report["p_abs"] == 0.5
        assert report["detectors"]["D0"] == 0.25
        assert report["analytic"]["exact"]["D1"] == 0.25
        assert report["analytic"]["efficiency"] == 0.25

    def test_hand_evaluated_survival(self, capsys):
        code, report = run_json(capsys, [
            "run", "--scheme", "multipixel-zeno", "--d", "2", "--N", "2",
            "--pattern", "10"])
        assert code == EXIT_OK
        assert report["survival"] == 0.625
        assert [rec["cycle"] for rec in report["trace"]] == [1, 2]

    def test_all_transparent_has_zero_absorption(self, capsys):
        code, report = run_json(capsys, [
            "run", "--scheme", "multipixel-zeno", "--d", "4", "--N", "50",
            "--pattern", "0000"])
        assert code == EXIT_OK
        assert report["p_abs"] == 0.0

    def test_report_config_round_trips(self, capsys):
        argv = ["run", "--scheme", "multipixel-zeno", "--d", "2", "--N", "4",
                "--pattern", "01", "--seed", "9"]
        _, report = run_json(capsys, argv)
        _, cfg = cli.parse_config(argv)
        assert RunConfig.from_dict(report["config"]) == cfg

    def test_csv_format(self, capsys):
        code = main(["run", "--scheme", "ev-single-pass", "--d", "1",
                     "--pattern", "0", "--format", "csv"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "quantity,value"
        assert any(line.startswith("D0,") for line in lines)

    def test_output_file(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["run", "--scheme", "ev-single-pass", "--d", "1",
                     "--pattern", "1", "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["p_abs"] == 0.5


class TestCmdSweep:
    def test_cycle_sweep_absorption_decreases(self, capsys):
        code = main(["sweep", "--scheme", "zeno-single-pixel", "--d", "1",
                     "--pattern", "1", "--sweep-N", "10,100,1000",
                     "--format", "csv"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        header = lines[0].split(",")
        col = header.index("exact_p_abs")
        values = [float(line.split(",")[col]) for line in lines[1:]]
        assert len(values) == 3
        assert values[0] > values[1] > values[2]
        for n, v in zip((10, 100, 1000), values):
            leading = np.pi**2 / (4 * n)
            assert v == pytest.approx(leading, abs=leading**2)

    def test_transmission_sweep_gap_grows(self, capsys):
        code, report = run_json(capsys, [
            "sweep", "--scheme", "semitransparent-zeno", "--d", "1",
            "--N", "10000", "--sweep-T", "0,0.25,0.5"])
        assert code == EXIT_OK
        gaps = [row["gap_D0_h"] for row in report["rows"]]
        assert gaps[0] < gaps[1] < gaps[2]

    def test_single_point_sweep(self, capsys):
        code, report = run_json(capsys, [
            "sweep", "--scheme", "multipixel-zeno", "--d", "2",
            "--pattern", "10", "--sweep-N", "16"])
        assert code == EXIT_OK
        assert len(report["rows"]) == 1

    def test_semitransparent_single_pixel_sweep_is_the_d1_cycling_sweep(self, capsys):
        argv = ["sweep", "--d", "1", "--transmissions", "0.5", "--sweep-N", "2,4"]
        code, single = run_json(capsys, argv + ["--scheme", "zeno-single-pixel"])
        assert code == EXIT_OK
        _, multi = run_json(capsys, argv + ["--scheme", "semitransparent-zeno"])
        names = {"D0_h": "Dh", "D0_v": "Dv"}
        for row, ref in zip(single["rows"], multi["rows"], strict=True):
            expected = {}
            for key, value in ref.items():
                prefix, _, label = key.partition("_")
                expected[f"{prefix}_{names[label]}" if label in names else key] = value
            expected["scheme"] = "zeno-single-pixel"
            assert row == expected

    def test_empty_axis_rejected(self, capsys):
        code = main(["sweep", "--scheme", "multipixel-zeno", "--d", "2",
                     "--pattern", "10"])
        assert code == EXIT_USAGE

    def test_two_axes_rejected(self, capsys):
        code = main(["sweep", "--scheme", "semitransparent-zeno", "--d", "1",
                     "--pattern", "1", "--sweep-N", "10", "--sweep-T", "0.5"])
        assert code == EXIT_USAGE


class TestCmdShots:
    def test_end_to_end_reconstruction(self, capsys):
        code, report = run_json(capsys, [
            "shots", "--scheme", "multipixel-zeno", "--d", "4", "--N", "100",
            "--pattern", "1010", "--shots", "100000", "--seed", "1"])
        assert code == EXIT_OK
        assert report["reconstruction"]["verdicts"] == [
            "opaque", "transparent", "opaque", "transparent"]
        assert report["pattern_match"] is True
        assert report["violations"] == []

    def test_single_shot_mostly_unknown(self, capsys):
        code, report = run_json(capsys, [
            "shots", "--scheme", "multipixel-zeno", "--d", "4", "--N", "10",
            "--pattern", "1010", "--shots", "1", "--seed", "0"])
        assert code == EXIT_MISMATCH
        assert report["shots"] == 1
        total_clicks = sum(report["counts"].values()) + report["absorbed"]
        assert total_clicks == 1
        assert report["reconstruction"]["verdicts"].count("unknown") >= 3

    def test_seeded_rerun_is_byte_identical(self, tmp_path):
        args = ["shots", "--scheme", "ev-single-pass", "--d", "1",
                "--pattern", "1", "--shots", "5000", "--seed", "3",
                "--format", "csv"]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(args + ["--out", str(out_a)]) == EXIT_OK
        assert main(args + ["--out", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seeded_json_report_is_byte_identical(self, tmp_path):
        out = tmp_path / "report.json"
        args = ["shots", "--scheme", "multipixel-zeno", "--d", "2", "--N", "20",
                "--pattern", "10", "--shots", "2000", "--seed", "5",
                "--out", str(out)]
        assert main(args) == EXIT_OK
        first = out.read_bytes()
        assert main(args) == EXIT_OK
        assert out.read_bytes() == first

    def test_semitransparent_estimation_report(self, capsys):
        code, report = run_json(capsys, [
            "shots", "--scheme", "semitransparent-zeno", "--d", "2", "--N", "100",
            "--transmissions", "0.1,0.9", "--shots", "100000", "--seed", "2"])
        assert code == EXIT_OK
        estimates = report["reconstruction"]["transmission_estimates"]
        assert estimates[0] < estimates[1]
        assert report["pattern_match"] is None

    def test_unitary_run_reports_zero_absorption_as_strict_json(self, capsys):
        # Rounding drifted this run's norm above 1, which used to come out
        # as p_abs = -4e-13 and a bare NaN z-score for the absorbed outcome.
        code = main(["shots", "--scheme", "multipixel-zeno", "--d", "8", "--N", "5000",
                     "--pattern", "00000000", "--shots", "1000"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert report["exact"]["p_abs"] == 0.0
        assert report["violations"] == []

    def test_non_finite_value_exits_numeric_without_output(self, monkeypatch, capsys):
        monkeypatch.setattr(experiment, "statistical_check",
                            lambda counts, dist: experiment.StatCheck({"D0_h": float("nan")}, ()))
        code = main(["shots", "--scheme", "multipixel-zeno", "--d", "2", "--N", "20",
                     "--pattern", "10", "--shots", "1000"])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERIC
        assert captured.out == ""
        assert "non-finite" in captured.err

    def test_zero_shots_rejected(self, capsys):
        code = main(["shots", "--scheme", "ev-single-pass", "--d", "1",
                     "--pattern", "1", "--shots", "0"])
        assert code == EXIT_USAGE


@pytest.mark.parametrize("argv, message", [
    (["run", "--scheme", "multipixel-zeno", "--d", "2", "--N", "4", "--pattern", "10",
      "--out", "MISSING_DIR/x.json"], "out: cannot write"),
    (["shots", "--scheme", "multipixel-zeno", "--d", "2", "--N", "4", "--pattern", "10",
      "--shots", "100", "--seed", "-1"], "seed must be >= 0"),
])
def test_bad_output_path_or_seed_is_a_usage_error(tmp_path, capsys, argv, message):
    argv = [a.replace("MISSING_DIR", str(tmp_path / "missing")) for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert message in captured.err
    assert captured.out == ""


class TestCmdVerify:
    def test_all_checks_pass_and_are_listed(self, capsys):
        code = main(["verify"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        for name in ("ev-outcomes", "zeno-single-outcomes", "single-pass-outcomes",
                     "zeno-multipixel-outcomes", "swap-identity", "telescoping",
                     "michelson-equivalence", "oracle-equivalence"):
            assert f"PASS {name}" in out

    def test_injected_rotator_sign_error_fails_unitarity(self, monkeypatch):
        def broken_rotator(theta, d):
            c, s = np.cos(theta), np.sin(theta)
            sites = np.arange(space_dim(d)).reshape(2, -1)
            return core.block_op(d, np.array([[c, s], [s, c]]), sites[0], sites[1], "R(broken)")

        monkeypatch.setattr(core, "polarisation_rotator", broken_rotator)
        result = verify.check_unitarity()
        assert not result.passed
        # The check must catch the fault, not crash on the broken element.
        assert result.detail.startswith("max norm drift")

    def test_failing_check_gives_numeric_exit_code(self, monkeypatch, capsys):
        def broken_rotator(theta, d):
            c, s = np.cos(theta), np.sin(theta)
            sites = np.arange(space_dim(d)).reshape(2, -1)
            return core.block_op(d, np.array([[c, s], [s, c]]), sites[0], sites[1], "R(broken)")

        monkeypatch.setattr(core, "polarisation_rotator", broken_rotator)
        code = main(["verify"])
        out = capsys.readouterr().out
        assert code == EXIT_NUMERIC
        # Caught by the check, not reported as "raised ...".
        assert "FAIL unitarity: max norm drift" in out

    def test_verify_json_format(self, capsys):
        code, report = run_json(capsys, ["verify", "--format", "json"])
        assert code == EXIT_OK
        names = {check["name"] for check in report["checks"]}
        assert "unitarity" in names
        assert all(check["passed"] for check in report["checks"])
