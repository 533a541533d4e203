"""Command-line interface: parsing, reports, exit codes, self checks."""

import argparse
import collections
import io
import json
import math
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ifmsim import analytics, cli, core, experiment, verify
from ifmsim.cli import EXIT_MISMATCH, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, RunConfig, main
from ifmsim.core import PixelPattern
from ifmsim.schemes import KINDS, SchemeConfig, SchemeTrace, build_scheme, run_scheme


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

    def test_config_key_in_both_spellings_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        base = {"scheme": "multipixel-zeno", "d": 2, "pattern": "10"}
        path.write_text(json.dumps({**base, "sweep_N": [5, 6, 7]}))
        assert cli.parse_config(["sweep", "--config", str(path)])[1].sweep_n == (5, 6, 7)
        path.write_text(json.dumps({**base, "sweep-N": [1, 2], "sweep_N": [5, 6, 7]}))
        code = main(["sweep", "--config", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("usage error: config: sweep-N: ")

    def test_run_rejects_sweep_axes(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--scheme", "multipixel-zeno", "--d", "2",
                  "--pattern", "10", "--sweep-N", "10,20"])
        assert excinfo.value.code == EXIT_USAGE
        assert "--sweep-N" in capsys.readouterr().err

    def test_config_round_trip(self):
        cfg = RunConfig(scheme="multipixel-zeno", d=4, n_cycles=10, pattern="1010",
                        shots=1000, seed=3)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_round_trip_with_transmissions(self):
        cfg = RunConfig(scheme="semitransparent-zeno", d=2, n_cycles=50,
                        transmissions=(0.1, 0.9), sweep_t=(0.0, 0.5))
        assert RunConfig.from_dict(cfg.to_dict()) == cfg


# The flags each subcommand takes besides --config, written out apart from
# cli.FIELDS so that the table there is checked against it.
SCHEME_FLAGS = ["--scheme", "--d", "--N", "--pattern", "--transmissions", "--format", "--out"]
TAKES = {
    "run": SCHEME_FLAGS,
    "sweep": [*SCHEME_FLAGS, "--sweep-N", "--sweep-T"],
    "shots": [*SCHEME_FLAGS, "--shots", "--seed"],
    "verify": ["--format", "--out"],
}
# A command each subcommand accepts, and a value each flag accepts.
ACCEPTED = {
    "run": ["run", "--scheme", "multipixel-zeno", "--d", "2", "--N", "4", "--pattern", "10"],
    "sweep": ["sweep", "--scheme", "multipixel-zeno", "--d", "2", "--pattern", "10",
              "--sweep-N", "1,2"],
    "shots": ["shots", "--scheme", "multipixel-zeno", "--d", "2", "--N", "4", "--pattern", "10",
              "--shots", "100"],
    "verify": ["verify"],
}
FLAG_VALUE = {"--scheme": "multipixel-zeno", "--d": "3", "--N": "4", "--pattern": "10",
              "--transmissions": "0.5,1", "--shots": "9", "--seed": "9", "--sweep-N": "2",
              "--sweep-T": "0.5", "--format": "json", "--out": "report.json"}
FOREIGN = [(command, flag) for command, flags in TAKES.items()
           for flag in FLAG_VALUE if flag not in flags]


def subparser_flags() -> dict[str, set[str]]:
    """The option strings of each subparser of the shared parser."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {s for a in p._actions for s in a.option_strings}
            for name, p in sub.choices.items()}


class TestCommandFlags:
    def test_subparsers_take_the_fields_they_read(self):
        flags = subparser_flags()
        assert flags == {
            command: {"-h", "--help", "--config",
                      *(f"--{f.key}" for f in cli.FIELDS if command in f.commands)}
            for command in cli.COMMANDS}
        assert {command: flags[command] - {"-h", "--help", "--config"}
                for command in flags} == {command: set(t) for command, t in TAKES.items()}
        assert sum(len(f) - 2 for f in flags.values()) == 31
        assert len(FOREIGN) == 17

    @pytest.mark.parametrize("command", TAKES)
    def test_accepted_command_parses(self, command):
        assert cli.parse_config(ACCEPTED[command])[0] == command

    @pytest.mark.parametrize("command, flag", FOREIGN)
    def test_foreign_flag_exits_two(self, capsys, command, flag):
        with pytest.raises(SystemExit) as excinfo:
            main([*ACCEPTED[command], flag, FLAG_VALUE[flag]])
        captured = capsys.readouterr()
        assert excinfo.value.code == EXIT_USAGE
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} {FLAG_VALUE[flag]}" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", TAKES)
    def test_config_file_may_hold_every_key(self, tmp_path, command):
        path = tmp_path / "cfg.json"
        data = {"scheme": "multipixel-zeno", "d": 2, "N": 4, "pattern": "10",
                "transmissions": [0.5, 1.0], "shots": 100, "seed": 3, "sweep-N": [1, 2],
                "sweep-T": [0.5], "format": "json", "out": str(tmp_path / "report.json")}
        assert [f.key for f in cli.FIELDS] == list(data)
        path.write_text(json.dumps(data))
        assert cli.parse_config([command, "--config", str(path)]) == (
            command, RunConfig.from_dict(data))

    @pytest.mark.parametrize("command", ["run", "shots"])
    def test_config_keys_of_other_commands_are_ignored(self, tmp_path, capsys, command):
        argv = [command, "--scheme", "multipixel-zeno", "--d", "2", "--N", "4",
                "--pattern", "10"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sweep-N": [1, 2], "sweep-T": [0.5], "seed": 0}))
        code, plain = run_json(capsys, argv)
        assert code == EXIT_OK
        code, report = run_json(capsys, [*argv, "--config", str(path)])
        assert code == EXIT_OK
        assert report.pop("config") == {**plain.pop("config"), "sweep-N": [1, 2],
                                        "sweep-T": [0.5]}
        assert report == plain


class TestSharedParser:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_flags_do_not_leak_into_the_next_parse(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 7}))
        _, first = cli.parse_config(
            ["run", "--scheme", "semitransparent-zeno", "--d", "2", "--N", "40",
             "--transmissions", "0.1,0.9", "--config", str(path)])
        assert (first.n_cycles, first.transmissions, first.seed) == (40, (0.1, 0.9), 7)
        command, second = cli.parse_config(["sweep", "--d", "2", "--pattern", "10"])
        assert command == "sweep"
        assert second == RunConfig(d=2, pattern="10")

    def test_bad_flag_leaves_the_next_parse_correct(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.parse_config(["run", "--d", "2", "--frobnicate"])
        assert excinfo.value.code == 2
        capsys.readouterr()
        command, cfg = cli.parse_config(["shots", "--N", "3"])
        assert command == "shots"
        assert cfg == RunConfig(n_cycles=3)


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

    def test_report_config_round_trips(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 9}))
        argv = ["run", "--scheme", "multipixel-zeno", "--d", "2", "--N", "4",
                "--pattern", "01", "--config", str(path)]
        _, report = run_json(capsys, argv)
        assert report["config"]["seed"] == 9
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

    def test_single_pass_semi_transparent_run_has_no_exact_table(self, capsys):
        code, report = run_json(capsys, [
            "run", "--scheme", "multipixel-single-pass", "--d", "2",
            "--transmissions", "0.5,1"])
        assert code == EXIT_OK
        assert report["analytic"]["exact"] is None
        assert report["analytic"]["p_abs"] is None

    def test_asymptotic_block_is_null_where_it_is_no_probability(self, capsys):
        # At N = 3 the expansion gives D0_v = 46.8 and asymptotic_p_abs = -29.6.
        code, report = run_json(capsys, ["run", "--scheme", "multipixel-zeno", "--d", "2",
                                         "--N", "3", "--transmissions", "0.9,0.5"])
        assert code == EXIT_OK
        assert report["analytic"]["asymptotic"] is None
        assert "asymptotic_p_abs" not in report["analytic"]
        assert report["analytic"]["exact"] is not None

    def test_oracle_fault_exits_numeric(self, monkeypatch, capsys):
        # The exact table used to be dropped on any ValueError, so a fault
        # in the closed form was reported as "exact": null with exit 0.
        def broken(config):
            raise ValueError("oracle fault")

        monkeypatch.setattr(analytics, "exact_distribution", broken)
        code = main(["run", "--scheme", "multipixel-zeno", "--d", "2", "--N", "4",
                     "--pattern", "10"])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERIC
        assert "oracle fault" in captured.err
        assert captured.out == ""

    def test_run_too_large_for_memory_exits_numeric(self, monkeypatch, capsys):
        # At N = 10^12 the trace cannot be allocated.  The run is mocked:
        # where memory is overcommitted, a real one would swap, not fail.
        def unallocatable(config):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                              "(1000000000000,) and data type float64")

        monkeypatch.setattr(cli, "run_scheme", unallocatable)
        code = main(["run", "--scheme", "multipixel-zeno", "--d", "2", "--N", "1000000000000",
                     "--pattern", "10"])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERIC
        assert captured.err.startswith("error: Unable to allocate 7.28 TiB")
        assert captured.out == ""

    @pytest.mark.parametrize("where", ["trace", "analytic"])
    def test_non_finite_value_leaves_out_file_as_it_was(self, monkeypatch, tmp_path, capsys,
                                                         where):
        # The trace is streamed into --out, so it is checked before the
        # file is opened; so is every field outside it.
        if where == "trace":
            def run_scheme_with_nan(config):
                result = run_scheme(config)
                survival = result.trace.survival.copy()
                survival[-1] = float("nan")
                return result._replace(trace=SchemeTrace(survival, result.trace.p_abs_cycle))

            monkeypatch.setattr(cli, "run_scheme", run_scheme_with_nan)
        else:
            monkeypatch.setattr(cli, "_analytic_block", lambda config: {"p_abs": float("inf")})
        out = tmp_path / "report.json"
        out.write_text("earlier report\n")
        argv = ["run", "--scheme", "multipixel-zeno", "--d", "2", "--N", "5000",
                "--pattern", "10"]
        for extra in (["--out", str(out)], []):
            code = main(argv + extra)
            captured = capsys.readouterr()
            assert code == EXIT_NUMERIC
            assert "non-finite" in captured.err
            assert captured.out == ""
        assert out.read_text() == "earlier report\n"

    def test_memory_does_not_grow_with_cycle_count(self, tmp_path):
        # Peak RSS of a whole command in a fresh interpreter, which reports
        # it.  The trace is written a block of rows at a time, so only its
        # two float64 columns (4.6 MB at N = 300 000) grow with N.
        code = (
            "import resource, sys\n"
            "from ifmsim.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)\n"
        )
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}

        def peak_mb(n_cycles):
            argv = ["run", "--scheme", "multipixel-zeno", "--d", "4", "--N", str(n_cycles),
                    "--pattern", "1010", "--out", str(tmp_path / "run.json")]
            proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            return float(proc.stdout)

        assert peak_mb(300_000) - peak_mb(10_000) < 40.0

    @pytest.mark.parametrize("argv", [
        ["run", "--scheme", "ev-single-pass", "--d", "1", "--N", "0", "--pattern", "1"],
        ["run", "--scheme", "ev-single-pass", "--d", "1", "--N", "-1", "--pattern", "1"],
        ["run", "--scheme", "multipixel-zeno", "--d", "2", "--N", "0", "--pattern", "10"],
        ["shots", "--scheme", "multipixel-single-pass", "--d", "2", "--N", "0",
         "--pattern", "10", "--shots", "100"],
    ])
    def test_cycle_count_below_one_is_a_usage_error_for_every_kind(self, capsys, argv):
        # A single-pass kind used to divide by N = 0 in its unused angle.
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert "cycle count must be >= 1" in captured.err
        assert captured.out == ""

    def test_small_survival_keeps_its_digits(self, capsys):
        # Both pixels opaque at N = 1: a rotation by pi/2 leaves only a
        # rounding residue of the H amplitude, which 1 - p_abs reads as 0.0.
        argv = ["run", "--scheme", "multipixel-zeno", "--d", "2", "--N", "1", "--pattern", "11"]
        _, report = run_json(capsys, argv)
        assert report["survival"] == report["trace"][-1]["survival"] == 3.74939945665464e-33
        assert main(argv + ["--format", "csv"]) == EXIT_OK
        rows = dict(line.split(",") for line in capsys.readouterr().out.splitlines())
        assert rows["survival"] == "3.74939945665464e-33"


def random_run_argv(rng, kind):
    """A ``run`` of ``kind`` on a random object: d <= 12, N <= 600, and each
    pixel's transmission 0, 1 or a uniform draw."""
    d = int(rng.integers(1, 13)) if KINDS[kind].per_pixel else 1
    n_cycles = int(np.exp(rng.uniform(0, np.log(600.5))))
    choice = rng.integers(0, 3, size=d)
    transmissions = np.where(choice == 2, rng.random(d), choice)
    return ["run", "--scheme", kind, "--d", str(d), "--N", str(n_cycles),
            "--transmissions", ",".join(repr(float(t)) for t in transmissions)]


class TestRunReportProperties:
    """Seeded property check over random ``run`` configurations."""

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_reports_are_strict_bounded_and_agree_with_their_trace(self, capsys, kind):
        rng = np.random.default_rng(900 + sorted(KINDS).index(kind))
        for _ in range(50):
            argv = random_run_argv(rng, kind)
            assert main(argv) == EXIT_OK, argv
            report = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
            assert main(argv + ["--format", "csv"]) == EXIT_OK, argv
            rows = dict(line.split(",") for line in capsys.readouterr().out.splitlines()[1:])
            config = cli.parse_config(argv)[1].scheme_config()
            budget = build_scheme(config).rounding_budget()[-1]
            analytic = report["analytic"]
            exact = analytic["exact"] or {}
            asymptotic = [*analytic["asymptotic"].values(), analytic["asymptotic_p_abs"]] \
                if analytic["asymptotic"] is not None else []
            probabilities = [*report["detectors"].values(), report["p_abs"], report["survival"],
                             *exact.values(), *asymptotic,
                             *(row[key] for row in report["trace"]
                               for key in ("p_abs_cycle", "survival"))]
            assert all(0.0 <= p <= 1.0 for p in probabilities), argv
            total = math.fsum([*report["detectors"].values(), report["p_abs"]])
            assert abs(total - 1.0) <= budget, argv
            last = report["trace"][-1]["survival"]
            assert report["survival"] == last and float(rows["survival"]) == last, argv
            # The final state's own sum also runs over labels the photon
            # could reach but did not, so it may differ from the trace's by
            # rounding; the trace's survival is clamped as well.
            assert abs(run_scheme(config).state.survival - last) <= budget, argv
            assert {key: float(rows[key]) for key in report["detectors"]} == report["detectors"]


def random_transmissions(rng, size):
    """``size`` transmissions, each 0, 1 or a uniform draw."""
    choice = rng.integers(0, 3, size=size)
    return ",".join(repr(float(t)) for t in np.where(choice == 2, rng.random(size), choice))


def random_cycle_counts(rng, size, most):
    """``size`` cycle counts drawn log-uniformly from 1..``most``."""
    return ",".join(str(int(n)) for n in np.exp(rng.uniform(0, np.log(most + 0.5), size=size)))


class TestSweepAndShotsReportProperties:
    """Seeded property checks over random ``sweep`` and ``shots`` reports."""

    CYCLING = sorted(k for k, spec in KINDS.items() if not spec.single_pass)
    MULTI_PIXEL = sorted(k for k, spec in KINDS.items() if spec.per_pixel)

    @pytest.mark.parametrize("kind", CYCLING)
    def test_sweep_reports_are_strict_and_bounded(self, capsys, kind):
        rng = np.random.default_rng(700 + self.CYCLING.index(kind))
        for _ in range(50):
            d = int(rng.integers(1, 9)) if KINDS[kind].per_pixel else 1
            count = int(rng.integers(1, 6))
            if rng.random() < 0.5:
                axis = ["--transmissions", random_transmissions(rng, d),
                        "--sweep-N", random_cycle_counts(rng, count, 2000)]
            else:
                axis = ["--N", random_cycle_counts(rng, 1, 2000),
                        "--sweep-T", random_transmissions(rng, count)]
            argv = ["sweep", "--scheme", kind, "--d", str(d), *axis]
            assert main(argv) == EXIT_OK, argv
            report = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
            assert len(report["rows"]) == count, argv
            for row in report["rows"]:
                exact = [v for k, v in row.items() if k.startswith("exact_")]
                asym = [v for k, v in row.items() if k.startswith(("asym_", "gap_"))]
                assert all(0.0 <= p <= 1.0 for p in exact), (argv, row)
                assert abs(math.fsum(exact) - 1.0) <= 1e-12, (argv, row)
                assert all(p is None for p in asym) or all(0.0 <= p <= 1.0 for p in asym), \
                    (argv, row)

    @pytest.mark.parametrize("kind", MULTI_PIXEL)
    def test_shots_reports_are_strict_and_count_every_shot(self, capsys, kind):
        rng = np.random.default_rng(800 + self.MULTI_PIXEL.index(kind))
        for _ in range(25):
            d = int(rng.integers(1, 9))
            object_ = (["--pattern", "".join(map(str, rng.integers(0, 2, size=d)))]
                       if rng.random() < 0.5 else
                       ["--transmissions", random_transmissions(rng, d)])
            argv = ["shots", "--scheme", kind, "--d", str(d),
                    "--N", random_cycle_counts(rng, 1, 200), *object_,
                    "--shots", random_cycle_counts(rng, 1, 20_000),
                    "--seed", str(int(rng.integers(0, 2**32)))]
            code = main(argv)
            report = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
            assert code == (EXIT_MISMATCH if report["pattern_match"] is False else EXIT_OK), argv
            assert sum(report["counts"].values()) + report["absorbed"] == report["shots"], argv
            assert report["shots"] == int(argv[argv.index("--shots") + 1])
            exact = [*report["exact"]["detectors"].values(), report["exact"]["p_abs"]]
            assert all(0.0 <= p <= 1.0 for p in exact), argv
            assert abs(math.fsum(exact) - 1.0) <= 1e-12, argv


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

    def test_rows_without_the_expansion_keep_their_keys_at_null(self, capsys):
        # At N = 5 the expansion gave asym_p_abs = -413.07 at T = 0.972.
        argv = ["sweep", "--scheme", "michelson-zeno", "--d", "6", "--N", "5",
                "--sweep-T", "0.019,0.826,0.156,1,0.972,0,0.947"]
        code, report = run_json(capsys, argv)
        assert code == EXIT_OK
        null = [row["value"] for row in report["rows"] if row["asym_p_abs"] is None]
        assert null == [0.826, 0.156, 0.972, 0.947]
        for row in report["rows"]:
            asym = [v for k, v in row.items() if k.startswith(("asym_", "gap_"))]
            assert len(asym) == 26
            assert all(v is None for v in asym) or all(0.0 <= v <= 1.0 for v in asym)
        assert main(argv + ["--format", "csv"]) == EXIT_OK
        header, *lines = capsys.readouterr().out.splitlines()
        keys = header.split(",")
        assert keys[:7] == ["index", "axis", "value", "scheme", "d", "N", "theta"]
        assert [k.split("_")[0] for k in keys[7:]] == ["exact"] * 13 + ["asym"] * 13 + ["gap"] * 13
        for row, line in zip(report["rows"], lines, strict=True):
            cells = dict(zip(keys, line.split(","), strict=True))
            assert cells.keys() == row.keys()
            for key, value in row.items():
                text = f"{value:.15g}" if isinstance(value, float) else str(value)
                assert cells[key] == ("" if value is None else text), key

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

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--scheme", "multipixel-zeno", "--d", "0", "--N", "3", "--sweep-T", "0.5"],
         "pattern must have at least one pixel"),
        (["sweep", "--d", "2", "--pattern", "10", "--sweep-N", "1"], "missing field: scheme"),
        (["sweep", "--scheme", "multipixel-single-pass", "--d", "2", "--pattern", "10",
          "--sweep-N", "1"], "sweep is defined for the cycling schemes"),
    ])
    def test_usage_errors(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err.startswith("usage error: ")
        assert message in captured.err
        assert captured.out == ""


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

    def test_transmission_too_small_for_a_z_score(self, capsys):
        # D0_v has p = 4.55e-322, whose binomial variance underflows to 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["shots", "--scheme", "multipixel-zeno", "--d", "2", "--N", "4",
                         "--transmissions", "1e-320,1", "--shots", "1000"])
        report = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert code == EXIT_OK
        assert 0.0 < report["exact"]["detectors"]["D0_v"] < 1e-300
        assert set(report["z_scores"]) == {"D0_h", "D1_h", "D1_v", "absorbed"}
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

    def test_failed_json_report_leaves_out_file_as_it_was(self, monkeypatch, tmp_path):
        out = tmp_path / "report.json"
        out.write_text("earlier report\n")
        monkeypatch.setattr(experiment, "statistical_check",
                            lambda counts, dist: experiment.StatCheck({"D0_h": float("nan")}, ()))
        code = main(["shots", "--scheme", "multipixel-zeno", "--d", "2", "--N", "20",
                     "--pattern", "10", "--shots", "1000", "--out", str(out)])
        assert code == EXIT_NUMERIC
        assert out.read_text() == "earlier report\n"

    def test_zero_shots_rejected(self, capsys):
        code = main(["shots", "--scheme", "ev-single-pass", "--d", "1",
                     "--pattern", "1", "--shots", "0"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("scheme", ["multipixel-zeno", "michelson-zeno"])
    def test_semi_transparent_object_gets_transmission_estimates(self, capsys, scheme):
        # T = 0.5 has no binary truth; it used to be read as transparent and
        # compared with an h > v verdict of opaque, which exited 4.
        code, report = run_json(capsys, [
            "shots", "--scheme", scheme, "--d", "2", "--N", "20",
            "--transmissions", "0.5,1", "--shots", "1000", "--seed", "1"])
        assert code == EXIT_OK
        assert report["pattern_match"] is None
        estimates = report["reconstruction"]["transmission_estimates"]
        intervals = report["reconstruction"]["intervals"]
        assert len(estimates) == len(intervals) == 2
        # A wrong h/v reading or rotation angle would miss the true values.
        for true_t, (lo, hi) in zip((0.5, 1.0), intervals):
            assert lo <= true_t <= hi

    def test_semi_transparent_object_on_single_pass_has_no_truth_to_match(self, capsys):
        # T = 0.5 used to be read as transparent against a dark-port verdict
        # of opaque, which exited 4; the single-pass scheme has no fit.
        code, report = run_json(capsys, [
            "shots", "--scheme", "multipixel-single-pass", "--d", "2",
            "--transmissions", "0.5,1", "--shots", "1000", "--seed", "1"])
        assert code == EXIT_OK
        assert report["pattern_match"] is None
        assert report["reconstruction"] == {"verdicts": ["opaque", "transparent"]}

    @pytest.mark.parametrize("transmissions", [(0.3, 1.0, 0.0), (1.0, 0.0, 0.0)])
    def test_semitransparent_zeno_is_an_alias_of_multipixel_zeno(self, capsys, transmissions):
        # The object, not the kind name, decides the reconstruction: a
        # binary object gets verdicts under either name.
        pattern = PixelPattern(transmissions)
        alias, plain = (SchemeConfig(kind, pattern, 40)
                        for kind in ("semitransparent-zeno", "multipixel-zeno"))
        assert alias.spec == plain.spec
        a, b = run_scheme(alias), run_scheme(plain)
        assert a.distribution == b.distribution
        assert a.trace == b.trace
        assert analytics.exact_distribution(alias) == analytics.exact_distribution(plain)
        assert analytics.asymptotic_distribution(alias) == analytics.asymptotic_distribution(plain)
        reports = []
        for kind in ("semitransparent-zeno", "multipixel-zeno"):
            code, report = run_json(capsys, [
                "shots", "--scheme", kind, "--d", "3", "--N", "40",
                "--transmissions", ",".join(map(str, transmissions)),
                "--shots", "20000", "--seed", "3"])
            assert report["config"].pop("scheme") == kind
            reports.append((code, report))
        assert reports[0] == reports[1]
        assert reports[0][0] == EXIT_OK
        assert ("transmission_estimates" in reports[0][1]["reconstruction"]) \
            == (not pattern.is_binary)

    def test_csv_streams_every_shot(self, capsys):
        n = experiment.CHUNK + 3
        args = ["shots", "--scheme", "multipixel-zeno", "--d", "2", "--N", "20",
                "--pattern", "10", "--shots", str(n), "--seed", "6"]
        assert main(args + ["--format", "csv"]) == EXIT_OK
        text = capsys.readouterr().out
        dist = cli.run_scheme(cli.RunConfig(scheme="multipixel-zeno", d=2, n_cycles=20,
                                            pattern="10").scheme_config()).distribution
        stream = io.StringIO()
        experiment.shot_csv(dist, n, 6, stream)
        assert text == stream.getvalue()
        lines = text.splitlines()
        assert len(lines) == n + 1
        assert lines[-1].startswith(f"{n - 1},")
        tally = collections.Counter(line.split(",")[1] for line in lines[1:])
        counts = experiment.sample_distribution(dist, n, 6)
        assert tally.pop(experiment.ABSORBED, 0) == counts.absorbed
        assert tally == collections.Counter({k: v for k, v in counts.counts.items() if v})

    def test_csv_draws_each_shot_once(self, monkeypatch, tmp_path):
        # The report's counts are the tally of the CSV's own shots.
        draws = []
        shot_draws = experiment._shot_draws

        def recording(*args):
            draws.append(args)
            return shot_draws(*args)

        monkeypatch.setattr(experiment, "_shot_draws", recording)
        out = tmp_path / "clicks.csv"
        assert main(["shots", "--scheme", "multipixel-zeno", "--d", "4", "--N", "100",
                     "--pattern", "1010", "--shots", "100000", "--seed", "1",
                     "--format", "csv", "--out", str(out)]) == EXIT_OK
        assert len(draws) == 1
        lines = out.read_text().splitlines()
        assert len(lines) == 100_001

    def test_csv_exit_code_follows_the_report(self, capsys):
        # One shot cannot image four pixels, so the report built from the
        # CSV's tally does not match the pattern.
        code = main(["shots", "--scheme", "multipixel-zeno", "--d", "4", "--N", "10",
                     "--pattern", "1010", "--shots", "1", "--seed", "0", "--format", "csv"])
        assert code == EXIT_MISMATCH
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_unwritable_csv_out_fails_before_sampling(self, monkeypatch, tmp_path, capsys):
        def sample_distribution(*args):
            raise AssertionError("shots were drawn before --out was opened")

        monkeypatch.setattr(experiment, "sample_distribution", sample_distribution)
        monkeypatch.setattr(experiment, "_shot_draws", sample_distribution)
        code = main(["shots", "--scheme", "multipixel-zeno", "--d", "2", "--N", "20",
                     "--pattern", "10", "--shots", "1000", "--format", "csv",
                     "--out", str(tmp_path / "missing" / "clicks.csv")])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert "out: cannot write" in captured.err
        assert captured.out == ""

    def test_csv_memory_does_not_grow_with_shots(self, tmp_path):
        # Peak RSS of a whole command in a fresh interpreter, which reports it.
        code = (
            "import resource, sys\n"
            "from ifmsim.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)\n"
        )
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}

        def peak_mb(shots):
            argv = ["shots", "--scheme", "multipixel-zeno", "--d", "8", "--N", "128",
                    "--pattern", "10110010", "--shots", str(shots), "--seed", "2",
                    "--format", "csv", "--out", str(tmp_path / "clicks.csv")]
            proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            return float(proc.stdout)

        small, large = peak_mb(100_000), peak_mb(4_000_000)
        assert large < 100.0
        assert large - small < 10.0


@pytest.mark.parametrize("argv, message", [
    (["run", "--scheme", "multipixel-zeno", "--d", "2", "--N", "4", "--pattern", "10",
      "--out", "MISSING_DIR/x.json"], "out: cannot write"),
    (["shots", "--scheme", "multipixel-zeno", "--d", "2", "--N", "4", "--pattern", "10",
      "--shots", "100", "--seed", "-1"], "seed must be >= 0"),
    (["shots", "--scheme", "multipixel-zeno", "--d", "2", "--N", "4", "--pattern", "10",
      "--shots", "100", "--seed", str(2**128)], "seed must be < 2**128"),
])
def test_bad_output_path_or_seed_is_a_usage_error(tmp_path, capsys, argv, message):
    argv = [a.replace("MISSING_DIR", str(tmp_path / "missing")) for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert message in captured.err
    assert captured.out == ""


RUN = ["run", "--scheme", "multipixel-zeno", "--d", "2", "--N", "4"]


# ``config`` is what the file CFG holds: bytes, a directory in its place
# (DIR), or nothing at all (None).
@pytest.mark.parametrize("argv, config, message", [
    ([*RUN, "--transmissions", "0.1,x"], None, "transmissions: invalid number list"),
    (["run", "--config", "CFG"], b"[1, 2]", "config: expected a JSON object"),
    (["run", "--config", "CFG"], None, "config: cannot read"),
    (["run", "--config", "CFG"], "DIR", "config: cannot read"),
    (["run", "--config", "CFG"], b'{"scheme": ', "config: invalid JSON config"),
    (["run", "--config", "CFG"], b'{"pattern": "\xff"}', "config: invalid JSON config"),
    ([*RUN, "--pattern", "10", "--transmissions", "0.1,0.2"], None,
     "give either 'pattern' or 'transmissions'"),
    ([*RUN, "--pattern", "1a"], None, "pattern: "),
    (["run", "--scheme", "multipixel-zeno", "--N", "4", "--pattern", "10"], None,
     "missing field: d"),
    (["sweep", "--scheme", "multipixel-zeno", "--sweep-T", "0.5"], None, "missing field: d"),
    (["sweep", "--config", "CFG"],
     b'{"scheme": "multipixel-zeno", "d": 2, "pattern": "10", "sweep-N": []}',
     "sweep-N: empty sweep axis"),
    ([*RUN, "--pattern", "\u0661\u0660"], None,
     "pattern: occupancy bits must be 0 or 1, got '\u0661\u0660'"),
    ([*RUN, "--pattern", "1a"], None, "pattern: occupancy bits must be 0 or 1, got '1a'"),
    (["run", "--config", "CFG"],
     b'{"scheme": "multipixel-zeno", "d": 2, "N": 4, "pattern": "1a"}',
     "pattern: occupancy bits must be 0 or 1, got '1a'"),
])
def test_invalid_input_is_a_usage_error(tmp_path, capsys, argv, config, message):
    path = tmp_path / "cfg.json"
    if config == "DIR":
        path.mkdir()
    elif config is not None:
        path.write_bytes(config)
    code = main([str(path) if a == "CFG" else a for a in argv])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err.startswith("usage error: ") and message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_closed_stdout_is_a_usage_error_without_traceback():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    # About 1.6 MB of report, far more than a pipe holds.
    argv = ["run", "--scheme", "multipixel-zeno", "--d", "2", "--N", "20000", "--pattern", "10"]
    with subprocess.Popen([sys.executable, "-m", "ifmsim.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    assert code == EXIT_USAGE
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.startswith("usage error: cannot write stdout:")


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
            return core.Block("R(broken)", d, np.array([[c, s], [s, c]]), 0, (0, 1))

        monkeypatch.setattr(core, "polarisation_rotator", broken_rotator)
        result = next(r for r in verify.run_all_checks() if r.name == "unitarity")
        assert not result.passed
        # The check must catch the fault, not crash on the broken element.
        assert result.detail.startswith("max norm drift")

    def test_failing_check_gives_numeric_exit_code(self, monkeypatch, capsys):
        def broken_rotator(theta, d):
            c, s = np.cos(theta), np.sin(theta)
            return core.Block("R(broken)", d, np.array([[c, s], [s, c]]), 0, (0, 1))

        monkeypatch.setattr(core, "polarisation_rotator", broken_rotator)
        code = main(["verify"])
        out = capsys.readouterr().out
        assert code == EXIT_NUMERIC
        # Caught by the check, not reported as "raised ...".
        assert "FAIL unitarity: max norm drift" in out

    def test_csv_format_is_a_usage_error(self, capsys):
        code = main(["verify", "--format", "csv"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err.startswith("usage error: format: ")
        assert captured.out == ""

    def test_verify_json_format(self, capsys):
        code, report = run_json(capsys, ["verify", "--format", "json"])
        assert code == EXIT_OK
        assert [check["name"] for check in report["checks"]] == [n for n, _ in VERIFY_DETAILS]
        for check, (name, prefix) in zip(report["checks"], VERIFY_DETAILS):
            assert check["passed"] is True, check
            assert check["detail"].startswith(prefix), check

    def test_raising_suite_is_reported_under_its_name(self, monkeypatch, capsys):
        def raising_mirrors(d):
            raise RuntimeError("no arm mirrors")

        monkeypatch.setattr(core, "arm_mirrors", raising_mirrors)
        results = verify.run_all_checks()
        assert [r.name for r in results] == [n for n, _ in VERIFY_DETAILS]
        failed = {r.name: r.detail for r in results if not r.passed}
        # The suites that build an arm mirror: directly, or in a folded run.
        assert failed == dict.fromkeys(
            ["unitarity", "encoder-equivalence", "oracle-equivalence", "michelson-equivalence"],
            "raised RuntimeError: no arm mirrors")
        assert main(["verify"]) == EXIT_NUMERIC
        out = capsys.readouterr().out
        assert "FAIL michelson-equivalence: raised RuntimeError: no arm mirrors" in out
        assert out.endswith("10/14 checks passed\n")


# Every verify suite in report order, with the start of its detail on success.
VERIFY_DETAILS = [
    ("unitarity", "max norm drift "),
    ("attenuator-contraction", "max norm excess "),
    ("permutation-inverses", "all permutation pairs are exact inverses"),
    ("swap-identity", "max operator-norm gap "),
    ("encoder-equivalence", "max amplitude gap "),
    ("ev-outcomes", "max probability gap "),
    ("zeno-single-outcomes", "max probability gap "),
    ("single-pass-outcomes", "max probability gap "),
    ("zeno-multipixel-outcomes", "max probability gap "),
    ("oracle-equivalence", "max probability gap "),
    ("telescoping", "max product gap "),
    ("michelson-equivalence", "max probability gap "),
    ("semitransparent-exact-vs-sim", "max probability gap "),
    ("vanishing-absorption", "p_abs decreasing over N = 1e2, 1e3, 1e4 for all tested T"),
]


def _round15(obj):
    if isinstance(obj, float):
        return float(f"{obj:.15g}")
    if isinstance(obj, SchemeTrace):
        return _round15(trace_rows(obj.survival, obj.p_abs_cycle))
    if isinstance(obj, dict):
        return {k: _round15(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round15(v) for v in obj]
    return obj


def trace_rows(survival, p_abs_cycle):
    """The trace as the list of row objects that ``run`` reports."""
    return [{"cycle": k, "survival": s, "p_abs_cycle": p}
            for k, (s, p) in enumerate(zip(survival, p_abs_cycle), 1)]


def reference_report(report):
    """The report text as the standard encoder writes it, after rounding every float."""
    return json.dumps(_round15(report), sort_keys=True, indent=2, allow_nan=False) + "\n"


EDGE_FLOATS = [100.0, -0.0, 0.0, 1e-5, 1.5e-7, 123456789012345.0, 999999999999999.9,
               1e15, 5e15, 1e16, 1e300, 5e-324, 2.2250738585072014e-308, 0.1 + 0.2]


def random_floats():
    """The finite doubles among 100 000 random bit patterns."""
    bits = np.random.default_rng(20211).integers(0, 2**64, size=100_000, dtype=np.uint64)
    return [x for x in struct.unpack(f"<{bits.size}d", bits.tobytes()) if math.isfinite(x)]


class TestJsonReport:
    @pytest.mark.parametrize("x", EDGE_FLOATS + [-x for x in EDGE_FLOATS])
    def test_edge_float(self, x):
        assert cli._json_report({"x": x}) == reference_report({"x": x})

    def test_containers_and_scalars(self):
        report = {"empty": {}, "none": [], "nested": {"a": [{}, []], "b": ({"z": 1, "y": 2.5},)},
                  "text": "Zeno \u00e9t\u00e9 \u2192 \"q\"\n", "flags": [True, False, None],
                  "big": 2**64 + 1, "negative": -3}
        assert cli._json_report(report) == reference_report(report)

    def test_random_bit_patterns(self):
        values = random_floats()
        assert cli._json_report({"values": values}) == reference_report({"values": values})

    @pytest.mark.parametrize("values", [EDGE_FLOATS, random_floats()],
                             ids=["edge", "random-bits"])
    def test_trace_rows(self, values):
        # Each value and its negation, as survival and as p_abs_cycle.
        negated = [-x for x in values]
        for survival, p_abs_cycle in ((values, negated), (negated, values)):
            trace = SchemeTrace(tuple(survival), tuple(p_abs_cycle))
            expected = reference_report({"trace": trace_rows(survival, p_abs_cycle)})
            assert cli._json_report({"trace": trace}) == expected

    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_trace_rows_at_any_depth(self, depth):
        survival, p_abs_cycle = (1.0, 0.5, 0.25), (0.0, 0.5, 0.5)
        report = {"trace": SchemeTrace(survival, p_abs_cycle)}
        expected = {"trace": trace_rows(survival, p_abs_cycle)}
        for _ in range(depth):
            report, expected = {"nested": [report]}, {"nested": [expected]}
        assert cli._json_report(report) == reference_report(expected)

    @pytest.mark.parametrize("offset", [-1, 0, 1, None])
    def test_trace_block_boundaries(self, offset):
        # N = B - 1, B, B + 1 and 2B + 1 rows.  Rows that take the exact
        # path (0, 1, a subnormal) open and close every block.
        b = cli.TRACE_BLOCK_ROWS
        n = 2 * b + 1 if offset is None else b + offset
        rng = np.random.default_rng(n)
        survival, p_abs_cycle = rng.random(n), rng.random(n) * 1e-3
        exact = [0.0, 1.0, 5e-324]
        for k in {0, b - 1, b, 2 * b - 1, 2 * b, n - 1}:
            if k < n:
                survival[k], p_abs_cycle[k] = exact[k % 3], exact[(k + 1) % 3]
        trace = SchemeTrace(survival, p_abs_cycle)
        expected = reference_report({"trace": trace_rows(survival.tolist(), p_abs_cycle.tolist())})
        assert cli._json_report({"trace": trace}) == expected

    def test_empty_trace(self):
        assert cli._json_report({"trace": SchemeTrace((), ())}) == '{\n  "trace": []\n}\n'

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("column", ["survival", "p_abs_cycle"])
    def test_non_finite_trace_value_raises(self, x, column):
        values = {"survival": [0.9, 0.8, 0.7], "p_abs_cycle": [0.1, 0.1, 0.1]}
        values[column][1] = x
        trace = SchemeTrace(tuple(values["survival"]), tuple(values["p_abs_cycle"]))
        with pytest.raises(ValueError, match="non-finite"):
            cli._json_report({"trace": trace})

    @pytest.mark.parametrize("argv", [
        ["run", "--scheme", "multipixel-zeno", "--d", "3", "--N", "30", "--pattern", "101"],
        ["sweep", "--scheme", "michelson-zeno", "--d", "2", "--pattern", "10",
         "--sweep-N", "1,10,1000"],
        ["sweep", "--scheme", "semitransparent-zeno", "--d", "2", "--N", "500",
         "--sweep-T", "0,0.3,1"],
        ["shots", "--scheme", "multipixel-zeno", "--d", "4", "--N", "50", "--pattern", "1100",
         "--shots", "20000", "--seed", "4"],
        ["shots", "--scheme", "semitransparent-zeno", "--d", "2", "--N", "100",
         "--transmissions", "0.2,0.7", "--shots", "20000", "--seed", "4"],
        ["verify", "--format", "json"],
    ])
    def test_command_reports(self, monkeypatch, capsys, argv):
        # Every command writes its JSON report through _emit_json, which
        # streams it; the text must be that of the report it was given.
        reports = []
        emit = cli._emit_json

        def recording(report, out):
            reports.append(report)
            emit(report, out)

        monkeypatch.setattr(cli, "_emit_json", recording)
        assert main(argv) == EXIT_OK
        assert len(reports) == 1
        assert capsys.readouterr().out == reference_report(reports[0])

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_float_raises(self, x):
        with pytest.raises(ValueError, match="non-finite"):
            cli._json_report({"rows": [{"x": x}]})
