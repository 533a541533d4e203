"""Tests of the benchmark's own code: generator, tracer and output gate.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import gate  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from ifmsim import cli  # noqa: E402


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def first(workload, seed, n=300):
    return list(itertools.islice(WORKLOADS[workload].stream(seed), n))


def test_generator_is_deterministic_per_seed():
    for name in WORKLOADS:
        assert first(name, 7) == first(name, 7)
        assert first(name, 7) != first(name, 8)


def test_generated_commands_parse():
    for name in WORKLOADS:
        for argv in first(name, 3, 200):
            cli.parse_config(argv)


def test_many_small_mix():
    commands = first("exact-many-small", 1, 1000)
    kinds = [argv[0] for argv in commands]
    assert kinds.count("verify") == 10
    assert kinds.count("sweep") == 200
    long_runs = [a for a in commands if a[0] == "run" and int(a[a.index("--N") + 1]) >= 1000]
    assert len(long_runs) == 100


def test_densities_reach_all_opaque_and_all_transparent():
    patterns = [a[a.index("--pattern") + 1] for a in first("exact-large-d", 2, 400)]
    assert any(set(p) == {"0"} for p in patterns)
    assert any(set(p) == {"1"} for p in patterns)


def ifmsim_namespace():
    return {(name, attr): value for name, module in list(sys.modules.items())
            if name == "ifmsim" or name.startswith("ifmsim.")
            for attr, value in vars(module).items()}


def test_tracer_restores_every_wrapped_function():
    before = ifmsim_namespace()
    for measure_alloc in (False, True):
        tracer = tracing.Tracer(measure_alloc=measure_alloc)
        with tracer:
            assert cli.run_scheme is not before[("ifmsim.cli", "run_scheme")]
            assert run_cli(["shots", "--scheme", "semitransparent-zeno", "--d", "2", "--N", "8",
                            "--transmissions", "0.5,1", "--shots", "1000"])[0] == 0
        assert tracer.spans
        after = ifmsim_namespace()
        assert after.keys() == before.keys()
        assert all(after[key] is value for key, value in before.items())


def test_tracer_wraps_aliases_and_counts_spans():
    tracer = tracing.Tracer()
    with tracer:
        # cli.run_scheme and the package re-export are aliases of schemes.run_scheme.
        patched = {(module.__name__, attr) for module, attr, _ in tracer.patched}
        assert {("ifmsim.schemes", "run_scheme"), ("ifmsim.cli", "run_scheme"),
                ("ifmsim", "run_scheme")} <= patched
        run_cli(["run", "--scheme", "multipixel-zeno", "--d", "2", "--N", "300", "--pattern", "10"])
    metrics = tracing.layer_metrics(tracer.spans, [])
    assert metrics["cli.main.calls"] == 1
    assert metrics["schemes.run_scheme.calls"] == 1
    assert metrics["core.compose.calls"] == 1
    # multipixel-zeno has 8 elements per cycle and no switch-out.
    assert metrics["schemes.evolve.element_applications"] == 300 * 8
    assert metrics["cli.report.s"] > 0


def test_self_time_excludes_children():
    spans = [["cli.main", 0.0, 10.0, -1, 0, False, {}],
             ["schemes.run_scheme", 1.0, 7.0, 0, 0, False, {}],
             ["schemes.build_scheme", 1.0, 2.0, 1, 0, False, {}],
             ["cli.parse_config", 8.0, 9.0, 0, 0, True, {}]]
    metrics = tracing.layer_metrics(spans, [])
    assert metrics["cli.report.s"] == 3.0
    assert metrics["schemes.evolve.s"] == 5.0
    assert metrics["schemes.build_scheme.s"] == 1.0
    assert metrics["cli.parse_config.errors"] == 1


def test_gate_flags_known_negative_p_abs_and_nan():
    argv = ["shots", "--scheme", "multipixel-zeno", "--d", "8", "--N", "5000",
            "--pattern", "00000000", "--shots", "1000"]
    rc, out = run_cli(argv)
    assert rc == 0
    reason = gate.failure(argv, rc, out, None)
    assert reason is not None
    assert gate.category(reason) == "not strict JSON"
    # Without the bare NaN the negative probability alone still fails.
    clean = out.replace("NaN", "0.0")
    assert gate.category(gate.failure(argv, rc, clean, None)) == "probability below 0"


def test_gate_passes_valid_outputs_and_exit_4():
    argv = ["run", "--scheme", "multipixel-zeno", "--d", "3", "--N", "20", "--pattern", "101"]
    assert gate.failure(argv, *run_cli(argv), None) is None
    argv = ["verify", "--format", "json"]
    assert gate.failure(argv, *run_cli(argv), None) is None
    # Too few cycles to tell the pixels apart: a reconstruction mismatch.
    argv = ["shots", "--scheme", "multipixel-zeno", "--d", "2", "--N", "1", "--pattern", "10",
            "--shots", "1000"]
    rc, out = run_cli(argv)
    assert rc == 4
    assert gate.failure(argv, rc, out, None) is None


def test_gate_failure_kinds():
    argv = ["run", "--scheme", "multipixel-zeno", "--d", "1", "--N", "5", "--pattern", "1"]
    rc, out = run_cli(argv)
    assert gate.failure(argv, 2, "", None) == "exit 2"
    assert gate.failure(argv, 3, "", None) == "exit 3"
    assert gate.failure(argv, None, "", RuntimeError("boom")).startswith("raised")
    report = gate.strict_json(out)
    report["detectors"]["D0_h"] += 1e-9
    bumped = json.dumps(report)
    assert gate.category(gate.failure(argv, rc, bumped, None)) == "distribution sum off"


def test_tolerance_gate_accepts_rounding_only():
    report = ('{"detectors": {"a": 1.0}, "p_abs": %s, "survival": 1.0, "trace": [],'
              ' "analytic": {"exact": null}}')
    assert gate.failure(["run"], 0, report % "-4e-13", None) is not None
    assert gate.failure(["run"], 0, report % "-4e-13", None, range_slack=gate.TOL) is None
    assert gate.failure(["run"], 0, report % "-1e-9", None, range_slack=gate.TOL) is not None


def test_import_times_counts_outermost_entries():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:       400 |        400 |     scipy.optimize",
        "import time:        50 |       1000 |   ifmsim.experiment",
        "import time:        10 |       1200 | ifmsim",
        "import time:        30 |         30 | ifmsim.cli",
    ])
    times = tracing.import_times(stderr)
    assert abs(times["ifmsim"] - 1230e-6) < 1e-12
    assert abs(times["scipy"] - 700e-6) < 1e-12
