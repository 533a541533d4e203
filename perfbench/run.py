"""End-to-end benchmark of the ``ifmsim`` command line.

Run it from the root of a checkout:

    python3 perfbench/run.py --workload exact-large-d --seed 1 --seconds 30 --trace 0

Each run is one process and a closed loop with one client: it calls
``ifmsim.cli.main(argv)`` in-process on each command of the workload's
seeded stream, waits for it, captures stdout and passes it through the
output gate (``gate.py``), until ``--seconds`` of loop time have passed.
BLAS and OpenMP are pinned to one thread.

``--trace 0`` reports the end-to-end metrics; ``setup_s`` is the median
time of ``import ifmsim.cli`` in several fresh interpreters.  ``--trace 1``
times the first half of the loop untraced, runs the same commands again
with spans around each module's public functions (``tracing.py``) and
reports the per-layer metrics; the spans are written to
``perfbench/out/``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``failed`` counts commands that raised,
exited 2 or 3, printed output that is not strict JSON, or answered wrong
beyond the ``verify`` tolerance (1e-10); ``correct`` is false if any did.
``error_rate`` applies the strict gate, which also flags probabilities
outside [0, 1] by rounding at the last digits (the known ``p_abs = -4e-13``
defect).  It is printed in the table of every run and, with ``--trace 1``,
reported as ``gate.strict_error_rate``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import ifmsim.cli; "
                "print(time.perf_counter() - t)")

# The seven end-to-end metrics, as the human-readable table prints them.
UNITS = {"setup_s": "s", "cmd_s_p50": "s", "cmd_s_p90": "s", "cmds_per_s": "1/s",
         "shots_per_s": "1/s", "peak_rss_mb": "MB", "error_rate": "ratio"}


@dataclass
class Result:
    argv: list[str]
    seconds: float
    failure: str | None
    wrong: str | None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def python(*args: str) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"{args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def setup_seconds() -> float:
    """Median wall time of ``import ifmsim.cli`` in fresh interpreters."""
    python("-c", IMPORT_PROBE)  # writes the bytecode caches
    return statistics.median(float(python("-c", IMPORT_PROBE).stdout)
                             for _ in range(SETUP_SAMPLES))


def import_breakdown() -> dict[str, float]:
    samples = [tracing.import_times(python("-X", "importtime", "-c", "import ifmsim.cli").stderr)
               for _ in range(3)]
    return {f"import.{k}.s": statistics.median(s[k] for s in samples) for k in samples[0]}


def installed(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(workload, seed: int) -> dict:
    # Versions come from package metadata: importing scipy here would add
    # it to the memory and import state of the measured process.
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    return {
        "workload": workload.name, "seed": seed, "params": workload.params,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": installed("scipy"), "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": cpu or platform.processor(),
    }


def execute(main, argv: list[str]) -> Result:
    out, err = io.StringIO(), io.StringIO()
    rc, exc = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as stop:  # argparse exits on bad flags
        rc = stop.code
    except Exception as error:  # a crash is a failed command, not the end of the run
        exc = error
    seconds = time.perf_counter() - start
    text = out.getvalue()
    return Result(argv, seconds, gate.failure(argv, rc, text, exc),
                  gate.failure(argv, rc, text, exc, range_slack=gate.TOL))


def loop(cli, commands, seconds: float) -> list[Result]:
    results = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(results) < 2:
        results.append(execute(cli.main, next(commands)))
    return results


def shots_of(argv: list[str]) -> int:
    return int(argv[argv.index("--shots") + 1]) if argv[0] == "shots" else 0


def strict_error_rate(results: list[Result]) -> float:
    return sum(r.failure is not None for r in results) / len(results)


def end_to_end(results: list[Result], setup: float) -> dict[str, float | None]:
    seconds = [r.seconds for r in results]
    busy = sum(seconds)
    shots = sum(shots_of(r.argv) for r in results)
    return {
        "setup_s": setup,
        "cmd_s_p50": statistics.median(seconds),
        "cmd_s_p90": statistics.quantiles(seconds, n=10)[-1],
        "cmds_per_s": len(results) / busy,
        "shots_per_s": shots / busy if shots else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error_rate": strict_error_rate(results),
    }


def replay(cli, tracer: tracing.Tracer, base: list[Result], budget: float) -> list[Result]:
    """Run the commands of ``base`` again under ``tracer``, for about ``budget`` seconds."""
    results = []
    start = time.perf_counter()
    with tracer:
        for i, r in enumerate(base):
            if results and time.perf_counter() - start > budget:
                break
            tracer.command = i
            results.append(execute(cli.main, r.argv))
    return results


def traced(cli, commands, seconds: float, env: dict) -> tuple[list[Result], dict[str, float]]:
    """Untraced pass, timing pass over the same commands, then a shorter allocation pass."""
    base = loop(cli, commands, 0.4 * seconds)
    timing, alloc = tracing.Tracer(), tracing.Tracer(measure_alloc=True)
    timed = replay(cli, timing, base, math.inf)
    replay(cli, alloc, base, 0.2 * seconds)
    metrics = tracing.layer_metrics(timing.spans, alloc.spans)
    # Traced wall time is the time of the root (cli.main) spans.
    traced_wall = sum(end - start for _, start, end, parent, *_ in timing.spans if parent < 0)
    metrics["trace.overhead_frac"] = traced_wall / sum(r.seconds for r in base) - 1.0
    metrics.update(import_breakdown())
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{env['workload']}-seed{env['seed']}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"env": env, "commands": [r.argv for r in base],
                   "span_fields": ["layer", "start", "end", "parent", "command", "error", "extra"],
                   "spans": timing.spans, "alloc_spans": alloc.spans}, handle)
    print(f"spans: {len(timing.spans)} + {len(alloc.spans)} written to {path.relative_to(ROOT)}")
    return base + timed, metrics


def report_failures(results: list[Result]) -> None:
    firsts: dict[str, Result] = {}
    tally: dict[str, int] = {}
    for r in results:
        if r.failure:
            name = gate.category(r.failure)
            firsts.setdefault(name, r)
            tally[name] = tally.get(name, 0) + 1
    for name, count in sorted(tally.items()):
        first = firsts[name]
        print(f"strict gate flagged {count:5d} x {name}; first: {first.failure} <- {' '.join(first.argv)[:160]}")
    for r in results:
        if r.wrong:
            print(f"wrong beyond tolerance: {r.wrong} <- {' '.join(r.argv)[:160]}")


def declared_metrics(trace_on: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace_on else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ifmsim" / "cli.py").is_file():
        print(f"error: no ifmsim sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    declared = declared_metrics(bool(args.trace))
    setup = None if args.trace else setup_seconds()

    from ifmsim import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported ifmsim from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment(workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    for argv_ in workload.warmup:
        execute(cli.main, list(argv_))
    commands = workload.stream(args.seed)

    if args.trace:
        results, metrics = traced(cli, commands, args.seconds, env)
        metrics["gate.strict_error_rate"] = strict_error_rate(results)
        for name, value in metrics.items():
            moves = " -> {} on {}".format(*tracing.MOVES[name]) if name in tracing.MOVES else ""
            print(f"{name:46s} {value:14.6g}{moves}")
        share = tracing.shares(metrics)
        for group, value in share.items():
            print(f"self-time share {group:20s} {value:7.1%}")
        winner, others = tracing.DOMINANT[workload.name]
        met = all(share[winner] > share[other] for other in others)
        print(f"dominant layer: {winner} outweighs {', '.join(others)}: {'yes' if met else 'NO'}")
    else:
        results = loop(cli, commands, args.seconds)
        metrics = end_to_end(results, setup)
        print(f"commands {len(results)}, loop busy {sum(r.seconds for r in results):.2f} s")
        if len(results) < 100:
            print("note: under 100 commands, so cmd_s_p90 rests on fewer than 10 samples above it")
        for name, value in metrics.items():
            shown = "n/a (no shots in this workload)" if value is None else f"{value:.6g}"
            print(f"{name:14s} {shown} {UNITS[name] if value is not None else ''}")

    report_failures(results)
    missing = sorted(set(declared) - set(metrics))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    wrong = [r for r in results if r.wrong]
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(results),
        "failed": len(wrong),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
