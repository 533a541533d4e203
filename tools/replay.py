"""Replay the benchmark command streams on this tree and on a parent revision.

Run it from anywhere in a checkout:

    python3 tools/replay.py --parent REV [--seed SEED] [--commands COUNT]

It runs the same commands on two trees: this working tree and revision REV,
exported with ``git archive`` into a temporary directory (an export, unlike
a worktree, leaves the repository as it was).  The commands are the first
``--commands`` (200) of each workload stream in ``perfbench/workloads.py``
with seed ``--seed`` (1), then four ``run`` commands whose cycle trace
holds edge values (a unitary run, where every survival is 1.0 and every
absorption 0.0, a long run, a 64-pixel semi-transparent run and a run one
cycle past the engine's block of trace rows), then ``--help`` for the top
level and for each subcommand.
Each tree runs them in its own interpreter, through ``ifmsim.cli.main``
in-process, as the benchmark does.  The script prints every command whose
exit code, stdout or stderr differs, then a count.  When two JSON reports
differ in float values only, it lists each moved field, list positions
folded into ``[*]``, with its largest change and, for ``run`` and
``shots``, that change as a fraction of the run's rounding budget (2 eps
per element application); any other difference is shown as a unified
diff.  Last it prints each tree's summed command time per workload; the
two interpreters run at once, so a slower host slows both.  The times are
not compared.  It exits 0 when nothing differs and 1 otherwise.
"""

from __future__ import annotations

import argparse
import difflib
import itertools
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ifmsim import cli, schemes  # noqa: E402  (this tree's package)

TRACE_COMMANDS = (
    ["run", "--scheme", "multipixel-zeno", "--d", "3", "--N", "50", "--transmissions", "1,1,1"],
    ["run", "--scheme", "michelson-zeno", "--d", "4", "--N", "10000", "--pattern", "1010"],
    ["run", "--scheme", "multipixel-zeno", "--d", "64", "--N", "10000", "--transmissions",
     ",".join(f"{0.05 + 0.9 * k / 63:.4f}" for k in range(64))],
    ["run", "--scheme", "michelson-zeno", "--d", "5", "--N", str(schemes.BLOCK_ROWS + 1),
     "--transmissions", "0.3,1,0,0.8,0.5"],
)
HELP_COMMANDS = (["--help"], ["run", "--help"], ["sweep", "--help"], ["shots", "--help"],
                 ["verify", "--help"])

# Runs each command of the JSON list in argv[1] and writes one JSON line
# [exit, stdout, stderr] per command to argv[2], and its seconds, one line
# each, to argv[3].
CHILD = """
import contextlib, io, json, sys, time
from ifmsim.cli import main

with open(sys.argv[1]) as handle:
    commands = json.load(handle)
with open(sys.argv[2], "w") as results, open(sys.argv[3], "w") as times:
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                code = f"raised {type(exc).__name__}: {exc}"
        times.write(f"{time.perf_counter() - start!r}\\n")
        results.write(json.dumps([code, out.getvalue(), err.getvalue()]) + "\\n")
"""


def commands(seed: int, count: int) -> list[tuple[str, list[str]]]:
    """(name, argv) of every replayed command, in order: ``count`` of each
    workload stream with ``seed``, then the fixed ones."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    named = []
    for workload in WORKLOADS.values():
        stream = itertools.islice(workload.stream(seed), count)
        named += [(f"{workload.name}[{i}]", argv) for i, argv in enumerate(stream)]
    named += [(f"trace[{i}]", argv) for i, argv in enumerate(TRACE_COMMANDS)]
    return named + [("help", argv) for argv in HELP_COMMANDS]


def export(rev: str, dest: Path) -> None:
    """Write the files of revision ``rev`` to ``dest``."""
    with subprocess.Popen(["git", "-C", str(ROOT), "archive", rev],
                          stdout=subprocess.PIPE) as archive:
        tar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    if archive.returncode or tar.returncode:
        raise SystemExit(f"cannot export revision {rev!r}")


def start(tree: Path, command_file: Path, result_file: Path,
          time_file: Path) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "COLUMNS": "80",
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    return subprocess.Popen([sys.executable, "-c", CHILD, str(command_file), str(result_file),
                             str(time_file)], cwd=tree, env=env)


def workload_seconds(named: list[tuple[str, list[str]]], time_file: Path) -> dict[str, float]:
    """Summed command seconds per workload, the part of a name before ``[``."""
    totals: dict[str, float] = {}
    with open(time_file) as times:
        for (name, _), seconds in zip(named, times, strict=True):
            workload = name.split("[")[0]
            totals[workload] = totals.get(workload, 0.0) + float(seconds)
    return totals


def diff(kind: str, old: str, new: str) -> list[str]:
    lines = difflib.unified_diff(old.splitlines(keepends=True), new.splitlines(keepends=True),
                                 f"parent {kind}", f"this {kind}")
    return [line if line.endswith("\n") else line + "\n" for line in lines]


def float_moves(old, new, path: str = "", moves: dict | None = None) -> dict | None:
    """Largest change of each float field, for two JSON values that differ
    in float values only; None when anything else differs."""
    moves = {} if moves is None else moves
    if isinstance(old, float) and isinstance(new, float):
        if old != new:
            moves[path] = max(moves.get(path, 0.0), abs(new - old))
        return moves
    if type(old) is not type(new):
        return None
    if isinstance(old, dict):
        if old.keys() != new.keys():
            return None
        items = [(old[key], new[key], f"{path}.{key}" if path else key) for key in old]
    elif isinstance(old, list):
        if len(old) != len(new):
            return None
        items = [(a, b, f"{path}[*]") for a, b in zip(old, new)]
    else:
        return moves if old == new else None
    for a, b, where in items:
        if float_moves(a, b, where, moves) is None:
            return None
    return moves


def rounding_budget(argv: list[str]) -> float | None:
    """Rounding budget of the run behind a ``run`` or ``shots`` command."""
    command, cfg = cli.parse_config(argv)
    if command not in ("run", "shots"):
        return None
    applications = schemes.build_scheme(cfg.scheme_config()).applications
    return schemes.ROUNDING_ULPS_PER_APPLICATION * sys.float_info.epsilon * applications


def float_report(argv: list[str], old: list, new: list) -> list[str] | None:
    """One line per moved float field, or None unless the outputs differ
    only in the float values of their JSON reports."""
    (old_code, old_out, old_err), (new_code, new_out, new_err) = old, new
    if old_code != new_code or old_err != new_err:
        return None
    try:
        moves = float_moves(json.loads(old_out), json.loads(new_out))
    except ValueError:
        return None
    if not moves:
        return None
    budget = rounding_budget(argv)
    lines = []
    for field, change in moves.items():
        ratio = "" if budget is None else f", {change / budget:.3g} of the run's budget"
        lines.append(f"  {field}: largest change {change:.3g}{ratio}\n")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, metavar="REV",
                        help="revision to compare this tree with")
    parser.add_argument("--seed", type=int, default=1, help="seed of the workload streams")
    parser.add_argument("--commands", type=int, default=200, metavar="COUNT",
                        help="commands replayed from each workload stream")
    args = parser.parse_args()
    rev = args.parent
    named = commands(args.seed, args.commands)
    with tempfile.TemporaryDirectory(prefix="ifmsim-replay-") as tmp:
        tmp_path = Path(tmp)
        parent = tmp_path / "parent"
        parent.mkdir()
        export(rev, parent)
        command_file = tmp_path / "commands.json"
        command_file.write_text(json.dumps([argv for _, argv in named]))
        parent_results, this_results = tmp_path / "parent.jsonl", tmp_path / "this.jsonl"
        parent_times, this_times = tmp_path / "parent.times", tmp_path / "this.times"
        procs = [start(parent, command_file, parent_results, parent_times),
                 start(ROOT, command_file, this_results, this_times)]
        for proc in procs:
            if proc.wait():
                raise SystemExit(f"replay interpreter exited {proc.returncode}")
        differing = floats_only = 0
        with open(parent_results) as old_lines, open(this_results) as new_lines:
            for (name, argv), old, new in zip(named, old_lines, new_lines, strict=True):
                if old == new:
                    continue
                differing += 1
                old, new = json.loads(old), json.loads(new)
                out = [f"{name}: ifmsim {shlex.join(argv)}\n"]
                moved = float_report(argv, old, new)
                if moved is not None:
                    floats_only += 1
                    out += moved
                else:
                    if old[0] != new[0]:
                        out.append(f"  exit {old[0]} -> {new[0]}\n")
                    for kind, a, b in zip(("stdout", "stderr"), old[1:], new[1:]):
                        out += diff(kind, a, b)
                sys.stdout.writelines(out)
        old_seconds = workload_seconds(named, parent_times)
        new_seconds = workload_seconds(named, this_times)
    for workload, seconds in old_seconds.items():
        print(f"{workload}: {seconds:.3f} s at {rev}, {new_seconds[workload]:.3f} s here")
    print(f"{len(named)} commands replayed against {rev} (streams with seed {args.seed}, "
          f"{args.commands} each): {differing} differ, {floats_only} of them in float values only")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
