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
cycle past the engine's block of trace rows), then ``--format csv``
variants of ``run`` and ``sweep`` (the benchmark streams write JSON only;
one sweep has rows without a large-N expansion), then a ``run`` and a
``sweep`` that read the config file ``CONFIG``, written into a temporary
directory, each with a flag that overrides one of its keys, then ``--help``
for the top level and for each subcommand, then the usage errors of
``ERROR_COMMANDS``: a flag of another command under each subcommand, which
exits 2 in argparse, and an occupancy bit that is not 0 or 1.
Each tree runs them in its own interpreter, through ``ifmsim.cli.main``
in-process, as the benchmark does.  The script prints every command whose
exit code, stdout or stderr differs, then a count.  When two JSON reports
differ in float values only, it lists each moved field, list positions
folded into ``[*]``, with its largest change and, for ``run`` and
``shots``, that change as a fraction of the run's rounding budget after
its last cycle (``BuiltScheme.rounding_budget``); a z-score's change is first
turned into the change of p that moves it that far.  Any other difference
is shown as a unified diff.  The two interpreters run one after the other,
the parent first.  No time is reported: the tree that runs second reads
faster, so the times of one replay do not compare the trees.  It exits 0
when nothing differs and 1 otherwise.
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
CSV_COMMANDS = (
    ["run", "--scheme", "michelson-zeno", "--d", "4", "--N", "100", "--pattern", "1010"],
    ["run", "--scheme", "multipixel-single-pass", "--d", "3", "--transmissions", "0.3,1,0"],
    ["run", "--scheme", "multipixel-zeno", "--d", "2", "--N", "3", "--transmissions", "0.9,0.5"],
    ["run", "--scheme", "ev-single-pass", "--d", "1", "--pattern", "1"],
    ["sweep", "--scheme", "multipixel-zeno", "--d", "3", "--pattern", "101",
     "--sweep-N", "1,10,1000"],
    ["sweep", "--scheme", "zeno-single-pixel", "--d", "1", "--N", "50", "--sweep-T", "0,0.5,1"],
    ["sweep", "--scheme", "michelson-zeno", "--d", "6", "--N", "5",
     "--sweep-T", "0.019,0.826,0.156,1,0.972,0,0.947"],
)
# The config file of CONFIG_COMMANDS, which run with ``--config`` at its path.
CONFIG = {"scheme": "michelson-zeno", "d": 4, "N": 30, "transmissions": [0.2, 1, 0, 0.6],
          "format": "json"}
CONFIG_COMMANDS = (["run", "--N", "64"], ["sweep", "--sweep-N", "1,8,64", "--format", "csv"])
HELP_COMMANDS = (["--help"], ["run", "--help"], ["sweep", "--help"], ["shots", "--help"],
                 ["verify", "--help"])
_SCHEME = ["--scheme", "multipixel-zeno", "--d", "2", "--N", "4"]
ERROR_COMMANDS = (
    ["run", *_SCHEME, "--pattern", "10", "--seed", "1"],
    ["sweep", *_SCHEME, "--pattern", "10", "--sweep-N", "1,2", "--shots", "9"],
    ["shots", *_SCHEME, "--pattern", "10", "--sweep-N", "2"],
    ["verify", "--d", "3"],
    ["run", *_SCHEME, "--pattern", "1a"],
)

# Runs each command of the JSON list in argv[1] and writes one JSON line
# [exit, stdout, stderr] per command to argv[2].
CHILD = """
import contextlib, io, json, sys
from ifmsim.cli import main

with open(sys.argv[1]) as handle:
    commands = json.load(handle)
with open(sys.argv[2], "w") as results:
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                code = f"raised {type(exc).__name__}: {exc}"
        results.write(json.dumps([code, out.getvalue(), err.getvalue()]) + "\\n")
"""


def commands(seed: int, count: int, config: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of every replayed command, in order: ``count`` of each
    workload stream with ``seed``, then the fixed ones, reading the config
    file ``config``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    named = []
    for workload in WORKLOADS.values():
        stream = itertools.islice(workload.stream(seed), count)
        named += [(f"{workload.name}[{i}]", argv) for i, argv in enumerate(stream)]
    named += [(f"trace[{i}]", argv) for i, argv in enumerate(TRACE_COMMANDS)]
    named += [(f"csv[{i}]", [*argv, "--format", "csv"]) for i, argv in enumerate(CSV_COMMANDS)]
    named += [(f"config[{i}]", [argv[0], "--config", str(config), *argv[1:]])
              for i, argv in enumerate(CONFIG_COMMANDS)]
    named += [("help", argv) for argv in HELP_COMMANDS]
    return named + [(f"error[{i}]", argv) for i, argv in enumerate(ERROR_COMMANDS)]


def export(rev: str, dest: Path) -> None:
    """Write the files of revision ``rev`` to ``dest``."""
    with subprocess.Popen(["git", "-C", str(ROOT), "archive", rev],
                          stdout=subprocess.PIPE) as archive:
        tar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    if archive.returncode or tar.returncode:
        raise SystemExit(f"cannot export revision {rev!r}")


def replay(tree: Path, command_file: Path, result_file: Path) -> None:
    """Run the commands on ``tree`` in a fresh interpreter and wait for it."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "COLUMNS": "80",
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(command_file), str(result_file)],
                          cwd=tree, env=env)
    if proc.returncode:
        raise SystemExit(f"replay interpreter exited {proc.returncode}")


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
    return float(schemes.build_scheme(cfg.scheme_config()).rounding_budget()[-1])


def float_report(argv: list[str], old: list, new: list) -> list[str] | None:
    """One line per moved float field, or None unless the outputs differ
    only in the float values of their JSON reports."""
    (old_code, old_out, old_err), (new_code, new_out, new_err) = old, new
    if old_code != new_code or old_err != new_err:
        return None
    try:
        report = json.loads(new_out)
        moves = float_moves(json.loads(old_out), report)
    except ValueError:
        return None
    if not moves:
        return None
    budget = rounding_budget(argv)
    lines = []
    for field, change in moves.items():
        line = f"  {field}: largest change {change:.3g}"
        if budget is not None and field.startswith("z_scores."):
            # z = (f - p) / sqrt(p (1 - p) / shots): set against the budget
            # the change of p that moves z this far.
            label = field.removeprefix("z_scores.")
            exact = report["exact"]
            p = exact["p_abs"] if label == "absorbed" else exact["detectors"][label]
            change *= (p * (1.0 - p) / report["shots"]) ** 0.5
            line += f", as a change of p {change:.3g}"
        if budget is not None:
            line += f", {change / budget:.3g} of the run's budget"
        lines.append(line + "\n")
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
    with tempfile.TemporaryDirectory(prefix="ifmsim-replay-") as tmp:
        tmp_path = Path(tmp)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(CONFIG))
        named = commands(args.seed, args.commands, config)
        parent = tmp_path / "parent"
        parent.mkdir()
        export(rev, parent)
        command_file = tmp_path / "commands.json"
        command_file.write_text(json.dumps([argv for _, argv in named]))
        parent_results, this_results = tmp_path / "parent.jsonl", tmp_path / "this.jsonl"
        replay(parent, command_file, parent_results)
        replay(ROOT, command_file, this_results)
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
    print(f"{len(named)} commands replayed against {rev} (streams with seed {args.seed}, "
          f"{args.commands} each): {differing} differ, {floats_only} of them in float values only")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
