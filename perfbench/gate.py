"""Output gate: decides whether one ``ifmsim`` command failed.

A command fails if it raises, exits 2 or 3, prints output that is not
strict JSON (NaN and Infinity are rejected), reports a probability below 0
or above 1, reports a distribution whose sum is more than ``TOL`` from 1,
or reports a simulator-vs-closed-form gap above ``TOL``.  Exit 4 (the
reconstruction disagrees with the configured object) is a valid answer of
``shots`` and not a failure.

``failure`` with ``range_slack=0`` is the strict gate behind the error
rate.  With ``range_slack=TOL`` it only accepts probabilities that stray
outside [0, 1] by less than the ``verify`` tolerance, which tells rounding
at the last digits apart from a wrong answer; that form decides which
commands the benchmark counts as failed.
"""

from __future__ import annotations

import json
import math

# Tolerance of ``ifmsim verify`` and of the CLI's own sum check.
TOL = 1e-10


class GateFailure(Exception):
    """One violated output condition."""


def _reject_constant(name: str):
    raise ValueError(f"bare {name}")


def strict_json(text: str):
    """Parse ``text`` as JSON, rejecting NaN and +/-Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _probability(name: str, p, slack: float) -> None:
    if isinstance(p, bool) or not isinstance(p, (int, float)) or not math.isfinite(p):
        raise GateFailure(f"not a probability: {name}={p!r}")
    if p < -slack:
        raise GateFailure(f"probability below 0: {name}={p!r}")
    if p > 1.0 + slack:
        raise GateFailure(f"probability above 1: {name}={p!r}")


def _distribution(name: str, probs: dict, p_abs, slack: float) -> None:
    for label, p in probs.items():
        _probability(f"{name}.{label}", p, slack)
    _probability(f"{name}.p_abs", p_abs, slack)
    total = sum(probs.values()) + p_abs
    if abs(total - 1.0) > TOL:
        raise GateFailure(f"distribution sum off: {name} sums to {total!r}")


def _flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def _check_run(argv: list[str], rc: int, report: dict, slack: float) -> None:
    detectors, p_abs = report["detectors"], report["p_abs"]
    _distribution("detectors", detectors, p_abs, slack)
    _probability("survival", report["survival"], slack)
    for rec in report["trace"]:
        _probability(f"trace[{rec['cycle']}].survival", rec["survival"], slack)
        _probability(f"trace[{rec['cycle']}].p_abs_cycle", rec["p_abs_cycle"], slack)
    exact = report["analytic"]["exact"]
    if exact is None:
        return
    _distribution("analytic.exact", exact, report["analytic"]["p_abs"], slack)
    if exact.keys() != detectors.keys():
        raise GateFailure("oracle gap: detector labels differ from analytic.exact")
    gap = max([abs(detectors[k] - exact[k]) for k in exact]
              + [abs(p_abs - report["analytic"]["p_abs"])])
    if gap > TOL:
        raise GateFailure(f"oracle gap: simulator vs analytic.exact differ by {gap!r}")


def _check_sweep(argv: list[str], rc: int, report: dict, slack: float) -> None:
    axis = _flag(argv, "--sweep-N") or _flag(argv, "--sweep-T")
    rows = report["rows"]
    if len(rows) != len(axis.split(",")):
        raise GateFailure(f"row count: {len(rows)} rows for {axis!r}")
    for i, row in enumerate(rows):
        exact = {k: v for k, v in row.items() if k.startswith("exact_") and k != "exact_p_abs"}
        _distribution(f"rows[{i}].exact", exact, row["exact_p_abs"], slack)


def _check_shots(argv: list[str], rc: int, report: dict, slack: float) -> None:
    shots = int(_flag(argv, "--shots"))
    exact = report["exact"]
    _distribution("exact", exact["detectors"], exact["p_abs"], slack)
    if sum(report["counts"].values()) + report["absorbed"] != shots or report["shots"] != shots:
        raise GateFailure(f"shot count: counts do not add up to {shots}")
    if (rc == 4) != (report["pattern_match"] is False):
        raise GateFailure(f"exit code: exit {rc} with pattern_match={report['pattern_match']}")


def _check_verify(argv: list[str], rc: int, report: dict, slack: float) -> None:
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    if failed or not report["checks"]:
        raise GateFailure(f"verify: failed checks {failed}")


CHECKS = {"run": _check_run, "sweep": _check_sweep, "shots": _check_shots,
          "verify": _check_verify}


def failure(argv: list[str], rc: int | None, out: str, exc: BaseException | None,
            range_slack: float = 0.0) -> str | None:
    """Reason the command failed, or None if its result passes the gate."""
    if exc is not None:
        return f"raised: {type(exc).__name__}: {exc}"
    if rc in (2, 3):
        return f"exit {rc}"
    if rc not in (0, 4) or (rc == 4 and argv[0] != "shots"):
        return f"unexpected exit {rc}"
    try:
        report = strict_json(out)
    except ValueError as err:
        return f"not strict JSON: {err}"
    try:
        CHECKS[argv[0]](argv, rc, report, range_slack)
    except GateFailure as err:
        return str(err)
    except (KeyError, TypeError, AttributeError) as err:
        return f"malformed report: {type(err).__name__}: {err}"
    return None


def category(reason: str) -> str:
    """Short failure class of a reason, for tallies."""
    return reason.split(":", 1)[0]
