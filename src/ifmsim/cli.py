"""Command-line front end.

Subcommands:

* ``run``    - evolve one configuration exactly and report the detection
               distribution, the closed-form comparison and the cycle trace.
* ``sweep``  - tabulate closed-form probabilities along an N or T axis.
* ``shots``  - Monte Carlo sampling, click statistics and image
               reconstruction.
* ``verify`` - run the structural and outcome self-check suites.

Exit codes: 0 success, 2 usage error, 3 numeric or invariant failure,
4 reconstruction mismatch against the configured ground truth.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

from ifmsim import analytics, experiment, verify
from ifmsim.core import SCHEME_KINDS, ZENO_KINDS, PixelPattern
from ifmsim.schemes import SINGLE_PIXEL_KINDS, SchemeConfig, run_scheme

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_MISMATCH = 4

DEFAULT_SHOTS = 10000
DEFAULT_SEED = 0


class UsageError(Exception):
    """Invalid or inconsistent command-line configuration."""


class Field(NamedTuple):
    """One configuration field, read from a flag or a config-file key.

    ``key`` is the config-file key and, after ``--``, the flag; ``attr`` is
    the RunConfig attribute and the flag's dest.  Flag text converts to
    ``item`` (a comma-separated list of it when ``many``); a config-file
    value must already be of that type (a JSON list of it when ``many``).
    Both sources are held to ``choices``.
    """

    key: str
    attr: str
    item: type = str
    many: bool = False
    choices: tuple[str, ...] | None = None
    help: str | None = None
    metavar: str | None = None

    def from_flag(self, value):
        """Value of the flag; argparse has already converted scalars."""
        if not self.many:
            return value
        try:
            return tuple(self.item(x) for x in value.split(","))
        except ValueError as exc:
            noun = "integer" if self.item is int else "number"
            raise UsageError(f"invalid {noun} list {value!r}") from exc

    def from_json(self, value):
        """Value of a config-file entry, held to the flag's type and choices."""
        items = value if self.many else [value]
        allowed = (int, float) if self.item is float else self.item
        if not isinstance(items, list) or any(
                isinstance(x, bool) or not isinstance(x, allowed) for x in items):
            expected = f"list of {self.item.__name__}" if self.many else self.item.__name__
            raise UsageError(f"config: {self.key}: expected {expected}, got {value!r}")
        if self.choices is not None and value not in self.choices:
            raise UsageError(f"config: {self.key}: invalid choice {value!r} "
                             f"(choose from {', '.join(map(repr, self.choices))})")
        return tuple(self.item(x) for x in items) if self.many else value


# Every field of RunConfig, in flag order.  The config-file aliases
# ``sweep_N``/``sweep_T`` are the keys with ``-`` written as ``_``.
FIELDS = (
    Field("scheme", "scheme", choices=tuple(sorted(SCHEME_KINDS))),
    Field("d", "d", int, help="pixel count"),
    Field("N", "n_cycles", int, help="cycle count"),
    Field("pattern", "pattern", help="occupancy bits, e.g. 1010 (1 = opaque)"),
    Field("transmissions", "transmissions", float, many=True,
          help="comma-separated per-pixel transmissions in [0, 1]"),
    Field("shots", "shots", int),
    Field("seed", "seed", int),
    Field("sweep-N", "sweep_n", int, many=True, help="comma-separated cycle counts"),
    Field("sweep-T", "sweep_t", float, many=True, help="comma-separated uniform transmissions"),
    Field("format", "format", choices=("json", "csv")),
    Field("out", "out", metavar="PATH"),
)


@dataclass(frozen=True)
class RunConfig:
    """Parsed experiment configuration shared by all subcommands."""

    scheme: str | None = None
    d: int | None = None
    n_cycles: int = 1
    pattern: str | None = None
    transmissions: tuple[float, ...] | None = None
    shots: int = DEFAULT_SHOTS
    seed: int = DEFAULT_SEED
    sweep_n: tuple[int, ...] | None = None
    sweep_t: tuple[float, ...] | None = None
    # None means "not set": run/sweep/shots default to json, verify to text.
    format: str | None = None
    out: str | None = None

    def to_dict(self) -> dict:
        values = {f.key: getattr(self, f.attr) for f in FIELDS}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Config from file keys; a null or missing key keeps the default."""
        if not isinstance(data, dict):
            raise UsageError("config: expected a JSON object")
        known = {k for f in FIELDS for k in (f.key, f.key.replace("-", "_"))}
        for key in data:
            if key not in known:
                raise UsageError(f"config: {key}: unknown key")
        values = {}
        for field in FIELDS:
            value = data.get(field.key)
            if value is None:
                value = data.get(field.key.replace("-", "_"))
            if value is not None:
                values[field.attr] = field.from_json(value)
        return cls(**values)

    def pixel_pattern(self) -> PixelPattern:
        if self.pattern is not None and self.transmissions is not None:
            raise UsageError("give either 'pattern' or 'transmissions', not both")
        if self.pattern is not None:
            try:
                result = PixelPattern.from_bits(self.pattern)
            except ValueError as exc:
                raise UsageError(f"pattern: {exc}") from exc
        elif self.transmissions is not None:
            try:
                result = PixelPattern(self.transmissions)
            except ValueError as exc:
                raise UsageError(f"transmissions: {exc}") from exc
        else:
            raise UsageError("missing field: pattern (or transmissions)")
        if self.d is not None and result.d != self.d:
            source = "pattern" if self.pattern is not None else "transmissions"
            raise UsageError(f"{source} length {result.d} does not match d={self.d}")
        return result

    def scheme_config(self, n_cycles: int | None = None,
                      pattern: PixelPattern | None = None) -> SchemeConfig:
        if self.scheme is None:
            raise UsageError("missing field: scheme")
        if self.d is None:
            raise UsageError("missing field: d")
        try:
            return SchemeConfig(
                kind=self.scheme,
                pattern=pattern if pattern is not None else self.pixel_pattern(),
                n_cycles=self.n_cycles if n_cycles is None else n_cycles,
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifmsim",
        description="Interaction-free imaging simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "exact run of one configuration"),
        ("sweep", "closed-form table along an N or T axis"),
        ("shots", "Monte Carlo sampling and reconstruction"),
        ("verify", "self-check suites"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, metavar="FILE",
                       help="JSON file with the same keys as the flags")
        for field in FIELDS:
            p.add_argument(f"--{field.key}", type=str if field.many else field.item,
                           default=None, dest=field.attr, choices=field.choices,
                           help=field.help, metavar=field.metavar)
    return parser


def parse_config(argv: list[str]) -> tuple[str, RunConfig]:
    """Parse flags (and an optional config file; flags take precedence)."""
    args = build_parser().parse_args(argv)
    file_cfg = RunConfig()
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise UsageError(f"config: cannot read {args.config!r}: {exc}") from exc
        except ValueError as exc:
            raise UsageError(f"config: invalid JSON config: {exc}") from exc
        file_cfg = RunConfig.from_dict(data)
    flags = {f.attr: f.from_flag(getattr(args, f.attr))
             for f in FIELDS if getattr(args, f.attr) is not None}
    return args.command, replace(file_cfg, **flags)


def _round15(obj):
    """Round floats to 15 significant digits for byte-stable reports."""
    if isinstance(obj, float):
        return float(f"{obj:.15g}")
    if isinstance(obj, dict):
        return {k: _round15(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round15(v) for v in obj]
    return obj


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"out: cannot write {out!r}: {exc}") from exc


def _json_report(report: dict) -> str:
    """Strict JSON text of ``report``; a NaN or infinity raises ValueError (exit 3)."""
    try:
        return json.dumps(_round15(report), sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValueError(f"report holds a non-finite value: {exc}") from exc


def _fmt_float(x: float) -> str:
    return f"{x:.15g}"


def _analytic_block(config: SchemeConfig) -> dict:
    block: dict = {"exact": None, "asymptotic": None, "p_abs": None, "efficiency": None}
    try:
        exact = analytics.exact_distribution(config)
        block["exact"] = dict(exact.exact) if exact.exact else None
        block["p_abs"] = exact.p_abs
        block["efficiency"] = exact.efficiency
    except ValueError:
        pass
    asym = analytics.asymptotic_distribution(config)
    if asym is not None:
        block["asymptotic"] = dict(asym.asymptotic or {})
        block["asymptotic_p_abs"] = asym.p_abs
    return block


def _reject_sweep_axes(cfg: RunConfig, command: str) -> None:
    if cfg.sweep_n is not None or cfg.sweep_t is not None:
        raise UsageError(f"{command} is a single-run command; drop sweep-N/sweep-T")


def cmd_run(cfg: RunConfig) -> int:
    _reject_sweep_axes(cfg, "run")
    scheme_config = cfg.scheme_config()
    result = run_scheme(scheme_config)
    dist = result.distribution
    total = sum(dist.probabilities.values()) + dist.p_abs
    if abs(total - 1.0) > 1e-10:
        sys.stderr.write(f"error: distribution sums to {total!r}, not 1\n")
        return EXIT_NUMERIC
    report = {
        "config": cfg.to_dict(),
        "detectors": dict(dist.probabilities),
        "p_abs": dist.p_abs,
        "survival": 1.0 - dist.p_abs,
        "analytic": _analytic_block(scheme_config),
        "trace": [
            {"cycle": k, "survival": s, "p_abs_cycle": p}
            for k, (s, p) in enumerate(zip(result.trace.survival, result.trace.p_abs_cycle), 1)
        ],
    }
    if (cfg.format or "json") == "json":
        _emit(_json_report(report), cfg.out)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["quantity", "value"])
        for label, p in dist.probabilities.items():
            writer.writerow([label, _fmt_float(p)])
        writer.writerow(["p_abs", _fmt_float(dist.p_abs)])
        writer.writerow(["survival", _fmt_float(1.0 - dist.p_abs)])
        _emit(buf.getvalue(), cfg.out)
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    if (cfg.sweep_n is None) == (cfg.sweep_t is None):
        raise UsageError("sweep needs exactly one of sweep-N or sweep-T")
    if cfg.scheme not in ZENO_KINDS:
        raise UsageError("sweep is defined for the cycling schemes")

    points: list[SchemeConfig] = []
    values: list[float] = []
    axis = "N" if cfg.sweep_n is not None else "T"
    if cfg.sweep_n is not None:
        if len(cfg.sweep_n) == 0:
            raise UsageError("sweep-N: empty sweep axis")
        base_pattern = cfg.pixel_pattern()
        for n in cfg.sweep_n:
            if n < 1:
                raise UsageError(f"sweep-N: cycle count must be >= 1, got {n}")
            points.append(cfg.scheme_config(n_cycles=n, pattern=base_pattern))
            values.append(float(n))
    else:
        assert cfg.sweep_t is not None
        if len(cfg.sweep_t) == 0:
            raise UsageError("sweep-T: empty sweep axis")
        if cfg.d is None:
            raise UsageError("missing field: d")
        for t in cfg.sweep_t:
            if not (0.0 <= t <= 1.0):
                raise UsageError(f"sweep-T: transmission {t} outside [0, 1]")
            pattern = PixelPattern((t,) * cfg.d)
            points.append(cfg.scheme_config(pattern=pattern))
            values.append(float(t))

    rows = []
    for index, (value, point) in enumerate(zip(values, points)):
        exact = analytics.exact_distribution(point)
        asym = analytics.asymptotic_distribution(point)
        row: dict = {
            "index": index,
            "axis": axis,
            "value": value,
            "scheme": point.kind,
            "d": point.d,
            "N": point.n_cycles,
            "theta": point.effective_theta,
        }
        assert exact.exact is not None
        for label, p in exact.exact.items():
            row[f"exact_{label}"] = p
        row["exact_p_abs"] = exact.p_abs
        if asym is not None and asym.asymptotic is not None:
            for label, p in asym.asymptotic.items():
                row[f"asym_{label}"] = p
            row["asym_p_abs"] = asym.p_abs
            for label, p in asym.asymptotic.items():
                row[f"gap_{label}"] = abs(exact.exact[label] - p)
            row["gap_p_abs"] = abs(exact.p_abs - asym.p_abs)
        rows.append(row)

    if (cfg.format or "json") == "json":
        _emit(_json_report({"config": cfg.to_dict(), "rows": rows}), cfg.out)
    else:
        columns: list[str] = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([
                _fmt_float(v) if isinstance(v, float) else v
                for v in (row.get(c, "") for c in columns)
            ])
        _emit(buf.getvalue(), cfg.out)
    return EXIT_OK


def cmd_shots(cfg: RunConfig) -> int:
    _reject_sweep_axes(cfg, "shots")
    if cfg.shots < 1:
        raise UsageError(f"shots must be >= 1, got {cfg.shots}")
    if cfg.seed < 0:
        raise UsageError(f"seed must be >= 0, got {cfg.seed}")
    scheme_config = cfg.scheme_config()
    result = run_scheme(scheme_config)
    dist = result.distribution
    counts, records = experiment.sample_distribution(dist, cfg.shots, cfg.seed)

    stat = experiment.statistical_check(counts, dist) if cfg.shots >= 100 else None

    reconstruction = None
    pattern_match: bool | None = None
    if scheme_config.kind == "semitransparent-zeno":
        image = experiment.estimate_transmissions(counts, scheme_config)
        reconstruction = {
            "verdicts": list(image.verdicts),
            "transmission_estimates": list(image.transmission or ()),
            "intervals": [list(i) if i else None for i in (image.intervals or ())],
        }
    elif scheme_config.kind not in SINGLE_PIXEL_KINDS:
        image = experiment.reconstruct_pattern(counts, scheme_config)
        reconstruction = {"verdicts": list(image.verdicts)}
        truth = [
            experiment.OPAQUE if f else experiment.TRANSPARENT
            for f in scheme_config.pattern.f
        ]
        pattern_match = list(image.verdicts) == truth

    report = {
        "config": cfg.to_dict(),
        "counts": dict(counts.counts),
        "absorbed": counts.absorbed,
        "shots": counts.total,
        "exact": {"detectors": dict(dist.probabilities), "p_abs": dist.p_abs},
        "z_scores": dict(stat.z_scores) if stat else None,
        "violations": list(stat.violations) if stat else None,
        "reconstruction": reconstruction,
        "pattern_match": pattern_match,
    }
    if (cfg.format or "json") == "json":
        _emit(_json_report(report), cfg.out)
    else:
        _emit(records.to_csv(), cfg.out)
    if pattern_match is False:
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    results = verify.run_all_checks()
    if cfg.format == "json":
        payload = {
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
            ]
        }
        _emit(_json_report(payload), cfg.out)
    else:
        lines = [
            f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
        ]
        n_pass = sum(r.passed for r in results)
        lines.append(f"{n_pass}/{len(results)} checks passed")
        _emit("\n".join(lines) + "\n", cfg.out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_NUMERIC


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        command, cfg = parse_config(list(argv))
        if command == "run":
            return cmd_run(cfg)
        if command == "sweep":
            return cmd_sweep(cfg)
        if command == "shots":
            return cmd_shots(cfg)
        if command == "verify":
            return cmd_verify(cfg)
        raise UsageError(f"unknown command {command!r}")
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
