"""Command-line front end.

Subcommands, each taking ``--config`` and the flags of the fields it reads
(``Field.commands``; any other flag exits 2, as an unknown one does):

* ``run``    - evolve one configuration exactly and report the detection
               distribution, the closed-form comparison and the cycle trace.
* ``sweep``  - tabulate closed-form probabilities along an N or T axis.
* ``shots``  - Monte Carlo sampling, click statistics and image
               reconstruction.
* ``verify`` - run the structural and outcome self-check suites.

Exit codes: 0 success, 2 usage error, 3 numeric or invariant failure or
a run too large for memory, 4 reconstruction mismatch against the
configured ground truth.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterator, NamedTuple, TextIO

import numpy as np

from ifmsim import analytics, experiment, verify
from ifmsim.core import DetectionDistribution, PixelPattern
from ifmsim.schemes import KINDS, SchemeConfig, SchemeTrace, run_scheme

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_MISMATCH = 4

DEFAULT_SHOTS = 10000
DEFAULT_SEED = 0

_MIN_NORMAL = sys.float_info.min


class UsageError(Exception):
    """Invalid or inconsistent command-line configuration."""


class Field(NamedTuple):
    """One configuration field, read from a flag or a config-file key.

    ``key`` is the config-file key and, after ``--``, the flag of each
    subcommand in ``commands``; ``attr`` is the RunConfig attribute and the
    flag's dest.  Flag text converts to ``item`` (a comma-separated list of
    it when ``many``); a config-file value must already be of that type (a
    JSON list of it when ``many``).  Both sources are held to ``choices``.
    """

    key: str
    attr: str
    commands: tuple[str, ...]
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
            raise UsageError(f"{self.key}: invalid {noun} list {value!r}") from exc

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


# The subcommands that build a scheme, and so read its fields.
SCHEME_COMMANDS = ("run", "sweep", "shots")

# Every field of RunConfig, in flag order.  The config-file aliases
# ``sweep_N``/``sweep_T`` are the keys with ``-`` written as ``_``.
FIELDS = (
    Field("scheme", "scheme", SCHEME_COMMANDS, choices=tuple(sorted(KINDS)), help="scheme kind"),
    Field("d", "d", SCHEME_COMMANDS, int, help="pixel count"),
    Field("N", "n_cycles", SCHEME_COMMANDS, int, help="cycle count"),
    Field("pattern", "pattern", SCHEME_COMMANDS, help="occupancy bits, e.g. 1010 (1 = opaque)"),
    Field("transmissions", "transmissions", SCHEME_COMMANDS, float, many=True,
          help="comma-separated per-pixel transmissions in [0, 1]"),
    Field("shots", "shots", ("shots",), int, help=f"photons sent (default {DEFAULT_SHOTS})"),
    Field("seed", "seed", ("shots",), int,
          help=f"random seed, 0 <= seed < 2**128 (default {DEFAULT_SEED})"),
    Field("sweep-N", "sweep_n", ("sweep",), int, many=True, help="comma-separated cycle counts"),
    Field("sweep-T", "sweep_t", ("sweep",), float, many=True,
          help="comma-separated uniform transmissions"),
    Field("format", "format", (*SCHEME_COMMANDS, "verify"), choices=("json", "csv"),
          help="report format (default json); verify takes json only "
               "and writes a text table without it"),
    Field("out", "out", (*SCHEME_COMMANDS, "verify"), metavar="PATH",
          help="write to PATH, not stdout"),
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
        """Config from the keys of any command, each in one spelling; null keeps the default."""
        if not isinstance(data, dict):
            raise UsageError("config: expected a JSON object")
        known = {k for f in FIELDS for k in (f.key, f.key.replace("-", "_"))}
        for key in data:
            if key not in known:
                raise UsageError(f"config: {key}: unknown key")
        values = {}
        for field in FIELDS:
            given = {field.key, field.key.replace("-", "_")} & data.keys()
            if len(given) > 1:
                raise UsageError(f"config: {field.key}: given twice, as "
                                 f"{' and '.join(map(repr, sorted(given)))}")
            value = data[given.pop()] if given else None
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ifmsim`` parser, built on first use and shared by every later call.

    Parsing reads the parser and never changes it, and each ``parse_args``
    starts from a fresh namespace, so one call's flags cannot leak into the
    next.  Building it costs far more than a parse of a short command.
    """
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
                       help="JSON file keyed like the flags; keys of other "
                            "commands are type-checked and ignored")
        for field in (f for f in FIELDS if name in f.commands):
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
             for f in FIELDS if getattr(args, f.attr, None) is not None}
    return args.command, replace(file_cfg, **flags)


@contextlib.contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    """Stream to write a command's output to: stdout, or the file ``out``.

    The file is opened on entry, so an unwritable path fails before any
    work; an error opening or writing it, or writing stdout (a pipe whose
    reader has gone), is a usage error (exit 2).
    """
    if out is None:
        try:
            yield sys.stdout
            sys.stdout.flush()
        except OSError as exc:
            # The interpreter flushes stdout again at exit, which would fail
            # the same way; a stdout with a file descriptor is pointed at the
            # null device first.
            with contextlib.suppress(OSError, ValueError):
                fd = sys.stdout.fileno()
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)
            raise UsageError(f"cannot write stdout: {exc}") from exc
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            yield handle
    except OSError as exc:
        raise UsageError(f"out: cannot write {out!r}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    with _output(out) as stream:
        stream.write(text)


# Trace rows formatted at a time.  A block's text (about 30 KB) is small
# beside the output even at N = 10^3, and its fixed numpy cost adds about 5%
# to the time of formatting it.
TRACE_BLOCK_ROWS = 256


def _non_finite(x: float) -> ValueError:
    return ValueError(f"Out of range float values are not JSON compliant: {float.__repr__(x)}")


def _json_float(x: float) -> str:
    """``repr`` of ``x`` rounded to 15 significant digits."""
    if not math.isfinite(x):
        raise _non_finite(x)
    s = f"{x:.15g}"
    if "e+" in s or (x and -_MIN_NORMAL < x < _MIN_NORMAL):
        return repr(float(s))
    if "." in s or "e" in s:
        return s
    return s + ".0"


def _json_write(obj, out: list, indent: str) -> None:
    """Append the JSON text of ``obj``, nested at ``indent``, to ``out``.

    A trace is appended as the iterator of its text (``_trace_blocks``);
    everything else as strings.
    """
    # Floats come first because reports are mostly floats; a bool is tested
    # before an int because it is one.
    if isinstance(obj, float):
        out.append(_json_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(obj):
            out.append(sep + _json_str(key) + ": ")
            _json_write(obj[key], out, inner)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in obj:
            out.append(sep)
            _json_write(item, out, inner)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif isinstance(obj, SchemeTrace):
        # The columns are checked for NaN and infinity here, so a bad trace
        # raises before any of its text is written; the rows are formatted
        # later, when the iterator is read, ``TRACE_BLOCK_ROWS`` at a time.
        for column in (obj.p_abs_cycle, obj.survival):
            bad = np.flatnonzero(~np.isfinite(column))
            if bad.size:
                raise _non_finite(float(column[bad[0]]))
        out.append(_trace_blocks(obj, indent) if len(obj) else "[]")
    elif isinstance(obj, str):
        out.append(_json_str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _trace_blocks(trace: SchemeTrace, indent: str) -> Iterator[str]:
    """Text of a non-empty, finite ``trace``, one block of rows at a time.

    Every row is written from one ``%.15g`` template.  A row holding a value
    whose ``%.15g`` text may differ from ``_json_float`` (one within 1e-14 of
    an integer, including 0 and -0, a subnormal, or one at or above 1e14)
    takes the template's ``%s`` form with ``_json_float`` text instead, so
    the text is the same.  That text is made once per value and block: a
    unitary run repeats 0.0 and 1.0 on every row.
    """
    inner = indent + "  "
    field = inner + "  "
    row = (f'{{\n{field}"cycle": %d,\n{field}"p_abs_cycle": %.15g,\n'
           f'{field}"survival": %.15g\n{inner}}}')
    exact_row = row.replace("%.15g", "%s")
    sep = f",\n{inner}"
    head = f"[\n{inner}"
    n = len(trace)
    for start in range(0, n, TRACE_BLOCK_ROWS):
        stop = min(start + TRACE_BLOCK_ROWS, n)
        columns = np.stack((trace.p_abs_cycle[start:stop], trace.survival[start:stop]))
        magnitude = np.abs(columns)
        plain = ((magnitude >= _MIN_NORMAL) & (magnitude < 1e14)
                 & (np.abs(columns - np.rint(columns)) > 1e-14 * magnitude))
        rows = [row] * (stop - start)
        values: list = [None] * (3 * len(rows))
        values[0::3] = range(start + 1, stop + 1)
        values[1::3], values[2::3] = columns.tolist()
        exact = np.flatnonzero(~plain.all(axis=0))
        # Keyed by the bits of the value, which tell -0.0 from 0.0.
        texts: dict[int, str] = {}
        for k, *keys in zip(exact.tolist(), *columns[:, exact].view(np.int64).tolist()):
            rows[k] = exact_row
            for at, key in enumerate(keys, 3 * k + 1):
                text = texts.get(key)
                if text is None:
                    text = texts[key] = _json_float(values[at])
                values[at] = text
        yield head + sep.join(rows) % tuple(values)
        head = sep
    yield f"\n{indent}]"


def _json_pieces(report: dict) -> list:
    """The JSON text of ``report`` as strings and the iterators of its traces.

    Every value outside a trace is serialized, and every trace checked for
    NaN and infinity, so a report that raises here has written nothing.
    """
    out: list = []
    try:
        _json_write(report, out, "")
    except ValueError as exc:
        raise ValueError(f"report holds a non-finite value: {exc}") from exc
    out.append("\n")
    return out


def _write_pieces(pieces: list, stream: TextIO) -> None:
    """Write the pieces of ``_json_pieces`` to ``stream``: the text between
    traces in one write each, and each trace a block of rows at a time."""
    text: list[str] = []
    for piece in pieces:
        if isinstance(piece, str):
            text.append(piece)
        else:
            stream.write("".join(text))
            text.clear()
            stream.writelines(piece)
    stream.write("".join(text))


def _emit_json(report: dict, out: str | None) -> None:
    """Write the JSON text of ``report`` (see ``_json_report``) to stdout or ``out``.

    The report is checked and all but its trace rows serialized before
    ``out`` is opened, so a NaN or infinity (ValueError, exit 3) writes
    nothing and leaves an existing file as it was.  Memory does not grow
    with the trace length beyond the trace's own arrays.
    """
    pieces = _json_pieces(report)
    with _output(out) as stream:
        _write_pieces(pieces, stream)


def _json_report(report: dict) -> str:
    """Strict JSON text of ``report``; a NaN or infinity raises ValueError (exit 3).

    The text is that of ``json.dumps(.., sort_keys=True, indent=2)`` with
    every float first rounded to 15 significant digits, so fixed-seed reruns
    are byte-identical, but it is written in one pass: the standard encoder
    falls back to pure Python whenever it indents, and rounding there needs a
    copy of the whole tree.  A float is written as its ``f"{x:.15g}"`` text,
    which equals ``repr`` of the rounded float except in three cases:

    * an integral value such as ``100`` or ``-0`` lacks the ``.0`` that
      ``repr`` writes, so it is appended;
    * ``%g`` switches to exponent form at 1e15 and ``repr`` only at 1e16,
      so text with a positive exponent is re-read and written by ``repr``;
    * below the smallest normal float fewer than 15 digits are significant
      and ``repr`` writes fewer (``5e-324``, not ``4.94065645841247e-324``),
      so a nonzero subnormal goes through ``repr`` too.

    A ``SchemeTrace`` value is written as its list of row objects, sorted
    keys ``cycle``, ``p_abs_cycle``, ``survival``, all rows from one
    template (``_trace_blocks``), so ``run`` builds no row dicts.  Keys
    must be strings, as every report key is.  The commands write the same
    text straight to their output through ``_emit_json``.
    """
    buffer = io.StringIO()
    _write_pieces(_json_pieces(report), buffer)
    return buffer.getvalue()


def _emit_csv(rows: list, out: str | None) -> None:
    """Write ``rows`` as CSV, each float as its ``%.15g`` text and None as an empty cell."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [f"{v:.15g}" if isinstance(v, float) else v for v in row] for row in rows)
    _emit(buf.getvalue(), out)


def _analytic_block(config: SchemeConfig) -> dict:
    """Closed-form comparison of ``run``; the exact entries are null where no
    closed form exists (a single-pass kind on an object that is not binary)."""
    block: dict = {"exact": None, "asymptotic": None, "p_abs": None, "efficiency": None}
    if config.pattern.is_binary or not config.spec.single_pass:
        exact = analytics.exact_distribution(config)
        block["exact"] = dict(exact.exact)
        block["p_abs"] = exact.p_abs
        block["efficiency"] = exact.efficiency
    asym = analytics.asymptotic_distribution(config)
    if asym is not None:
        block["asymptotic"] = dict(asym.asymptotic)
        block["asymptotic_p_abs"] = asym.p_abs
    return block


def cmd_run(cfg: RunConfig) -> int:
    scheme_config = cfg.scheme_config()
    result = run_scheme(scheme_config)
    dist = result.distribution
    total = dist.total()
    if abs(total - 1.0) > 1e-10:
        sys.stderr.write(f"error: distribution sums to {total!r}, not 1\n")
        return EXIT_NUMERIC
    report = {
        "config": cfg.to_dict(),
        "detectors": dict(dist.probabilities),
        "p_abs": dist.p_abs,
        "survival": float(result.trace.survival[-1]),
        "analytic": _analytic_block(scheme_config),
        "trace": result.trace,
    }
    if (cfg.format or "json") == "json":
        _emit_json(report, cfg.out)
    else:
        _emit_csv([("quantity", "value"), *dist.probabilities.items(),
                   ("p_abs", dist.p_abs), ("survival", report["survival"])], cfg.out)
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    if (cfg.sweep_n is None) == (cfg.sweep_t is None):
        raise UsageError("sweep needs exactly one of sweep-N or sweep-T")
    axis, values = ("N", cfg.sweep_n) if cfg.sweep_n is not None else ("T", cfg.sweep_t)
    if len(values) == 0:
        raise UsageError(f"sweep-{axis}: empty sweep axis")
    if axis == "N":
        pattern = cfg.pixel_pattern()
        points = [cfg.scheme_config(n_cycles=n, pattern=pattern) for n in values]
    else:
        if cfg.d is None:
            raise UsageError("missing field: d")
        try:
            patterns = [PixelPattern((t,) * cfg.d) for t in values]
        except ValueError as exc:
            raise UsageError(f"sweep-T over d={cfg.d}: {exc}") from exc
        points = [cfg.scheme_config(pattern=pattern) for pattern in patterns]
    if points[0].spec.single_pass:
        raise UsageError("sweep is defined for the cycling schemes")

    rows = []
    for index, (value, point) in enumerate(zip(values, points)):
        row: dict = {"index": index, "axis": axis, "value": float(value), "scheme": point.kind,
                     "d": point.d, "N": point.n_cycles, "theta": point.effective_theta}
        block = _analytic_block(point)
        exact = {**block["exact"], "p_abs": block["p_abs"]}
        asym = block["asymptotic"] and {**block["asymptotic"], "p_abs": block["asymptotic_p_abs"]}
        gap = asym and {key: abs(exact[key] - asym[key]) for key in exact}
        # A row without the large-N expansion keeps its keys, at null.
        for prefix, table in (("exact", exact), ("asym", asym), ("gap", gap)):
            row.update((f"{prefix}_{key}", table[key] if table else None) for key in exact)
        rows.append(row)

    if (cfg.format or "json") == "json":
        _emit_json({"config": cfg.to_dict(), "rows": rows}, cfg.out)
    else:
        # Every row of a sweep has one kind and d, so the rows share their keys.
        _emit_csv([rows[0].keys(), *(row.values() for row in rows)], cfg.out)
    return EXIT_OK


def cmd_shots(cfg: RunConfig) -> int:
    if cfg.shots < 1:
        raise UsageError(f"shots must be >= 1, got {cfg.shots}")
    if cfg.seed < 0:
        raise UsageError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.seed >= 2**128:
        raise UsageError(f"seed must be < 2**128, got {cfg.seed}")
    scheme_config = cfg.scheme_config()
    dist = run_scheme(scheme_config).distribution
    if (cfg.format or "json") == "json":
        counts = experiment.sample_distribution(dist, cfg.shots, cfg.seed)
        report = _shots_report(cfg, scheme_config, dist, counts)
        _emit_json(report, cfg.out)
    else:
        # The CSV is streamed, so --out is opened before any shot is drawn,
        # and the report is built from the counts of the shots it wrote.
        with _output(cfg.out) as stream:
            counts = experiment.shot_csv(dist, cfg.shots, cfg.seed, stream)
        report = _shots_report(cfg, scheme_config, dist, counts)
    return EXIT_MISMATCH if report["pattern_match"] is False else EXIT_OK


def _shots_report(cfg: RunConfig, scheme_config: SchemeConfig, dist: DetectionDistribution,
                  counts: experiment.ClickCounts) -> dict:
    """The ``shots`` report; the object, not the kind name, decides the reconstruction.

    A kind with one detector group per pixel reconstructs.  A binary object
    gets per-pixel verdicts and ``pattern_match`` against its bits.  An
    object with a transmission other than 0 or 1 has no binary truth, so
    ``pattern_match`` is null: on a kind with per-pixel h and v detectors
    its transmissions are fit, on the single-pass kind it gets verdicts.
    Single-pixel kinds get no reconstruction.
    """
    stat = experiment.statistical_check(counts, dist) if cfg.shots >= 100 else None

    reconstruction = None
    pattern_match: bool | None = None
    spec, pattern = scheme_config.spec, scheme_config.pattern
    if spec.per_pixel_hv and not pattern.is_binary:
        image = experiment.estimate_transmissions(counts, scheme_config)
        reconstruction = {
            "verdicts": list(image.verdicts),
            "transmission_estimates": list(image.transmission or ()),
            "intervals": [list(i) if i else None for i in (image.intervals or ())],
        }
    elif spec.per_pixel:
        image = experiment.reconstruct_pattern(counts, scheme_config)
        reconstruction = {"verdicts": list(image.verdicts)}
        if pattern.is_binary:
            truth = [experiment.OPAQUE if f else experiment.TRANSPARENT for f in pattern.f]
            pattern_match = list(image.verdicts) == truth

    return {
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


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.format == "csv":
        raise UsageError("format: verify writes a text table or json, not csv")
    results = verify.run_all_checks()
    if cfg.format == "json":
        payload = {
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
            ]
        }
        _emit_json(payload, cfg.out)
    else:
        lines = [
            f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
        ]
        n_pass = sum(r.passed for r in results)
        lines.append(f"{n_pass}/{len(results)} checks passed")
        _emit("\n".join(lines) + "\n", cfg.out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_NUMERIC


COMMANDS = {"run": cmd_run, "sweep": cmd_sweep, "shots": cmd_shots, "verify": cmd_verify}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        command, cfg = parse_config(list(argv))
        return COMMANDS[command](cfg)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC
    except MemoryError as exc:
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
