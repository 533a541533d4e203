"""Traced run: spans around the public functions of each ifmsim module.

The tracer wraps functions from outside the package; nothing in ``src/``
changes.  A function is replaced under every name that refers to it in any
loaded ``ifmsim`` module (``cli`` imports ``run_scheme`` by name, and the
package ``__init__`` re-exports most functions), and ``uninstall`` puts
every original back.  Spans are kept in memory as
``[layer, start, end, parent, command, error, extra]`` lists and written out
when the run ends.  A layer's self time is its span time minus the time of
its child spans.
"""

from __future__ import annotations

import functools
import re
import sys
import time
import tracemalloc

ELEMENT_CONSTRUCTORS = (
    "beam_splitter", "polarising_beam_splitter", "polarisation_rotator", "oam_sorter",
    "oam_converter", "object_attenuator", "pockels_flip", "mirror_reflect", "arm_mirrors",
)

# (module, function) -> layer.  The element constructors share one layer.
TRACED = {
    ("ifmsim.cli", "main"): "cli.main",
    ("ifmsim.cli", "parse_config"): "cli.parse_config",
    ("ifmsim.schemes", "build_scheme"): "schemes.build_scheme",
    ("ifmsim.schemes", "run_scheme"): "schemes.run_scheme",
    **{("ifmsim.core", name): "core.elements" for name in ELEMENT_CONSTRUCTORS},
    ("ifmsim.core", "compose"): "core.compose",
    ("ifmsim.core", "detection_distribution"): "core.detection_distribution",
    ("ifmsim.analytics", "exact_distribution"): "analytics.exact_distribution",
    ("ifmsim.analytics", "asymptotic_distribution"): "analytics.asymptotic_distribution",
    ("ifmsim.experiment", "sample_distribution"): "experiment.sample_distribution",
    ("ifmsim.experiment", "estimate_transmissions"): "experiment.estimate_transmissions",
    ("ifmsim.experiment", "reconstruct_pattern"): "experiment.reconstruct_pattern",
    ("ifmsim.experiment", "statistical_check"): "experiment.statistical_check",
    ("ifmsim.verify", "run_all_checks"): "verify.run_all_checks",
}

# Self time of these layers goes by another name: what is left of
# ``cli.main`` once its children are taken out is report building and
# JSON, and what is left of ``run_scheme`` is the evolution loop.
SELF_TIME_NAME = {"cli.main": "cli.report.s", "schemes.run_scheme": "schemes.evolve.s"}

# Layers whose peak traced allocation is measured per span, in their own pass.
ALLOC_LAYERS = ("schemes.run_scheme", "experiment.sample_distribution")

# Each per-layer metric and the end-to-end metric it should move, on which
# workload.  ``.calls`` and ``.errors`` follow their layer's ``.s``.
MOVES = {
    "import.ifmsim.s": ("setup_s", "all"),
    "import.scipy.s": ("setup_s", "all"),
    "cli.parse_config.s": ("cmds_per_s", "exact-many-small"),
    "cli.report.s": ("cmd_s_p50, cmd_s_p90 (long N)", "exact-many-small"),
    "schemes.build_scheme.s": ("cmd_s_p50", "exact-many-small"),
    "core.elements.s": ("cmd_s_p50", "exact-large-d, exact-many-small"),
    "schemes.evolve.s": ("cmd_s_p50, cmd_s_p90", "exact-large-d"),
    "core.compose.s": ("cmd_s_p90", "exact-large-d"),
    "schemes.evolve.element_applications": ("count only", "exact-*"),
    "schemes.evolve.ns_per_amp_update": ("cmd_s_p50, cmd_s_p90", "exact-large-d"),
    "schemes.run_scheme.peak_alloc_mb": ("peak_rss_mb", "exact-large-d"),
    "core.detection_distribution.s": ("cmd_s_p50", "exact-many-small"),
    "analytics.exact_distribution.s": ("cmd_s_p50", "exact-many-small"),
    "analytics.asymptotic_distribution.s": ("cmd_s_p50", "exact-many-small"),
    "experiment.sample_distribution.s": ("shots_per_s", "shots-imaging"),
    "experiment.sample_distribution.ns_per_shot": ("shots_per_s", "shots-imaging"),
    "experiment.sample_distribution.peak_alloc_mb": ("peak_rss_mb", "shots-imaging"),
    "experiment.estimate_transmissions.s": ("cmd_s_p50", "shots-imaging"),
    "experiment.reconstruct_pattern.s": ("cmd_s_p50", "shots-imaging"),
    "experiment.statistical_check.s": ("cmd_s_p50", "shots-imaging"),
    "verify.run_all_checks.s": ("cmd_s_p90", "exact-many-small"),
    "trace.overhead_frac": ("none (tracing cost)", "all"),
    "gate.strict_error_rate": ("error_rate", "exact-large-d, exact-many-small"),
}


def _counted_layers() -> list[str]:
    return list(dict.fromkeys(TRACED.values()))


class Tracer:
    """Wraps the traced functions, records spans, and restores the originals.

    With ``measure_alloc`` only the ``ALLOC_LAYERS`` functions are wrapped,
    and each of their spans records its peak traced allocation.  This is a
    separate pass because tracemalloc slows every allocation, which would
    distort the self times of a timing pass.
    """

    def __init__(self, measure_alloc: bool = False) -> None:
        self.measure_alloc = measure_alloc
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.patched: list[tuple[object, str, object]] = []
        self.command = -1

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if (name == "ifmsim" or name.startswith("ifmsim.")) and m is not None]
        for (module_name, function_name), layer in TRACED.items():
            if self.measure_alloc and layer not in ALLOC_LAYERS:
                continue
            original = getattr(sys.modules[module_name], function_name)
            wrapper = self._wrap(original, layer)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self.patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _wrap(self, fn, layer: str):
        spans, stack = self.spans, self.stack
        measure_alloc = self.measure_alloc

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            span = [layer, 0.0, 0.0, parent, self.command, False, {}]
            spans.append(span)
            stack.append(index)
            if measure_alloc:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if measure_alloc:
                    span[6]["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if layer == "schemes.build_scheme" and parent >= 0 \
                    and spans[parent][0] == "schemes.run_scheme":
                d = result.detector_map.d
                spans[parent][6]["apps"] = (result.n_cycles * len(result.cycle_elements)
                                            + len(result.switch_out))
                spans[parent][6]["dim"] = 2 * d * (d + 1)
            elif layer == "experiment.sample_distribution":
                span[6]["shots"] = args[1] if len(args) > 1 else kwargs["n_shots"]
            return result

        return wrapper


def layer_metrics(spans: list[list], alloc_spans: list[list]) -> dict[str, float]:
    """Per-layer self times, call and error counts, and derived ratios.

    ``spans`` come from a timing pass and ``alloc_spans`` from an
    allocation pass of the same tracer.
    """
    child_time = [0.0] * len(spans)
    for layer, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    metrics: dict[str, float] = {}
    for layer in _counted_layers():
        metrics[SELF_TIME_NAME.get(layer, layer + ".s")] = 0.0
        metrics[layer + ".calls"] = 0
        metrics[layer + ".errors"] = 0
    apps = amp_updates = shots = 0
    for i, (layer, start, end, parent, command, error, extra) in enumerate(spans):
        metrics[SELF_TIME_NAME.get(layer, layer + ".s")] += end - start - child_time[i]
        metrics[layer + ".calls"] += 1
        metrics[layer + ".errors"] += int(error)
        if "apps" in extra:
            apps += extra["apps"]
            amp_updates += extra["apps"] * extra["dim"]
        shots += extra.get("shots", 0)
    metrics["schemes.evolve.element_applications"] = apps
    metrics["schemes.evolve.ns_per_amp_update"] = (
        metrics["schemes.evolve.s"] * 1e9 / amp_updates if amp_updates else 0.0)
    metrics["experiment.sample_distribution.ns_per_shot"] = (
        metrics["experiment.sample_distribution.s"] * 1e9 / shots if shots else 0.0)
    for layer in ALLOC_LAYERS:
        metrics[layer + ".peak_alloc_mb"] = max(
            (s[6]["peak_alloc"] for s in alloc_spans if s[0] == layer), default=0) / 2**20
    return metrics


def shares(metrics: dict[str, float]) -> dict[str, float]:
    """Share of the traced self time spent in each group of layers."""
    def total(*prefixes: str) -> float:
        return sum(v for k, v in metrics.items()
                   if k.endswith(".s") and not k.startswith("import.") and k.startswith(prefixes))
    groups = {
        "evolve+compose": total("schemes.evolve.s", "core.compose.s"),
        "cli+build+elements": total("cli.", "schemes.build_scheme.s", "core.elements.s"),
        "evolve": total("schemes.evolve.s"),
        "experiment": total("experiment."),
        "analytics": total("analytics."),
        "verify": total("verify."),
        "detection": total("core.detection_distribution.s"),
    }
    whole = total("")
    return {k: v / whole if whole else 0.0 for k, v in groups.items()}


# The layer group each workload was built to stress, and the groups it must
# outweigh in self time.
DOMINANT = {
    "exact-large-d": ("evolve+compose", ("cli+build+elements", "experiment", "analytics",
                                         "verify", "detection")),
    "exact-many-small": ("cli+build+elements", ("evolve",)),
    "shots-imaging": ("experiment", ("evolve+compose", "cli+build+elements", "analytics",
                                     "verify", "detection")),
}


_IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def import_times(stderr: str, packages: tuple[str, ...] = ("ifmsim", "scipy")) -> dict[str, float]:
    """Seconds spent importing each package, from ``python -X importtime`` output.

    A package's time is the cumulative time of its outermost entries: an
    entry nested under another entry of the same package is already
    counted in that one.
    """
    entries = []
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            entries.append((int(match[2]), len(match[3]), match[4]))
    totals = dict.fromkeys(packages, 0.0)
    # importtime prints children before their parent, one level deeper.
    for package in packages:
        outer_depth = None
        for cumulative, depth, name in reversed(entries):
            if outer_depth is not None and depth <= outer_depth:
                outer_depth = None
            if outer_depth is None and (name == package or name.startswith(package + ".")):
                totals[package] += cumulative / 1e6
                outer_depth = depth
    return totals
