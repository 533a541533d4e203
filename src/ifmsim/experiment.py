"""Monte Carlo shot sampling, image reconstruction and transmission fits.

Shots are i.i.d. draws from a scheme's exact detection distribution.  The
random stream is counter based (Philox keyed by the seed), so the outcome
of shot k is a pure function of (seed, k): batches drawn in parallel from
disjoint counter ranges merge into the same record stream, and reruns with
the same seed are bit-identical.

Transmission estimates are per-pixel least-squares fits of the closed-form
block model, by a numpy grid scan that zooms in on the best point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ifmsim import analytics, core, schemes
from ifmsim.core import DetectionDistribution
from ifmsim.schemes import SchemeConfig

ABSORBED = "absorbed"

OPAQUE = "opaque"
TRANSPARENT = "transparent"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class ShotRecord:
    """One sampled photon: which detector fired, or absorption."""

    shot_index: int
    outcome: str
    seed: int


class ShotRecords:
    """Compact record stream of one sampling run.

    Iterating yields :class:`ShotRecord` items; ``to_csv`` serializes the
    stream as ``shot_index,outcome_label`` lines.
    """

    def __init__(
        self,
        labels: tuple[str, ...],
        outcome_ids: np.ndarray,
        seed: int,
        absorbed_cycle: np.ndarray | None = None,
    ) -> None:
        self.labels = labels
        self.outcome_ids = outcome_ids
        self.seed = seed
        self.absorbed_cycle = absorbed_cycle

    def __len__(self) -> int:
        return len(self.outcome_ids)

    def __iter__(self) -> Iterator[ShotRecord]:
        for k, oid in enumerate(self.outcome_ids):
            yield ShotRecord(k, self.labels[oid], self.seed)

    def to_csv(self) -> str:
        lines = ["shot_index,outcome_label"]
        lines.extend(f"{k},{self.labels[oid]}" for k, oid in enumerate(self.outcome_ids))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ClickCounts:
    """Accumulated detector clicks of one or more sampling runs."""

    counts: dict[str, int]
    absorbed: int
    total: int

    def __post_init__(self) -> None:
        if sum(self.counts.values()) + self.absorbed != self.total:
            raise ValueError("click counts do not sum to the total shot number")

    def __add__(self, other: "ClickCounts") -> "ClickCounts":
        merged = dict(self.counts)
        for label, n in other.counts.items():
            merged[label] = merged.get(label, 0) + n
        return ClickCounts(merged, self.absorbed + other.absorbed, self.total + other.total)

    def frequency(self, label: str) -> float:
        if label == ABSORBED:
            return self.absorbed / self.total
        return self.counts.get(label, 0) / self.total


def _uniforms(seed: int, n_shots: int) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=seed))
    return gen.random(n_shots)


def _categorical(probabilities: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Map uniforms to category indices; zero-probability bins are unreachable."""
    edges = np.cumsum(probabilities)
    idx = np.searchsorted(edges, u, side="right")
    return np.minimum(idx, len(probabilities) - 1)


def sample_distribution(
    distribution: DetectionDistribution, n_shots: int, seed: int
) -> tuple[ClickCounts, ShotRecords]:
    """Draw ``n_shots`` i.i.d. outcomes from an exact distribution."""
    if n_shots < 1:
        raise ValueError(f"shot count must be >= 1, got {n_shots}")
    labels = tuple(distribution.probabilities.keys()) + (ABSORBED,)
    probs = np.array(
        [distribution.probabilities[k] for k in labels[:-1]] + [distribution.p_abs]
    )
    ids = _categorical(probs, _uniforms(seed, n_shots))
    records = ShotRecords(labels, ids, seed)
    return _counts_from_ids(labels, ids, n_shots), records


def _counts_from_ids(labels: tuple[str, ...], ids: np.ndarray, n_shots: int) -> ClickCounts:
    tally = np.bincount(ids, minlength=len(labels))
    counts = {label: int(tally[i]) for i, label in enumerate(labels) if label != ABSORBED}
    absorbed = int(tally[labels.index(ABSORBED)]) if ABSORBED in labels else 0
    return ClickCounts(counts, absorbed, n_shots)


def sample_shots(
    config: SchemeConfig,
    n_shots: int,
    seed: int,
    per_cycle: bool = False,
) -> tuple[ClickCounts, ShotRecords]:
    """Run ``config`` exactly and sample detector clicks from the result.

    With ``per_cycle=True`` each shot is collapsed cycle by cycle instead of
    drawn from the final distribution: absorption is attributed to a
    specific cycle (recorded in ``ShotRecords.absorbed_cycle``, -1 for
    detected photons).  Both modes produce identical outcome statistics.
    """
    if n_shots < 1:
        raise ValueError(f"shot count must be >= 1, got {n_shots}")
    result = schemes.run_scheme(config)
    dist = result.distribution
    if not per_cycle:
        return sample_distribution(dist, n_shots, seed)

    # Unconditional probability of absorption within each cycle, from the
    # survival trace; detected outcomes keep their final probabilities.
    surv = (1.0,) + result.trace.survival
    cycle_probs = [max(surv[k] - surv[k + 1], 0.0) for k in range(len(result.trace))]
    det_labels = tuple(dist.probabilities.keys())
    probs = np.array(cycle_probs + [dist.probabilities[k] for k in det_labels])
    ids = _categorical(probs, _uniforms(seed, n_shots))

    n_cycles = len(cycle_probs)
    absorbed_cycle = np.where(ids < n_cycles, ids + 1, -1).astype(np.int64)
    labels = det_labels + (ABSORBED,)
    outcome_ids = np.where(ids < n_cycles, len(det_labels), ids - n_cycles).astype(np.int64)
    records = ShotRecords(labels, outcome_ids, seed, absorbed_cycle=absorbed_cycle)
    return _counts_from_ids(labels, outcome_ids, n_shots), records


# ---------------------------------------------------------------------------
# Image reconstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReconstructedImage:
    """Per-pixel verdicts and optional transmission estimates."""

    verdicts: tuple[str, ...]
    transmission: tuple[float | None, ...] | None = None
    intervals: tuple[tuple[float, float] | None, ...] | None = None

    @property
    def d(self) -> int:
        return len(self.verdicts)


def reconstruct_pattern(counts: ClickCounts, config: SchemeConfig) -> ReconstructedImage:
    """Binary image from click counts.

    Cycling scheme: pixel ell reads opaque when its h detector out-clicked
    its v detector (reversed for the folded scheme, whose switch-out flips
    the polarisations).  Single-pass: any dark-port click marks the pixel
    opaque.  Ties, including the zero-click case, stay unknown.
    """
    kind = config.kind
    if kind in ("ev-single-pass", "zeno-single-pixel"):
        raise ValueError(f"{kind} has no per-pixel detectors to reconstruct from")
    d = config.d
    verdicts: list[str] = []
    if kind == "multipixel-single-pass":
        for ell in range(d):
            dark = counts.counts.get(core.port_detector_label("d", ell), 0)
            bright = counts.counts.get(core.port_detector_label("0", ell), 0)
            if dark > 0:
                verdicts.append(OPAQUE)
            elif bright > 0:
                verdicts.append(TRANSPARENT)
            else:
                verdicts.append(UNKNOWN)
        return ReconstructedImage(tuple(verdicts))

    clicks = core.swap_hv_labels(counts.counts) if kind == "michelson-zeno" else counts.counts
    for ell in range(d):
        nh = clicks.get(core.pol_detector_label(ell, core.POL_H), 0)
        nv = clicks.get(core.pol_detector_label(ell, core.POL_V), 0)
        if nh > nv:
            verdicts.append(OPAQUE)
        elif nv > nh:
            verdicts.append(TRANSPARENT)
        else:
            verdicts.append(UNKNOWN)
    return ReconstructedImage(tuple(verdicts))


def _fit_single_transmission(
    fh: float, fv: float, theta: float, n_cycles: int
) -> tuple[float, np.ndarray]:
    """Least-squares fit of one pixel's transmission to observed fractions.

    ``fh``/``fv`` are the pixel's click fractions rescaled to unit pixel
    weight; the implied absorbed fraction completes the triple.  A 101-point
    scan over [0, 1] brackets the global minimum; each zoom rescans the
    bracket between the best point's neighbours on a grid centred exactly
    on that point (so the loss never rises) until the bracket is narrower
    than 1e-10.  Returns the estimate and the model sensitivity d(model)/dT
    at the estimate.
    """
    observed = np.array([fh, fv, 1.0 - fh - fv])

    def model(t: float | np.ndarray) -> np.ndarray:
        ph, pv = analytics.block_probabilities(t, theta, n_cycles)
        return np.stack([ph, pv, 1.0 - ph - pv], axis=-1)

    grid = np.linspace(0.0, 1.0, 101)
    step = grid[1]
    offsets = np.arange(-10, 11)
    while True:
        t_hat = float(grid[np.argmin(np.sum((observed - model(grid)) ** 2, axis=-1))])
        if 2 * step < 1e-10:
            break
        step /= 10
        grid = np.clip(t_hat + step * offsets, 0.0, 1.0)

    eps = 1e-5
    hi_t, lo_t = min(t_hat + eps, 1.0), max(t_hat - eps, 0.0)
    sensitivity = (model(hi_t) - model(lo_t)) / (hi_t - lo_t)
    return t_hat, sensitivity


def estimate_transmissions(counts: ClickCounts, config: SchemeConfig) -> ReconstructedImage:
    """Per-pixel transmission estimates from click counts.

    Each pixel is fit independently against the single-block closed form
    (the cycling evolution is block diagonal in the OAM value, so no joint
    fit is needed).  Verdicts are the binary reading of the same counts;
    pixels without any clicks are marked unknown and get no estimate.
    Intervals are approximate 95 percent ranges from binomial error
    propagation through the fit sensitivity.
    """
    if config.kind != "semitransparent-zeno":
        raise ValueError(
            f"transmission estimation is defined for semitransparent-zeno, got {config.kind!r}"
        )
    d = config.d
    n = counts.total
    theta = config.cycle_rotation
    verdicts: list[str] = []
    t_hats: list[float | None] = []
    intervals: list[tuple[float, float] | None] = []
    for ell in range(d):
        nh = counts.counts.get(core.pol_detector_label(ell, core.POL_H), 0)
        nv = counts.counts.get(core.pol_detector_label(ell, core.POL_V), 0)
        if nh + nv == 0:
            verdicts.append(UNKNOWN)
            t_hats.append(None)
            intervals.append(None)
            continue
        verdicts.append(OPAQUE if nh > nv else TRANSPARENT if nv > nh else UNKNOWN)
        fh = d * nh / n
        fv = d * nv / n
        t_hat, j = _fit_single_transmission(fh, fv, theta, config.n_cycles)
        # Binomial variances of the rescaled fractions; the absorbed
        # fraction is implied, so the sum of the other two stands in.
        var_h = d**2 * (nh / n) * (1 - nh / n) / n
        var_v = d**2 * (nv / n) * (1 - nv / n) / n
        variances = np.array([var_h, var_v, var_h + var_v])
        jj = float(np.dot(j, j))
        var_t = float(np.sum((j / jj) ** 2 * variances)) if jj > 0 else np.inf
        half = 1.96 * float(np.sqrt(var_t))
        t_hats.append(t_hat)
        intervals.append((max(0.0, t_hat - half), min(1.0, t_hat + half)))
    return ReconstructedImage(tuple(verdicts), tuple(t_hats), tuple(intervals))


# ---------------------------------------------------------------------------
# Sampling diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StatCheck:
    """Binomial z-scores of observed frequencies against exact probabilities."""

    z_scores: dict[str, float]
    violations: tuple[str, ...]


def statistical_check(counts: ClickCounts, exact: DetectionDistribution) -> StatCheck:
    """Compare click frequencies against the exact distribution.

    Detectors with probability strictly between 0 and 1 get a z-score;
    impossible (p = 0) and certain (p = 1) outcomes are checked for exact
    count agreement and reported as violations otherwise.
    """
    if counts.total < 100:
        raise ValueError("statistical check needs at least 100 shots")
    n = counts.total
    z_scores: dict[str, float] = {}
    violations: list[str] = []
    entries = dict(exact.probabilities)
    entries[ABSORBED] = exact.p_abs
    for label, p in entries.items():
        observed = counts.absorbed if label == ABSORBED else counts.counts.get(label, 0)
        if p == 0.0:
            if observed != 0:
                violations.append(f"{label}: {observed} clicks on an impossible outcome")
            continue
        if p == 1.0:
            if observed != n:
                violations.append(f"{label}: {observed}/{n} clicks on a certain outcome")
            continue
        z = (observed / n - p) / np.sqrt(p * (1.0 - p) / n)
        z_scores[label] = float(z)
    return StatCheck(z_scores, tuple(violations))
