"""Monte Carlo shot sampling, image reconstruction and transmission fits.

Shots are i.i.d. draws from a scheme's exact detection distribution.  The
random stream is counter based (Philox keyed by the seed), so the outcome
of shot k is a pure function of (seed, k): batches drawn in parallel from
disjoint counter ranges merge into the same record stream, and reruns with
the same seed are bit-identical.

Shots are drawn ``CHUNK`` at a time as raw 64-bit Philox outputs: shot
k's uniform is u_k = (x_k >> 11) * 2**-53, exactly as ``Generator.random``
forms it from the k-th output x_k, and its guide-table bucket is x_k >> 52.
``sample_distribution`` counts each chunk by bucket; only the shots in the
few buckets that an outcome boundary crosses are turned into uniforms and
searched (see ``_GuideTable``), so sampling memory does not grow with the
shot count.  ``shot_csv`` maps the same draws to outcome ids, writes
them as CSV to a stream, chunk by chunk, and returns their tally.
A Zeno readout is one draw from the final distribution: no shot is
collapsed cycle by cycle.

Transmission estimates are per-pixel least-squares fits of the closed-form
block model, by one numpy grid scan over all pixels that zooms in on each
pixel's best point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, TextIO

import numpy as np

from ifmsim import analytics, core, schemes
from ifmsim.core import DetectionDistribution
from ifmsim.schemes import SchemeConfig

ABSORBED = "absorbed"

OPAQUE = "opaque"
TRANSPARENT = "transparent"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class ClickCounts:
    """Detector clicks of one sampling run."""

    counts: dict[str, int]
    absorbed: int
    total: int

    def __post_init__(self) -> None:
        if sum(self.counts.values()) + self.absorbed != self.total:
            raise ValueError("click counts do not sum to the total shot number")

    def frequency(self, label: str) -> float:
        if label == ABSORBED:
            return self.absorbed / self.total
        return self.counts.get(label, 0) / self.total


# Shots drawn per chunk, and buckets of the guide table.  A shot's bucket
# is the top 12 bits of its raw 64-bit draw (see ``_GuideTable``).
CHUNK = 1 << 16
GUIDE_BUCKETS = 1 << 12
_BUCKET_SHIFT = 64 - 12


def _raw_chunks(bit_generator: np.random.BitGenerator, n: int) -> Iterator[np.ndarray]:
    """The next ``n`` raw 64-bit outputs of ``bit_generator``, ``CHUNK`` at a
    time.  The chunks split one stream, so no draw depends on ``CHUNK``."""
    for start in range(0, n, CHUNK):
        yield bit_generator.random_raw(min(CHUNK, n - start))


def _uniforms(raw: np.ndarray) -> np.ndarray:
    """numpy's uniforms of raw 64-bit draws: the top 53 bits times 2**-53,
    as ``Generator.random`` forms them."""
    return (raw >> 11) * 2.0**-53


class _GuideTable:
    """Outcome search of one distribution, indexed by each draw's top bits.

    A shot with uniform u takes the number of cumulative probabilities at
    or below u, capped at the last outcome (rounding can leave the sum just
    below 1); zero-probability outcomes are unreachable.  The search is
    indexed (Chen and Asau 1974; Devroye 1986, ch. III): bucket j of [0, 1)
    holds the answer at its left end j / GUIDE_BUCKETS, and every u in a
    bucket that no cumulative probability falls inside (a pure bucket)
    shares it.  A draw x has uniform u = (x >> 11) * 2**-53, so its bucket
    floor(u * GUIDE_BUCKETS) is exactly x >> 52: only the shots in the few
    mixed buckets, those a cumulative probability falls inside, are turned
    into uniforms and searched.
    """

    def __init__(self, probabilities: np.ndarray) -> None:
        self.edges = np.cumsum(probabilities)
        self.last = len(self.edges) - 1
        guide = np.searchsorted(
            self.edges, np.arange(GUIDE_BUCKETS + 1) / GUIDE_BUCKETS, side="right")
        self.first = np.minimum(guide[:-1], self.last)
        self.mixed = guide[1:] != guide[:-1]

    def search(self, raw: np.ndarray) -> np.ndarray:
        """Outcome ids of raw draws by binary search of their uniforms."""
        return np.minimum(np.searchsorted(self.edges, _uniforms(raw), side="right"), self.last)

    def _split(self, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Buckets of the draws, and the positions of those in mixed buckets."""
        buckets = (raw >> _BUCKET_SHIFT).view(np.int64)
        return buckets, np.flatnonzero(self.mixed.take(buckets))

    def ids(self, raw: np.ndarray) -> np.ndarray:
        """Outcome id of each draw."""
        buckets, searched = self._split(raw)
        ids = self.first.take(buckets)
        ids[searched] = self.search(raw[searched])
        return ids

    def tally(self, chunks: Iterator[np.ndarray]) -> np.ndarray:
        """Outcome counts of all draws of ``chunks``.

        Each chunk is counted by bucket; the shots of mixed buckets are
        searched and counted by outcome.  Each pure bucket's count is
        credited to its one outcome once, after the last chunk.
        """
        per_bucket = np.zeros(GUIDE_BUCKETS, dtype=np.int64)
        tally = np.zeros(self.last + 1, dtype=np.int64)
        for raw in chunks:
            buckets, searched = self._split(raw)
            per_bucket += np.bincount(buckets, minlength=GUIDE_BUCKETS)
            tally += np.bincount(self.search(raw[searched]), minlength=len(tally))
        pure = ~self.mixed
        np.add.at(tally, self.first[pure], per_bucket[pure])
        return tally


def _shot_draws(
    distribution: DetectionDistribution, n_shots: int, seed: int
) -> tuple[tuple[str, ...], _GuideTable, Iterator[np.ndarray]]:
    """Outcome labels, ``absorbed`` last, their guide table, and the raw
    draws of the shots, ``CHUNK`` at a time."""
    if n_shots < 1:
        raise ValueError(f"shot count must be >= 1, got {n_shots}")
    labels = tuple(distribution.probabilities) + (ABSORBED,)
    probs = np.array(list(distribution.probabilities.values()) + [distribution.p_abs])
    return labels, _GuideTable(probs), _raw_chunks(np.random.Philox(key=seed), n_shots)


def _click_counts(labels: tuple[str, ...], tally: np.ndarray, n_shots: int) -> ClickCounts:
    counts = {label: int(n) for label, n in zip(labels[:-1], tally)}
    return ClickCounts(counts, int(tally[-1]), n_shots)


def sample_distribution(
    distribution: DetectionDistribution, n_shots: int, seed: int
) -> ClickCounts:
    """Click counts of ``n_shots`` i.i.d. outcomes drawn from an exact distribution."""
    labels, table, chunks = _shot_draws(distribution, n_shots, seed)
    return _click_counts(labels, table.tally(chunks), n_shots)


def shot_csv(
    distribution: DetectionDistribution, n_shots: int, seed: int, stream: TextIO
) -> ClickCounts:
    """Write the shots of ``sample_distribution`` to ``stream`` as CSV, one
    chunk at a time, and return their click counts.

    The header line comes first, then one ``shot_index,outcome_label`` line
    per shot.  The counts are those of ``sample_distribution``, so a caller
    that writes the CSV and reports the counts draws each shot once.
    """
    labels, table, chunks = _shot_draws(distribution, n_shots, seed)
    tally = np.zeros(len(labels), dtype=np.int64)
    # Each line is a shot index, then its outcome's ",label\n" from this table.
    tails = [f",{label}\n" for label in labels]
    stream.write("shot_index,outcome_label\n")
    start = 0
    for raw in chunks:
        ids = table.ids(raw)
        tally += np.bincount(ids, minlength=len(labels))
        pieces = [""] * (2 * len(ids))
        pieces[0::2] = map(str, range(start, start + len(ids)))
        pieces[1::2] = map(tails.__getitem__, ids.tolist())
        stream.write("".join(pieces))
        start += len(ids)
    return _click_counts(labels, tally, n_shots)


def sample_shots(config: SchemeConfig, n_shots: int, seed: int) -> ClickCounts:
    """Run ``config`` exactly and sample detector clicks from the result."""
    return sample_distribution(schemes.run_scheme(config).distribution, n_shots, seed)


# ---------------------------------------------------------------------------
# Image reconstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReconstructedImage:
    """Per-pixel verdicts and optional transmission estimates."""

    verdicts: tuple[str, ...]
    transmission: tuple[float | None, ...] | None = None
    intervals: tuple[tuple[float, float] | None, ...] | None = None


def _hv_clicks(counts: ClickCounts, config: SchemeConfig) -> list[tuple[int, int]]:
    """(h, v) clicks of each pixel, the folded scheme's read back through
    ``Kind.relabel`` (its switch-out flips the polarisations)."""
    clicks = config.spec.relabel(counts.counts)
    return [(clicks.get(core.pol_detector_label(ell, core.POL_H), 0),
             clicks.get(core.pol_detector_label(ell, core.POL_V), 0)) for ell in range(config.d)]


def _hv_verdict(nh: int, nv: int) -> str:
    return OPAQUE if nh > nv else TRANSPARENT if nv > nh else UNKNOWN


def reconstruct_pattern(counts: ClickCounts, config: SchemeConfig) -> ReconstructedImage:
    """Binary image from click counts.

    Cycling scheme: pixel ell reads opaque when its h detector out-clicked
    its v detector (reversed for the folded scheme).  Single-pass: any
    dark-port click marks the pixel opaque.  Ties, including the zero-click
    case, stay unknown.
    """
    spec = config.spec
    if not spec.per_pixel:
        raise ValueError(f"{config.kind} has no per-pixel detectors to reconstruct from")
    if not spec.single_pass:
        return ReconstructedImage(tuple(_hv_verdict(*hv) for hv in _hv_clicks(counts, config)))
    verdicts = []
    for ell in range(config.d):
        dark = counts.counts.get(core.port_detector_label("d", ell), 0)
        bright = counts.counts.get(core.port_detector_label("0", ell), 0)
        verdicts.append(OPAQUE if dark > 0 else TRANSPARENT if bright > 0 else UNKNOWN)
    return ReconstructedImage(tuple(verdicts))


def _fit_transmissions(
    fh: np.ndarray, fv: np.ndarray, theta: float, n_cycles: int
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares fits of the pixels' transmissions to observed fractions.

    ``fh``/``fv`` hold each pixel's click fractions rescaled to unit pixel
    weight; the implied absorbed fraction completes each triple.  A 101-point
    scan over [0, 1] brackets each pixel's global minimum; each zoom rescans
    the bracket between the best point's neighbours on a grid centred exactly
    on that point (so the loss never rises) until the bracket is narrower
    than 1e-10.  Every pixel takes the same zoom steps, so all pixels are
    scanned together, one (pixels x grid) model evaluation per step, and
    each pixel's result is that of a scan of its own.  Returns the estimates
    and, per pixel, the model sensitivity d(model)/dT at the estimate.
    """
    observed = np.stack([fh, fv, 1.0 - fh - fv], axis=-1)[:, None, :]

    def model(t: np.ndarray) -> np.ndarray:
        ph, pv = analytics.block_probabilities(t, theta, n_cycles)
        return np.stack([ph, pv, 1.0 - ph - pv], axis=-1)

    scan = np.linspace(0.0, 1.0, 101)
    grid = np.broadcast_to(scan, (len(fh), len(scan)))
    step = scan[1]
    offsets = np.arange(-10, 11)
    while True:
        best = np.argmin(np.sum((observed - model(grid)) ** 2, axis=-1), axis=-1)
        t_hat = np.take_along_axis(grid, best[:, None], axis=-1)
        if 2 * step < 1e-10:
            break
        step /= 10
        grid = np.clip(t_hat + step * offsets, 0.0, 1.0)

    t_hat = t_hat[:, 0]
    eps = 1e-5
    hi_t, lo_t = np.minimum(t_hat + eps, 1.0), np.maximum(t_hat - eps, 0.0)
    sensitivity = (model(hi_t) - model(lo_t)) / (hi_t - lo_t)[:, None]
    return t_hat, sensitivity


def estimate_transmissions(counts: ClickCounts, config: SchemeConfig) -> ReconstructedImage:
    """Per-pixel transmission estimates from click counts.

    Each pixel is fit independently against the single-block closed form
    (the cycling evolution is block diagonal in the OAM value, so no joint
    fit is needed), all pixels in one scan.  The folded scheme's counts are
    read with h and v exchanged, as in ``reconstruct_pattern``; kinds
    without per-pixel h and v detectors are rejected.  Verdicts are the
    binary reading of the same counts; pixels without any clicks are marked
    unknown and get no estimate.  Intervals are approximate 95 percent
    ranges from binomial error propagation through the fit sensitivity.
    """
    if not config.spec.per_pixel_hv:
        raise ValueError(f"{config.kind} has no per-pixel polarisation detectors to fit")
    hv = _hv_clicks(counts, config)
    d = config.d
    n = counts.total
    nh_all, nv_all = np.array(hv, dtype=np.int64).T
    t_fit, sensitivity = _fit_transmissions(d * nh_all / n, d * nv_all / n,
                                            config.cycle_rotation, config.n_cycles)
    t_hats: list[float | None] = []
    intervals: list[tuple[float, float] | None] = []
    for (nh, nv), t_hat, j in zip(hv, t_fit.tolist(), sensitivity):
        if nh + nv == 0:
            t_hats.append(None)
            intervals.append(None)
            continue
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
    verdicts = tuple(_hv_verdict(nh, nv) for nh, nv in hv)
    return ReconstructedImage(verdicts, tuple(t_hats), tuple(intervals))


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
    count agreement and reported as violations otherwise.  A p so small
    that its binomial variance p (1 - p) / n underflows to 0 has no finite
    z-score, so it is checked as impossible.
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
        if p == 1.0:
            if observed != n:
                violations.append(f"{label}: {observed}/{n} clicks on a certain outcome")
            continue
        variance = p * (1.0 - p) / n
        if variance == 0.0:
            if observed != 0:
                violations.append(f"{label}: {observed} clicks on an impossible outcome")
            continue
        z = (observed / n - p) / np.sqrt(variance)
        z_scores[label] = float(z)
    return StatCheck(z_scores, tuple(violations))
