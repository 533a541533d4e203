"""Closed-form detection probabilities for every scheme.

These evaluators are independent of the state-vector simulator: they work
on 2x2 polarisation blocks (one per OAM value) or directly on the exact
outcome tables, and serve both as oracles for the simulator and as fast
evaluators for parameter sweeps.

For a semi-transparent pixel with transmission T the single-cycle block is

    m(T, theta) = [[cos(theta), -sin(theta)],
                   [sqrt(T) sin(theta), sqrt(T) cos(theta)]]

acting on the (H, V) amplitude pair; N cycles are the N-th matrix power,
computed by ``np.linalg.matrix_power`` (stacked over arrays of T).  At T = 0
and T = 1 the trigonometric forms cos^2N(theta) and (cos^2(N theta),
sin^2(N theta)) replace it, so the oracle shares no rounding with the
simulator's gate products there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ifmsim import core
from ifmsim.core import POL_H, POL_V, PixelPattern
from ifmsim.schemes import SchemeConfig


@dataclass(frozen=True)
class AnalyticReport:
    """Closed-form per-detector probabilities.

    ``exact`` holds exact values when a closed form exists, ``asymptotic``
    the large-N approximations where defined.  ``efficiency`` is the
    probability of an object-revealing click given an opaque pixel,
    conditioned on the photon probing that pixel.
    """

    exact: dict[str, float] | None
    asymptotic: dict[str, float] | None
    p_abs: float
    efficiency: float | None = None

    def __post_init__(self) -> None:
        if self.exact is not None:
            total = sum(self.exact.values()) + self.p_abs
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"exact probabilities sum to {total!r}, not 1")


def transmission_block(transmission: float | np.ndarray, theta: float) -> np.ndarray:
    """Single-cycle (H, V) block for one OAM value, stacked over an array of transmissions."""
    t = np.asarray(transmission, dtype=np.float64)
    if not np.all((t >= 0.0) & (t <= 1.0)):
        raise ValueError(f"transmission {transmission} outside [0, 1]")
    c, s = np.cos(theta), np.sin(theta)
    block = np.empty(t.shape + (2, 2))
    block[..., 0, :] = c, -s
    block[..., 1, :] = np.multiply.outer(np.sqrt(t), (s, c))
    return block


def block_probabilities(transmission: float | np.ndarray, theta: float, n_cycles: int) -> tuple:
    """(p_h, p_v) for a unit-weight pixel after ``n_cycles`` cycles.

    A float transmission gives two floats, an array two arrays of its shape.
    """
    t = np.asarray(transmission, dtype=np.float64)
    amps = np.linalg.matrix_power(transmission_block(t, theta), n_cycles)[..., :, 0]
    ph = np.where(t == 1.0, np.cos(n_cycles * theta) ** 2,
                  np.where(t == 0.0, np.cos(theta) ** (2 * n_cycles), amps[..., 0] ** 2))
    pv = np.where(t == 1.0, np.sin(n_cycles * theta) ** 2,
                  np.where(t == 0.0, 0.0, amps[..., 1] ** 2))
    if t.ndim == 0:
        return float(ph), float(pv)
    return ph, pv


def multipixel_single_pass_table(d: int, pattern: PixelPattern) -> AnalyticReport:
    """Exact per-detector probabilities of the parallel single-pass scheme.

    Each pixel behaves like an independent single-pass experiment carrying
    weight 1/d: transparent pixels put 1/d on the bright port, opaque ones
    1/4d on each port and 1/2d into absorption.
    """
    if pattern.d != d:
        raise ValueError(f"pattern has {pattern.d} pixels, expected {d}")
    if not pattern.is_binary:
        raise ValueError("single-pass table requires an opaque/transparent pattern")
    exact: dict[str, float] = {}
    for ell, f in enumerate(pattern.f):
        exact[core.port_detector_label("0", ell)] = (0.25 / d) if f else (1.0 / d)
    for ell, f in enumerate(pattern.f):
        exact[core.port_detector_label("d", ell)] = (0.25 / d) if f else 0.0
    p_abs = 0.5 * pattern.n_abs / d
    return AnalyticReport(exact, None, p_abs, efficiency=0.25)


def multipixel_zeno_survival(d: int, n_abs: int, n_cycles: int, theta: float) -> float:
    """Exact survival of the cycling scheme with ``n_abs`` opaque pixels.

    1 - (n_abs/d) (1 - cos^2N(theta)); opaque pixels lose the rotated
    amplitude every cycle while transparent ones evolve unitarily.
    """
    if not (0 <= n_abs <= d):
        raise ValueError(f"opaque pixel count {n_abs} outside 0..{d}")
    return 1.0 - (n_abs / d) * (1.0 - float(np.cos(theta) ** (2 * n_cycles)))


def per_cycle_absorption(d: int, n_abs: int, n: int, theta: float) -> float:
    """Conditional absorption probability during cycle n+1.

    n_abs cos^2n(theta) sin^2(theta) / (d - n_abs + n_abs cos^2n(theta)),
    conditioned on the photon having survived the first n cycles.
    """
    if n < 0:
        raise ValueError(f"completed cycle count must be >= 0, got {n}")
    if not (0 <= n_abs <= d):
        raise ValueError(f"opaque pixel count {n_abs} outside 0..{d}")
    c2n = float(np.cos(theta) ** (2 * n))
    denom = d - n_abs + n_abs * c2n
    if denom == 0.0:
        return 0.0
    return n_abs * c2n * float(np.sin(theta) ** 2) / denom


def semitransparent_exact(
    d: int,
    n_cycles: int,
    theta: float,
    transmissions: tuple[float, ...] | list[float],
) -> AnalyticReport:
    """Exact cycling-scheme probabilities for arbitrary transmissions.

    Each OAM value evolves under its own 2x2 block raised to the N-th power
    applied to the (1/sqrt(d), 0) input; detector probabilities are the
    squared output amplitudes.  Absorption is summed over the pixels with
    T < 1, so a transparent pixel, whose cos^2 + sin^2 may round above 1,
    adds none.
    """
    ts = tuple(float(t) for t in transmissions)
    if len(ts) != d:
        raise ValueError(f"expected {d} transmissions, got {len(ts)}")
    ph, pv = block_probabilities(np.array(ts), theta, n_cycles)
    exact: dict[str, float] = {}
    for ell in range(d):
        exact[core.pol_detector_label(ell, POL_H)] = float(ph[ell]) / d
        exact[core.pol_detector_label(ell, POL_V)] = float(pv[ell]) / d
    lossy = np.array(ts) < 1.0
    p_abs = float(np.sum(1.0 - ph[lossy] - pv[lossy])) / d
    binary = all(t in (0.0, 1.0) for t in ts)
    efficiency = float(np.cos(theta) ** (2 * n_cycles)) if binary else None
    return AnalyticReport(exact, None, p_abs, efficiency=efficiency)


def _asymptotic_probabilities(
    d: int, n_cycles: int, transmissions: tuple[float, ...]
) -> tuple[dict[str, float], float]:
    """Large-N (p_h, p_v) of each pixel at theta = pi/2N, and the absorption.

    p_h = (1/d) (1 - (1+sqrt(T))/(1-sqrt(T)) pi^2/4N) and
    p_v = (1/d) T/(1-sqrt(T))^2 pi^2/4N^2, with the exact limit (0, 1/d)
    at the pole T = 1.  As in ``semitransparent_exact``, the absorption is
    summed over the pixels with T < 1 only.
    """
    asym: dict[str, float] = {}
    lost = 0.0
    for ell, t in enumerate(transmissions):
        if t == 1.0:
            ph, pv = 0.0, 1.0
        else:
            r = np.sqrt(t)
            ph = float(1.0 - (1.0 + r) / (1.0 - r) * np.pi**2 / (4 * n_cycles))
            pv = float((t / (1.0 - r) ** 2) * np.pi**2 / (4 * n_cycles**2))
            lost += 1.0 - ph - pv
        asym[core.pol_detector_label(ell, POL_H)] = ph / d
        asym[core.pol_detector_label(ell, POL_V)] = pv / d
    return asym, lost / d


def semitransparent_asymptotic(
    d: int,
    n_cycles: int,
    transmissions: tuple[float, ...] | list[float],
) -> AnalyticReport:
    """Large-N approximations at theta = pi/2N for transmissions in [0, 1).

    The expansion (see ``_asymptotic_probabilities``) has a pole at T = 1,
    so fully transparent pixels are rejected.
    """
    ts = tuple(float(t) for t in transmissions)
    if len(ts) != d:
        raise ValueError(f"expected {d} transmissions, got {len(ts)}")
    for ell, t in enumerate(ts):
        if not (0.0 <= t < 1.0):
            raise ValueError(
                f"transmission T_{ell}={t} not in [0, 1): the large-N expansion "
                "has a pole at 1 - sqrt(T) = 0"
            )
    asym, p_abs = _asymptotic_probabilities(d, n_cycles, ts)
    return AnalyticReport(None, asym, p_abs)


def exact_distribution(config: SchemeConfig) -> AnalyticReport:
    """Exact closed-form report for any scheme configuration.

    Single-pass kinds require opaque/transparent patterns.  The cycling
    schemes use the block closed form with the per-cycle rotation; the
    report is then read under the kind's labels (``Kind.relabel``: the
    folded scheme exchanges h and v, a single-pixel kind renames its d = 1
    labels).
    """
    if config.spec.single_pass:
        report = multipixel_single_pass_table(config.d, config.pattern)
    else:
        report = semitransparent_exact(
            config.d, config.n_cycles, config.cycle_rotation, config.pattern.transmissions
        )
    assert report.exact is not None
    return AnalyticReport(config.spec.relabel(report.exact), None, report.p_abs,
                          report.efficiency)


def asymptotic_distribution(config: SchemeConfig) -> AnalyticReport | None:
    """Large-N report for the cycling schemes, else None.

    Fully transparent pixels take their exact limit values (p_v = 1/d)
    instead of the poled expansion.
    """
    if config.spec.single_pass:
        return None
    asym, p_abs = _asymptotic_probabilities(
        config.d, config.n_cycles, config.pattern.transmissions
    )
    return AnalyticReport(None, config.spec.relabel(asym), p_abs)
