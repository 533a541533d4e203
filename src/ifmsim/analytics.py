"""Closed-form detection probabilities for every scheme.

These evaluators are independent of the state-vector simulator: they work
on 2x2 polarisation blocks (one per OAM value) or directly on the exact
outcome tables, and serve both as oracles for the simulator and as fast
evaluators for parameter sweeps.  ``exact_distribution`` and
``asymptotic_distribution`` take a scheme configuration;
``transmission_block`` and ``block_probabilities`` evaluate one pixel, and
the transmission fit uses them directly.

For a semi-transparent pixel with transmission T the single-cycle block is

    m(T, theta) = [[cos(theta), -sin(theta)],
                   [sqrt(T) sin(theta), sqrt(T) cos(theta)]]

acting on the (H, V) amplitude pair at theta = pi/2N; N cycles are the
N-th matrix power, computed by ``np.linalg.matrix_power`` (stacked over
arrays of T).  At T = 0 and T = 1 the trigonometric forms cos^2N(theta)
and (cos^2(N theta), sin^2(N theta)) replace it, so the oracle shares no
rounding with the simulator's gate products there.  The survival of an
opaque/transparent object, 1 - (n_abs/d)(1 - cos^2N(theta)), is the sum
of its pixels' rows.
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


def _single_pass_table(pattern: PixelPattern) -> tuple[dict[str, float], float, float]:
    """Exact per-detector probabilities, absorption and efficiency of the
    parallel single-pass scheme.

    Each pixel behaves like an independent single-pass experiment carrying
    weight 1/d: transparent pixels put 1/d on the bright port, opaque ones
    1/4d on each port and 1/2d into absorption.
    """
    if not pattern.is_binary:
        raise ValueError("single-pass table requires an opaque/transparent pattern")
    d = pattern.d
    exact: dict[str, float] = {}
    for ell, f in enumerate(pattern.f):
        exact[core.port_detector_label("0", ell)] = (0.25 / d) if f else (1.0 / d)
    for ell, f in enumerate(pattern.f):
        exact[core.port_detector_label("d", ell)] = (0.25 / d) if f else 0.0
    return exact, 0.5 * pattern.n_abs / d, 0.25


def _cycling_exact(config: SchemeConfig) -> tuple[dict[str, float], float, float | None]:
    """Exact cycling-scheme probabilities, absorption and efficiency.

    Each OAM value evolves under its own 2x2 block raised to the N-th power
    applied to the (1/sqrt(d), 0) input; detector probabilities are the
    squared output amplitudes.  Absorption is summed over the pixels with
    T < 1, so a transparent pixel, whose cos^2 + sin^2 may round above 1,
    adds none.  A binary object's efficiency is an opaque pixel's p_h,
    cos^2N(theta).
    """
    d, n_cycles, theta = config.d, config.n_cycles, config.cycle_rotation
    ts = np.array(config.pattern.transmissions)
    # An opaque pixel rides along in the stack: its p_h is the efficiency.
    ph, pv = block_probabilities(np.append(ts, 0.0), theta, n_cycles)
    efficiency = float(ph[d]) if config.pattern.is_binary else None
    ph, pv = ph[:d], pv[:d]
    exact: dict[str, float] = {}
    for ell in range(d):
        exact[core.pol_detector_label(ell, POL_H)] = float(ph[ell]) / d
        exact[core.pol_detector_label(ell, POL_V)] = float(pv[ell]) / d
    lossy = ts < 1.0
    p_abs = float(np.sum(1.0 - ph[lossy] - pv[lossy])) / d
    return exact, p_abs, efficiency


def exact_distribution(config: SchemeConfig) -> AnalyticReport:
    """Exact closed-form report for any scheme configuration.

    Single-pass kinds require opaque/transparent patterns.  The cycling
    schemes use the block closed form with the per-cycle rotation; the
    report is then read under the kind's labels (``Kind.relabel``: the
    folded scheme exchanges h and v, a single-pixel kind renames its d = 1
    labels).
    """
    if config.spec.single_pass:
        exact, p_abs, efficiency = _single_pass_table(config.pattern)
    else:
        exact, p_abs, efficiency = _cycling_exact(config)
    return AnalyticReport(config.spec.relabel(exact), None, p_abs, efficiency)


def asymptotic_distribution(config: SchemeConfig) -> AnalyticReport | None:
    """Large-N report at theta = pi/2N for the cycling schemes where it is a
    probability, else None.

    p_h = (1/d) (1 - (1+sqrt(T))/(1-sqrt(T)) pi^2/4N) and
    p_v = (1/d) T/(1-sqrt(T))^2 pi^2/4N^2.  The expansion has a pole at
    T = 1, so fully transparent pixels take their exact limit (0, 1/d)
    instead.  As in ``exact_distribution``, the absorption is summed over
    the pixels with T < 1 only.  Below N = (1+sqrt(T)) pi^2/(4(1-sqrt(T)))
    a pixel's p_h is negative, so the report is None when any value it
    would hold, as computed, lies outside [0, 1].
    """
    if config.spec.single_pass:
        return None
    d, n_cycles = config.d, config.n_cycles
    asym: dict[str, float] = {}
    lost = 0.0
    for ell, t in enumerate(config.pattern.transmissions):
        if t == 1.0:
            ph, pv = 0.0, 1.0
        else:
            r = np.sqrt(t)
            ph = float(1.0 - (1.0 + r) / (1.0 - r) * np.pi**2 / (4 * n_cycles))
            pv = float((t / (1.0 - r) ** 2) * np.pi**2 / (4 * n_cycles**2))
            lost += 1.0 - ph - pv
        asym[core.pol_detector_label(ell, POL_H)] = ph / d
        asym[core.pol_detector_label(ell, POL_V)] = pv / d
    if not all(0.0 <= p <= 1.0 for p in (*asym.values(), lost / d)):
        return None
    return AnalyticReport(None, config.spec.relabel(asym), lost / d)
