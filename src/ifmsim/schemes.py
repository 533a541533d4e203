"""Assembly and execution of the interaction-free imaging schemes.

Each scheme is an ordered list of optical elements plus a detector map:

* ``ev-single-pass``        - balanced two-arm interferometer, one pixel.
* ``zeno-single-pixel``     - cycling interrogation of one pixel.
* ``multipixel-single-pass``- OAM-encoded parallel version of the first.
* ``multipixel-zeno``       - OAM-encoded cycling scheme.
* ``michelson-zeno``        - folded cycling scheme, half rotation per pass,
                              Pockels switch-out (detector meaning reversed).
* ``semitransparent-zeno``  - the cycling scheme with arbitrary per-pixel
                              transmissions.

``run_scheme`` composes each scheme's cycle into one gather-form element,
applies it once per cycle (O(D) work each) while recording the survival
trace, and projects the final state on the detectors.  Every cycle count
runs through this one path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ifmsim import core
from ifmsim.core import (
    EV_DETECTORS,
    POL_H,
    POL_V,
    SINGLE_PIXEL_DETECTORS,
    SCHEME_KINDS,
    ZENO_KINDS,
    DetectionDistribution,
    DetectorMap,
    ElementOp,
    PhotonState,
    PixelPattern,
)

# Rounding budget of a run: a norm deficit within
# c * eps * (element applications) is rounding, not absorption, with c below.
# Over 1096 unitary runs (transparent objects, all six kinds, d <= 24,
# N <= 10^4, both encoder forms and beam splitter conventions) the largest
# |1 - survival| / (eps * applications) was 1.0, reached by three-element
# single-pass runs; cycling runs stayed below 0.15 (0.047 for the
# d=8, N=5000 run that reported p_abs = -4.2e-13).  c = 2 doubles the worst.
# The trace holds each cycle's survival to the same budget, counting the
# applications up to that cycle: over 788 such runs and every cycle the
# largest ratio was 0.83, and 0.75 in cycling runs (at cycle 1).
ROUNDING_ULPS_PER_APPLICATION = 2.0


@dataclass(frozen=True)
class SchemeConfig:
    """Full description of one experiment.

    ``theta`` is the rotation angle per rotator passage; when omitted it
    defaults to the canonical value pi/2N for the cycling schemes and
    pi/4N for the folded (Michelson) scheme, which sees the rotator twice
    per cycle.  Single-pass kinds ignore ``n_cycles`` and ``theta``.

    ``encoder_form`` selects between the composed elementary gates
    ("gates": sorter, converter, object, inverses) and the equivalent
    single OAM-diagonal attenuator ("oam-diagonal").
    """

    kind: str
    pattern: PixelPattern
    n_cycles: int = 1
    theta: float | None = None
    encoder_form: str = "gates"
    bs_convention: str = "hadamard"

    def __post_init__(self) -> None:
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.kind in ("ev-single-pass", "zeno-single-pixel") and self.pattern.d != 1:
            raise ValueError(f"{self.kind} is a single-pixel scheme, got d={self.pattern.d}")
        if self.kind in ZENO_KINDS and self.n_cycles < 1:
            raise ValueError(f"cycle count must be >= 1, got N={self.n_cycles}")
        if self.theta is not None and not (0.0 < self.theta <= np.pi / 2):
            raise ValueError(f"rotation angle must lie in (0, pi/2], got {self.theta}")
        if self.encoder_form not in ("gates", "oam-diagonal"):
            raise ValueError(f"unknown encoder form {self.encoder_form!r}")

    @property
    def d(self) -> int:
        return self.pattern.d

    @property
    def effective_theta(self) -> float:
        """Rotation angle per rotator passage actually used in the run."""
        if self.theta is not None:
            return self.theta
        if self.kind == "michelson-zeno":
            return np.pi / (4 * self.n_cycles)
        return np.pi / (2 * self.n_cycles)

    @property
    def cycle_rotation(self) -> float:
        """Total polarisation rotation accumulated per cycle."""
        passes = 2 if self.kind == "michelson-zeno" else 1
        return passes * self.effective_theta


@dataclass(frozen=True)
class SchemeTrace:
    """Per-cycle survival record of a run.

    ``survival[k]`` is the survival probability after cycle k+1 and
    ``p_abs_cycle[k]`` the conditional absorption probability during that
    cycle (given survival so far).
    """

    survival: tuple[float, ...]
    p_abs_cycle: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.survival)


@dataclass(frozen=True)
class BuiltScheme:
    """Element sequence and readout of one experiment."""

    cycle_elements: tuple[ElementOp, ...]
    switch_out: tuple[ElementOp, ...]
    n_cycles: int
    detector_map: DetectorMap


class SchemeResult(NamedTuple):
    state: PhotonState
    distribution: DetectionDistribution
    trace: SchemeTrace


def _encoder_elements(config: SchemeConfig) -> tuple[ElementOp, ...]:
    """Path-to-OAM encoder around the object, on arm 0.

    The folded scheme adds its arm mirror stage behind the object.
    """
    d = config.d
    if config.encoder_form == "oam-diagonal":
        return (core.object_attenuator(config.pattern, "oam-diagonal"),)
    mirrors = (core.arm_mirrors(d),) if config.kind == "michelson-zeno" else ()
    return (
        core.oam_sorter(d),
        core.oam_converter(d),
        core.object_attenuator(config.pattern, "pixel-paths"),
        *mirrors,
        core.oam_converter(d, inverse=True),
        core.oam_sorter(d, inverse=True),
    )


def _port_detector_map(d: int, bright_mode: int) -> DetectorMap:
    """OAM-resolved detectors behind the two output ports.

    ``bright_mode`` is the port receiving the constructive interference for
    a fully transparent object; it carries the labels D0_ell, the dark port
    the labels Dd_ell.  Both pols feed the same port detector.
    """
    dark_mode = d if bright_mode == 0 else 0
    groups: dict[str, list[tuple[int, int, int]]] = {}
    for ell in range(d):
        groups[core.port_detector_label("0", ell)] = [
            (pol, ell, bright_mode) for pol in (POL_H, POL_V)
        ]
    for ell in range(d):
        groups[core.port_detector_label("d", ell)] = [
            (pol, ell, dark_mode) for pol in (POL_H, POL_V)
        ]
    return DetectorMap.from_groups(d, groups)


def _pol_detector_map(d: int) -> DetectorMap:
    """Polarisation- and OAM-resolved detectors on the readout mode d."""
    groups: dict[str, list[tuple[int, int, int]]] = {}
    for ell in range(d):
        groups[core.pol_detector_label(ell, POL_H)] = [(POL_H, ell, d)]
        groups[core.pol_detector_label(ell, POL_V)] = [(POL_V, ell, d)]
    return DetectorMap.from_groups(d, groups)


def build_scheme(config: SchemeConfig) -> BuiltScheme:
    """Ordered element list and detector map for ``config``.

    The final OAM sorters fanning the output ports onto individual
    detectors are folded into the detector map, which resolves (pol, OAM,
    port) directly.  The single-pixel kinds read the d = 1 port or
    polarisation map under their own labels.
    """
    d = config.d
    theta = config.effective_theta
    kind = config.kind
    # The Hadamard convention interferes constructively on mode 0, the
    # symmetric convention on mode d; detector D0 tracks the bright port.
    bright_mode = 0 if config.bs_convention == "hadamard" else d

    if kind == "ev-single-pass":
        elements = (
            core.beam_splitter(d, config.bs_convention),
            core.object_attenuator(config.pattern, "pixel-paths"),
            core.beam_splitter(d, config.bs_convention),
        )
        dmap = _port_detector_map(d, bright_mode)
        return BuiltScheme(elements, (), 1, DetectorMap(d, EV_DETECTORS, dmap.assignment))

    if kind == "multipixel-single-pass":
        elements = (
            core.beam_splitter(d, config.bs_convention),
            *_encoder_elements(config),
            core.beam_splitter(d, config.bs_convention),
        )
        return BuiltScheme(elements, (), 1, _port_detector_map(d, bright_mode))

    if kind in ("zeno-single-pixel", "multipixel-zeno", "semitransparent-zeno"):
        cycle = (
            core.polarisation_rotator(theta, d),
            core.polarising_beam_splitter(d),
            *_encoder_elements(config),
            core.polarising_beam_splitter(d),
        )
        dmap = _pol_detector_map(d)
        if kind == "zeno-single-pixel":
            dmap = DetectorMap(d, SINGLE_PIXEL_DETECTORS, dmap.assignment)
        return BuiltScheme(cycle, (), config.n_cycles, dmap)

    if kind == "michelson-zeno":
        cycle = (
            core.polarisation_rotator(theta, d),
            core.mirror_reflect("retro", d),
            core.polarisation_rotator(theta, d),
            core.polarising_beam_splitter(d),
            *_encoder_elements(config),
            core.polarising_beam_splitter(d),
        )
        return BuiltScheme(cycle, (core.pockels_flip(d),), config.n_cycles, _pol_detector_map(d))

    raise ValueError(f"unknown scheme kind {kind!r}")


def run_scheme(config: SchemeConfig) -> SchemeResult:
    """Evolve the input photon through ``config`` and read out the detectors.

    The cycle's elements are composed once and the product is applied
    ``n_cycles`` times, so each cycle costs O(D).  Returns the final
    (sub-normalized) state, the detection distribution and the per-cycle
    survival trace.  A survival within the rounding budget of the element
    applications so far reads as 1 in the trace and the readout.
    """
    built = build_scheme(config)
    cycle = core.compose(built.cycle_elements, label="cycle")
    vec = core.make_initial_state(config.d, config.kind).flat
    per_application = ROUNDING_ULPS_PER_APPLICATION * np.finfo(np.float64).eps

    survivals: list[float] = []
    p_cycle: list[float] = []
    prev = 1.0
    for k in range(1, built.n_cycles + 1):
        vec = cycle.apply_flat(vec)
        s = float(np.vdot(vec, vec).real)
        if abs(1.0 - s) <= per_application * k * len(built.cycle_elements):
            s = 1.0
        p_cycle.append(1.0 - s / prev if prev > 0.0 else 0.0)
        survivals.append(s)
        prev = s
    for op in built.switch_out:
        vec = op.apply_flat(vec)

    applications = built.n_cycles * len(built.cycle_elements) + len(built.switch_out)
    budget = per_application * applications
    final_state = PhotonState.from_flat(config.d, vec)
    distribution = core.detection_distribution(final_state, built.detector_map, budget)
    trace = SchemeTrace(tuple(survivals), tuple(p_cycle))
    return SchemeResult(final_state, distribution, trace)


def final_state_ideal(config: SchemeConfig) -> PhotonState:
    """Large-N target state of the cycling scheme for an opaque/transparent object.

    Opaque pixels keep their H amplitude, transparent pixels are fully
    rotated to V, everything on the readout mode:
    (1/sqrt(d)) [ |H> sum_opaque |ell> + |V> sum_transparent |ell> ] |d>.
    """
    if config.kind != "multipixel-zeno":
        raise ValueError(f"ideal final state is defined for multipixel-zeno, got {config.kind!r}")
    if not config.pattern.is_binary:
        raise ValueError("ideal final state requires an opaque/transparent pattern")
    d = config.d
    amps = np.zeros((2, d, d + 1), dtype=np.complex128)
    for ell, f in enumerate(config.pattern.f):
        amps[POL_H if f else POL_V, ell, d] = 1.0 / np.sqrt(d)
    return PhotonState(d, amps)
