"""Assembly and execution of the interaction-free imaging schemes.

Each scheme is an ordered list of optical elements plus a detector map.
``KINDS`` is the one table of what a scheme kind means: its layout and the
renaming of its detector labels.

* ``multipixel-single-pass``- OAM-encoded balanced two-arm interferometer.
* ``multipixel-zeno``       - OAM-encoded cycling scheme.
* ``michelson-zeno``        - folded cycling scheme, half rotation per pass,
                              Pockels switch-out (detector meaning reversed).
* ``semitransparent-zeno``  - an alias of ``multipixel-zeno``: the same
                              scheme, whatever the object's transmissions.

The single-pixel kinds ``ev-single-pass`` and ``zeno-single-pixel`` are
the first two at d = 1, read under their own detector labels.  The object,
not the kind, decides what a run can be reconstructed into.

``run_scheme`` composes each scheme's cycle into one gather-form element
and restricts it to the amplitudes the input photon reaches: a cycling run
starts and ends every cycle on the reference mode, so at most 2d of the
2d(d+1) amplitudes.  The states after cycles 1..N come from doubling on
that support, in blocks of ``BLOCK_ROWS`` rows, and give the survival
trace; the last state goes back into the full space for the switch-out
and the detectors.  Every cycle count and every kind runs through this one
path.

A run builds only what depends on its angle and its object: the rotator's
and the attenuator's coefficients.  What it takes from (kind, d) alone is
built on first use and shared by later runs of that (kind, d): the
elements fixed by d and the input state (``core``), the detector map, and
the product of each run of elements fixed by d in the cycle (its stages,
``BuiltScheme.cycle_stages``).  The products are keyed by the element
objects, so a replaced element is composed afresh.  A process gains from
this when it runs the same (kind, d) again, as a benchmark stream or a
sweep does.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from ifmsim import core
from ifmsim.core import (
    POL_H,
    POL_V,
    DetectionDistribution,
    DetectorMap,
    ElementOp,
    PhotonState,
    PixelPattern,
)

# Rounding budget of a run: a norm deficit within
# c * eps * (element applications) is rounding, not absorption, with c below.
# Over 1120 unitary runs (transparent objects, all six kinds, d <= 24,
# N <= 10^4; ``tools/rounding_budget.py`` runs them and prints the ratios)
# the largest |1 - survival| / (eps * applications) was 0.57, reached by a
# single-pass run; cycling runs stayed below 0.19.  The trace holds each
# cycle's survival to the same budget, counting the applications up to that
# cycle: over every cycle the largest ratio was 0.5, and 0.375 in cycling
# runs (at cycle 1).  c = 2 is 3.5 times the worst.
ROUNDING_ULPS_PER_APPLICATION = 2.0

# Rows of trace states held at once by ``run_scheme``; a power of two.
BLOCK_ROWS = 256

# Layouts of a scheme: one pass through a balanced interferometer, N weak
# cycles, or N cycles folded into a Michelson arm.
SINGLE_PASS = "single-pass"
CYCLING = "cycling"
FOLDED = "folded"


@dataclass(frozen=True)
class Kind:
    """A row of the kind table: the layout and the single-pixel label renaming.

    The folded layout crosses the rotator twice per cycle, and its Pockels
    switch-out exchanges h and v at readout.  ``names`` renames the d = 1
    detector labels of a single-pixel kind; it is empty for the multi-pixel
    kinds.
    """

    layout: str
    names: Mapping[str, str] = field(default_factory=dict)

    @property
    def single_pass(self) -> bool:
        return self.layout == SINGLE_PASS

    @property
    def per_pixel(self) -> bool:
        """Whether each pixel has its own detectors (the multi-pixel kinds)."""
        return not self.names

    @property
    def per_pixel_hv(self) -> bool:
        """Whether each pixel has its own h and v detectors."""
        return self.per_pixel and not self.single_pass

    def relabel(self, probs: Mapping[str, float]) -> dict[str, float]:
        """``probs``, given under the unfolded multi-pixel labels, under this kind's.

        The folded layout exchanges the h and v labels of every OAM value
        (its D{ell}_h reads what the unfolded D{ell}_v reads); a single-pixel
        kind renames its d = 1 labels.  The exchange is its own inverse, so
        on a multi-pixel kind this also reads the kind's clicks back under
        the unfolded labels.
        """
        swap = {"_h": "_v", "_v": "_h"} if self.layout == FOLDED else {}

        def label(old: str) -> str:
            new = old[:-2] + swap[old[-2:]] if old[-2:] in swap else old
            return self.names.get(new, new)

        return {label(old): p for old, p in probs.items()}


# ``semitransparent-zeno`` is the row of ``multipixel-zeno``; a config keeps
# the name it was given.
KINDS: dict[str, Kind] = {
    "ev-single-pass": Kind(SINGLE_PASS, {"D0_0": "D0", "Dd_0": "D1"}),
    "zeno-single-pixel": Kind(CYCLING, {"D0_h": "Dh", "D0_v": "Dv"}),
    "multipixel-single-pass": Kind(SINGLE_PASS),
    "multipixel-zeno": Kind(CYCLING),
    "michelson-zeno": Kind(FOLDED),
    "semitransparent-zeno": Kind(CYCLING),
}


@dataclass(frozen=True)
class SchemeConfig:
    """Full description of one experiment: scheme kind, object and cycle count.

    ``kind`` is a name in ``KINDS``, kept as given; ``spec`` is its row.
    Every kind needs ``n_cycles >= 1``.  The cycling schemes use the
    canonical rotation angle (see ``effective_theta``); single-pass kinds
    run once whatever ``n_cycles`` is.
    """

    kind: str
    pattern: PixelPattern
    n_cycles: int = 1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if not self.spec.per_pixel and self.pattern.d != 1:
            raise ValueError(f"{self.kind} is a single-pixel scheme, got d={self.pattern.d}")
        if self.n_cycles < 1:
            raise ValueError(f"cycle count must be >= 1, got N={self.n_cycles}")

    @property
    def spec(self) -> Kind:
        return KINDS[self.kind]

    @property
    def d(self) -> int:
        return self.pattern.d

    @property
    def effective_theta(self) -> float:
        """Rotation angle per rotator passage: pi/2N, or pi/4N for the folded
        layout, which sees the rotator twice per cycle."""
        return self.cycle_rotation / (2 if self.spec.layout == FOLDED else 1)

    @property
    def cycle_rotation(self) -> float:
        """Total polarisation rotation accumulated per cycle, pi/2N."""
        return np.pi / (2 * self.n_cycles)


@dataclass(frozen=True, eq=False)
class SchemeTrace:
    """Per-cycle survival record of a run.

    ``survival[k]`` is the survival probability after cycle k+1 and
    ``p_abs_cycle[k]`` the conditional absorption probability during that
    cycle (given survival so far).  Both are read-only float64 arrays.
    """

    survival: np.ndarray
    p_abs_cycle: np.ndarray

    def __post_init__(self) -> None:
        for name in ("survival", "p_abs_cycle"):
            column = np.array(getattr(self, name), dtype=np.float64)
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.survival)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SchemeTrace):
            return NotImplemented
        return (np.array_equal(self.survival, other.survival)
                and np.array_equal(self.p_abs_cycle, other.p_abs_cycle))


@dataclass(frozen=True)
class BuiltScheme:
    """Element sequence and readout of one experiment.

    ``cycle_stages`` is the cycle in the stages that ``run_scheme``
    composes: a stage of several elements is a run of elements fixed by d,
    composed once for each run of element objects (``_stage_product``).
    """

    cycle_stages: tuple[tuple[ElementOp, ...], ...]
    switch_out: tuple[ElementOp, ...]
    n_cycles: int
    detector_map: DetectorMap

    @property
    def cycle_elements(self) -> tuple[ElementOp, ...]:
        return tuple(op for stage in self.cycle_stages for op in stage)

    @property
    def applications(self) -> int:
        """Element applications of a run: N cycles, then the switch-out."""
        return self.n_cycles * len(self.cycle_elements) + len(self.switch_out)


class SchemeResult(NamedTuple):
    state: PhotonState
    distribution: DetectionDistribution
    trace: SchemeTrace


def encoder_elements(config: SchemeConfig) -> tuple[ElementOp, ...]:
    """Path-to-OAM encoder around the object, on arm 0.

    The folded scheme adds its arm mirror stage behind the object.
    """
    return tuple(op for stage in _encoder_stages(config) for op in stage)


def _encoder_stages(config: SchemeConfig) -> tuple[tuple[ElementOp, ...], ...]:
    """The encoder in three stages: before the object, the object, behind it."""
    d = config.d
    mirrors = (core.arm_mirrors(d),) if config.spec.layout == FOLDED else ()
    return (
        (core.oam_sorter(d), core.oam_converter(d)),
        (core.object_attenuator(config.pattern, "pixel-paths"),),
        (*mirrors, core.oam_converter(d, inverse=True), core.oam_sorter(d, inverse=True)),
    )


def _port_detector_map(d: int) -> DetectorMap:
    """OAM-resolved detectors behind the two output ports.

    Mode 0, the bright port for a fully transparent object, carries the
    labels D0_ell, the dark mode d the labels Dd_ell.  Both pols feed the
    same port detector.
    """
    groups: dict[str, list[tuple[int, int, int]]] = {}
    for ell in range(d):
        groups[core.port_detector_label("0", ell)] = [
            (pol, ell, 0) for pol in (POL_H, POL_V)
        ]
    for ell in range(d):
        groups[core.port_detector_label("d", ell)] = [
            (pol, ell, d) for pol in (POL_H, POL_V)
        ]
    return DetectorMap.from_groups(d, groups)


def _pol_detector_map(d: int) -> DetectorMap:
    """Polarisation- and OAM-resolved detectors on the readout mode d."""
    groups: dict[str, list[tuple[int, int, int]]] = {}
    for ell in range(d):
        groups[core.pol_detector_label(ell, POL_H)] = [(POL_H, ell, d)]
        groups[core.pol_detector_label(ell, POL_V)] = [(POL_V, ell, d)]
    return DetectorMap.from_groups(d, groups)


@functools.lru_cache(maxsize=64)
def _detector_map(kind: str, d: int) -> DetectorMap:
    """The detector map of ``kind`` at ``d``, under the kind's labels."""
    spec = KINDS[kind]
    dmap = _port_detector_map(d) if spec.single_pass else _pol_detector_map(d)
    if not spec.names:
        return dmap
    return DetectorMap(d, tuple(spec.names.get(label, label) for label in dmap.labels),
                       dmap.assignment)


def build_scheme(config: SchemeConfig) -> BuiltScheme:
    """Ordered element list and detector map for ``config``.

    The final OAM sorters fanning the output ports onto individual
    detectors are folded into the detector map, which resolves (pol, OAM,
    port) directly.  A single-pixel kind is built as its multi-pixel kind
    at d = 1, with the detector labels renamed (``Kind.names``).  The folded
    layout's h/v exchange comes from its Pockels switch-out, not from a
    renaming.  The ports join the encoder's first and last stages.
    """
    d = config.d
    spec = config.spec
    dmap = _detector_map(config.kind, d)
    port = core.beam_splitter(d) if spec.single_pass else core.polarising_beam_splitter(d)
    before, target, behind = _encoder_stages(config)
    stages = ((port, *before), target, (*behind, port))
    if spec.single_pass:
        return BuiltScheme(stages, (), 1, dmap)

    rotator = (core.polarisation_rotator(config.effective_theta, d),)
    if spec.layout == FOLDED:
        return BuiltScheme((rotator, (core.mirror_reflect("retro", d),), rotator, *stages),
                           (core.pockels_flip(d),), config.n_cycles, dmap)
    return BuiltScheme((rotator, *stages), (), config.n_cycles, dmap)


@functools.lru_cache(maxsize=64)
def _stage_product(stage: tuple[ElementOp, ...]) -> ElementOp:
    """One element for a stage of elements fixed by d, composed once.

    The key is the tuple of element objects (an ``ElementOp`` hashes by
    identity), so a stage holding a new element is composed afresh.
    """
    return core.compose(stage)


def run_scheme(config: SchemeConfig) -> SchemeResult:
    """Evolve the input photon through ``config`` and read out the detectors.

    The cycle's stages are composed once and restricted to the
    amplitudes the input reaches within ``n_cycles`` cycles (at most 2d of
    the 2d(d+1) on a cycling scheme).  The states after cycles 1..N are
    then built by doubling (``_evolve``).  The last state goes back into
    the full space for the switch-out and the readout.  Returns the final
    (sub-normalized) state, the detection distribution and the per-cycle
    survival trace.  A survival within the rounding budget of the element
    applications so far reads as 1 in the trace and the readout.
    """
    built = build_scheme(config)
    cycle = core.compose([stage[0] if len(stage) == 1 else _stage_product(stage)
                          for stage in built.cycle_stages], label="cycle")
    start = core.make_initial_state(config.d, 0 if config.spec.single_pass else config.d).flat
    support = core.reachable(cycle, start, built.n_cycles)
    survival, last = _evolve(cycle.restrict(support), start[support], built.n_cycles)
    vec = np.zeros_like(start)
    vec[support] = last
    for op in built.switch_out:
        vec = op.apply_flat(vec)

    per_application = ROUNDING_ULPS_PER_APPLICATION * np.finfo(np.float64).eps
    cycles = np.arange(1, built.n_cycles + 1)
    survival[np.abs(1.0 - survival) <= per_application * cycles * len(built.cycle_elements)] = 1.0
    before = np.concatenate(([1.0], survival[:-1]))
    kept = np.divide(survival, before, out=np.ones_like(survival), where=before > 0.0)
    final_state = PhotonState.from_flat(config.d, vec)
    distribution = core.detection_distribution(final_state, built.detector_map,
                                               per_application * built.applications)
    return SchemeResult(final_state, distribution, SchemeTrace(survival, 1.0 - kept))


def _evolve(cycle: ElementOp, start: np.ndarray, n_cycles: int) -> tuple[np.ndarray, np.ndarray]:
    """Survival after each of ``n_cycles`` applications of ``cycle`` to
    ``start``, and the last state.

    The states are built in blocks of B = ``BLOCK_ROWS`` rows.  In the
    first block, rows [n, 2n) are rows [0, n) times C^n; each later block
    is the one before times C^B.  The powers C^n come from
    ``core.doublings``, each rounded once from a more precise product.
    Memory is one block, not one row per cycle.
    """
    rows = min(n_cycles, BLOCK_ROWS)
    doublings = (rows - 1).bit_length()
    powers = core.doublings(cycle, max(1, doublings + (n_cycles > rows)))
    block = np.empty((rows, cycle.dim), dtype=np.complex128)
    block[0] = cycle.apply_flat(start)
    filled = 1
    for power in powers[:doublings]:
        count = min(filled, rows - filled)
        block[filled:filled + count] = power.apply_flat(block[:count])
        filled += count
    survival = np.empty(n_cycles)
    done = 0
    while True:
        count = min(rows, n_cycles - done)
        survival[done:done + count] = np.square(block[:count].view(np.float64)).sum(axis=1)
        done += count
        if done == n_cycles:
            return survival, block[count - 1]
        count = min(rows, n_cycles - done)
        block[:count] = powers[-1].apply_flat(block[:count])


def final_state_ideal(config: SchemeConfig) -> PhotonState:
    """Large-N target state of the unfolded cycling layout for an opaque/transparent object.

    Opaque pixels keep their H amplitude, transparent pixels are fully
    rotated to V, everything on the readout mode:
    (1/sqrt(d)) [ |H> sum_opaque |ell> + |V> sum_transparent |ell> ] |d>.
    """
    if config.spec.layout != CYCLING:
        raise ValueError(f"ideal final state needs the cycling layout, got {config.kind!r}")
    if not config.pattern.is_binary:
        raise ValueError("ideal final state requires an opaque/transparent pattern")
    d = config.d
    amps = np.zeros((2, d, d + 1), dtype=np.complex128)
    for ell, f in enumerate(config.pattern.f):
        amps[POL_H if f else POL_V, ell, d] = 1.0 / np.sqrt(d)
    return PhotonState(d, amps)
