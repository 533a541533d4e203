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

``run_scheme`` pushes the input photon's labels through the cycle's rules
(``core.support_blocks``) to the amplitudes they reach, on a cycling scheme
at most 2d of the 2d(d+1), one 2x2 block per pixel.  The states after
cycles 1..N come from doubling there, ``BLOCK_ROWS`` rows at a time; the
switch-out acts on the last state by label, and the detectors read those
labels, so no array over the whole space is built.  Every kind and cycle
count runs through this one path.  A run evaluates only its rotator's block
and its object's factors; the rest is built once per (kind, d) and shared,
keyed by the elements of its index maps, so a replaced element is pushed
afresh.
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

# Rounding budget of a run, applied by ``BuiltScheme.rounding_budget``: a
# norm deficit after a cycle within c * eps * (element applications up to
# that cycle) is rounding, not absorption, with c below.  Over 1120 unitary
# runs (transparent objects, all six kinds, d <= 24, N <= 10^4;
# ``tools/rounding_budget.py`` runs them and prints the ratios) the largest
# |1 - survival| / (eps * applications) over every cycle was 0.5, reached by
# a single-pass run, and 0.375 in cycling runs (at cycle 1).  The readout
# takes the last cycle's survival.  c = 2 is 4 times the worst.
ROUNDING_ULPS_PER_APPLICATION = 2.0

# Rows of trace states held at once by ``run_scheme``; a power of two.
BLOCK_ROWS = 256

# Bytes of the (rows, terms, amplitudes) temporary of one gather over trace
# rows: from about 200 KB they are mapped afresh on every call, and the page
# faults cost more than the gather (256 rows of 32 amplitudes: 0.33 ms, 0.11 ms in two).
SLAB_BYTES = 128 * 1024

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
    """Element sequence and readout of one experiment, and the input photon
    it starts from (shared and read-only, ``core.input_photon``)."""

    cycle_elements: tuple[ElementOp, ...]
    switch_out: tuple[ElementOp, ...]
    n_cycles: int
    detector_map: DetectorMap
    start: PhotonState

    def rounding_budget(self) -> np.ndarray:
        """Norm drift that rounding alone may add by the end of each cycle:
        ``ROUNDING_ULPS_PER_APPLICATION`` eps per element application."""
        per_application = ROUNDING_ULPS_PER_APPLICATION * np.finfo(np.float64).eps
        return per_application * np.arange(1, self.n_cycles + 1) * len(self.cycle_elements)


class SchemeResult(NamedTuple):
    state: PhotonState
    distribution: DetectionDistribution
    trace: SchemeTrace


def encoder_elements(config: SchemeConfig) -> tuple[ElementOp, ...]:
    """Path-to-OAM encoder around the object, on arm 0.

    The folded scheme adds its arm mirror stage behind the object.
    """
    d = config.d
    mirrors = (core.arm_mirrors(d),) if config.spec.layout == FOLDED else ()
    return (core.oam_sorter(d), core.oam_converter(d),
            core.object_attenuator(config.pattern, "pixel-paths"),
            *mirrors, core.oam_converter(d, inverse=True), core.oam_sorter(d, inverse=True))


@functools.lru_cache(maxsize=64)
def _detector_map(kind: str, d: int) -> DetectorMap:
    """The detector map of ``kind`` at ``d``, under the kind's labels.

    A single-pass kind reads the OAM-resolved detectors behind its output
    ports, both pols on each: D0_ell on mode 0, the bright port for a fully
    transparent object, and Dd_ell on the dark mode d.  The other kinds read
    the polarisation- and OAM-resolved detectors on the readout mode d.
    """
    spec = KINDS[kind]
    if spec.single_pass:
        labels = [core.port_detector_label(port, e) for port in "0d" for e in range(d)]

        def detector(pol, ell, mode):
            return np.where(mode == 0, ell, np.where(mode == d, d + ell, -1))
    else:
        labels = [core.pol_detector_label(e, pol) for e in range(d) for pol in (POL_H, POL_V)]

        def detector(pol, ell, mode):
            return np.where(mode == d, 2 * ell + pol, -1)
    return DetectorMap(d, tuple(spec.names.get(label, label) for label in labels), detector)


def build_scheme(config: SchemeConfig) -> BuiltScheme:
    """Ordered element list and detector map for ``config``.

    The final OAM sorters fanning the output ports onto individual
    detectors are folded into the detector map, which resolves (pol, OAM,
    port) directly.  A single-pixel kind is built as its multi-pixel kind
    at d = 1, with the detector labels renamed (``Kind.names``).  The folded
    layout's h/v exchange comes from its Pockels switch-out, not from a
    renaming.  The input photon enters a single-pass interferometer on mode
    0 and a cycling layout on the reference mode d.
    """
    d = config.d
    spec = config.spec
    dmap = _detector_map(config.kind, d)
    port = core.beam_splitter(d) if spec.single_pass else core.polarising_beam_splitter(d)
    elements = (port, *encoder_elements(config), port)
    if spec.single_pass:
        return BuiltScheme(elements, (), 1, dmap, core.input_photon(d, 0))

    rotator = core.polarisation_rotator(config.effective_theta, d)
    start = core.input_photon(d, d)
    if spec.layout == FOLDED:
        return BuiltScheme((rotator, core.mirror_reflect("retro", d), rotator, *elements),
                           (core.pockels_flip(d),), config.n_cycles, dmap, start)
    return BuiltScheme((rotator, *elements), (), config.n_cycles, dmap, start)


def run_scheme(config: SchemeConfig) -> SchemeResult:
    """Evolve the input photon (``BuiltScheme.start``) through ``config`` and
    read out the detectors.

    Returns the final (sub-normalized) state on the labels it can reach, the
    detection distribution and the per-cycle survival trace.  The survival
    after a cycle is the sum of re^2 + im^2 over the reached amplitudes; one
    within ``BuiltScheme.rounding_budget`` of that cycle reads as 1.  The
    switch-out only moves labels, so the readout takes the last cycle's
    survival and its budget, and the report's survival is the trace's last
    row.
    """
    built = build_scheme(config)
    labels, survival, last = _cycles(built)
    final_state = PhotonState(config.d, *core.propagate(built.switch_out, labels, last))

    budget = built.rounding_budget()
    distribution = core.detection_distribution(final_state, built.detector_map,
                                               float(budget[-1]), float(survival[-1]))
    survival[np.abs(1.0 - survival) <= budget] = 1.0
    before = np.concatenate(([1.0], survival[:-1]))
    kept = np.divide(survival, before, out=np.ones_like(survival), where=before > 0.0)
    return SchemeResult(final_state, distribution, SchemeTrace(survival, 1.0 - kept))


def _cycles(built: BuiltScheme) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The labels ``built.start`` can reach in ``built``'s cycles whatever the
    object (shared by every run of the kind and d), the survival after each
    cycle before the rounding clamp, and the last state on those labels.  The
    cycles run on the amplitudes the input reaches (``core.support_blocks``)."""
    cycle = core.compose(built.cycle_elements, label="cycle")
    start = built.start
    labels, reached, index, coeff = core.support_blocks(cycle, start.labels)
    state = np.zeros(len(labels), dtype=np.complex128)
    state[np.searchsorted(labels, start.labels)] = start.amplitudes
    survival, state[reached] = _evolve(index, coeff, state[reached], built.n_cycles)
    return labels, survival, state


def _evolve(index: np.ndarray, coeff: np.ndarray, start: np.ndarray,
            n_cycles: int) -> tuple[np.ndarray, np.ndarray]:
    """Survival after each of ``n_cycles`` applications of the cycle C to
    ``start``, and the last state.

    C is given in block gather form (``core.support_blocks``).  The states
    are built in blocks of B = ``BLOCK_ROWS`` rows.  In the first block,
    rows [n, 2n) are rows [0, n) times C^n; each later block is the one
    before times C^B.  The coefficients of C^n come from
    ``core.block_powers``, each rounded once from a more precise product.
    Memory is one block, not one row per cycle.  Gathers run over slabs of
    rows within ``SLAB_BYTES``; a row's arithmetic does not depend on them.
    """
    rows = min(n_cycles, BLOCK_ROWS)
    doublings = (rows - 1).bit_length()
    powers = core.block_powers(index, coeff, max(1, doublings + (n_cycles > rows)))
    slab = max(1, SLAB_BYTES // (16 * index.size))

    def advance(power: np.ndarray, target: int, count: int) -> None:
        # Rows [target, target + count) become rows [0, count) times the power.
        for row in range(0, count, slab):
            rows = min(slab, count - row)
            block[target + row:target + row + rows] = core.gather(index, power,
                                                                   block[row:row + rows])

    block = np.empty((rows, len(start)), dtype=np.complex128)
    block[0] = core.gather(index, coeff, start)
    filled = 1
    for power in powers[:doublings]:
        count = min(filled, rows - filled)
        advance(power, filled, count)
        filled += count
    survival = np.empty(n_cycles)
    done = 0
    while True:
        count = min(rows, n_cycles - done)
        survival[done:done + count] = core.squared_norm(block[:count])
        done += count
        if done == n_cycles:
            return survival, block[count - 1]
        count = min(rows, n_cycles - done)
        advance(powers[-1], 0, count)


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
    pol = np.where(config.pattern.f, POL_H, POL_V)
    labels = (pol * d + np.arange(d)) * (d + 1) + d
    return PhotonState(d, np.sort(labels), np.full(d, 1.0 / np.sqrt(d)))
