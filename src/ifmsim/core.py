"""Photon states and optical elements for interaction-free imaging.

The simulation space is the tensor product

    polarisation {H, V}  x  OAM {0, ..., d-1}  x  spatial mode {0, ..., d}

Spatial modes 0..d-1 are the pixel paths inside the path-to-OAM encoder and
mode d is the reference arm; outside the encoder only modes 0 and d carry
amplitude.  A state (:class:`PhotonState`) holds only the labels it
reaches and their amplitudes.  Absorption at the object is modeled by
scaling amplitudes, so states are sub-normalized: the squared norm of a
state is its survival probability and the deficit from one is the
accumulated absorption probability.  A detector map is a rule on labels
too, so a run's readout touches only the labels its photon reaches.

Every optical element (:class:`ElementOp`) is a rule on the (pol, ell,
mode) labels of the basis states: an index map, a factor per label, or a
2x2 block on each pair of labels that differ on one axis.  Nothing is
stored per amplitude.  :func:`propagate` pushes labels along paths once per
set of labels and run of rule shapes, and evaluates only the paths'
coefficients per call.  :func:`support_blocks` gives a run's cycle on the
amplitudes its input reaches, in block gather form, and
:func:`block_powers` squares that form block by block.  Shared arrays are
read-only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

POL_H = 0
POL_V = 1
POL_NAMES = ("h", "v")


def pol_detector_label(ell: int, pol: int) -> str:
    """Label of the polarisation-resolved detector for OAM value ``ell``."""
    return f"D{ell}_{POL_NAMES[pol]}"


def port_detector_label(port: str, ell: int) -> str:
    """Label of the OAM-resolved detector on output port ``'0'`` or ``'d'``."""
    return f"D{port}_{ell}"


def space_dim(d: int) -> int:
    """Dimension of the full polarisation x OAM x mode space."""
    return 2 * d * (d + 1)


def basis_index(d: int, pol: int, ell: int, mode: int) -> int:
    """Flat index of the basis state |pol, ell, mode>."""
    if not (0 <= pol <= 1 and 0 <= ell < d and 0 <= mode <= d):
        raise ValueError(f"basis labels out of range: pol={pol}, ell={ell}, mode={mode}, d={d}")
    return (pol * d + ell) * (d + 1) + mode


@dataclass(frozen=True, eq=False)
class PhotonState:
    """Sub-normalized single-photon state on the labels it holds.

    ``labels`` are distinct flat labels (``basis_index``) in increasing
    order and ``amplitudes`` the amplitude on each; every other label holds
    zero.  The survival, the squared norm, must not exceed 1.  Both arrays
    are read-only, and element applications return new states.  The dense
    ``flat`` and ``amps`` are built on request.  Two states are equal when
    they hold the same labels with the same amplitudes.
    """

    d: int
    labels: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"OAM dimension must be >= 1, got d={self.d}")
        labels = _read_only(np.array(self.labels, dtype=np.intp))
        amps = _read_only(np.array(self.amplitudes, dtype=np.complex128))
        if labels.ndim != 1 or labels.shape != amps.shape:
            raise ValueError(f"labels and amplitudes must be vectors of one length, "
                             f"got shapes {labels.shape} and {amps.shape}")
        n = space_dim(self.d)
        if len(labels) and ((labels[1:] <= labels[:-1]).any() or labels[0] < 0 or labels[-1] >= n):
            raise ValueError(f"labels must increase within 0..{n - 1}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "amplitudes", amps)
        if self.survival > 1.0 + 1e-9:
            raise ValueError(f"state norm^2 = {self.survival} exceeds 1")

    @classmethod
    def from_flat(cls, d: int, flat: np.ndarray) -> "PhotonState":
        """State on the non-zero entries of the dense amplitudes ``flat`` (2d(d+1) of them)."""
        flat = np.asarray(flat, dtype=np.complex128).reshape(space_dim(d))
        labels = np.flatnonzero(flat)
        return cls(d, labels, flat[labels])

    @property
    def flat(self) -> np.ndarray:
        flat = np.zeros(space_dim(self.d), dtype=np.complex128)
        flat[self.labels] = self.amplitudes
        return flat

    @property
    def amps(self) -> np.ndarray:
        """Dense amplitudes of shape ``(2, d, d+1)``, indexed by (pol, ell, mode)."""
        return self.flat.reshape(2, self.d, self.d + 1)

    @property
    def survival(self) -> float:
        """The squared norm of the amplitudes held; a run's trace sums only
        the amplitudes it reaches, so its survival may differ by rounding."""
        return float(squared_norm(self.amplitudes))

    def amplitude(self, pol: int, ell: int, mode: int) -> complex:
        label = basis_index(self.d, pol, ell, mode)
        at = int(np.searchsorted(self.labels, label))
        held = at < len(self.labels) and self.labels[at] == label
        return complex(self.amplitudes[at]) if held else 0j

    def overlap(self, other: "PhotonState") -> complex:
        """<self|other>, summed over the labels both states hold."""
        if other.d != self.d:
            raise ValueError("states live on different spaces")
        _, mine, theirs = np.intersect1d(self.labels, other.labels, assume_unique=True,
                                         return_indices=True)
        return complex(np.vdot(self.amplitudes[mine], other.amplitudes[theirs]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhotonState):
            return NotImplemented
        return (self.d == other.d and np.array_equal(self.labels, other.labels)
                and np.array_equal(self.amplitudes, other.amplitudes))

    def __repr__(self) -> str:  # noqa: D105 - compact display, arrays are noisy
        return f"PhotonState(d={self.d}, survival={self.survival:.6g})"


def squared_norm(amplitudes: np.ndarray) -> np.ndarray:
    """The sum of re^2 + im^2 over the last axis of ``amplitudes``, in label order."""
    return np.square(amplitudes.view(np.float64)).sum(axis=-1)


def basis_state(d: int, pol: int, ell: int, mode: int) -> PhotonState:
    """Unit basis state |pol, ell, mode>."""
    return PhotonState(d, [basis_index(d, pol, ell, mode)], [1.0])


# The input photon and the elements fixed by d are immutable, so each is
# built once per d and shared by every scheme that uses it.  Each cache
# holds the values of its last 16 arguments.
_per_d = functools.lru_cache(maxsize=16)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@_per_d
def input_photon(d: int, mode: int) -> PhotonState:
    """The input photon on mode ``mode``: H-polarised, an equal superposition
    of the d OAM values.  The single-pass interferometers take it on mode 0,
    the cycling (Zeno) schemes on the reference mode d."""
    if d < 1:
        raise ValueError(f"pixel count must be >= 1, got d={d}")
    if not 0 <= mode <= d:
        raise ValueError(f"entry mode {mode} outside 0..{d}")
    labels = (POL_H * d + np.arange(d)) * (d + 1) + mode
    return PhotonState(d, labels, np.full(d, 1.0 / np.sqrt(d)))


# ---------------------------------------------------------------------------
# Elements: rules on labels
# ---------------------------------------------------------------------------

class ElementOp:
    """A linear optical element on the labels of ``d`` pixels: one of three
    rules, or the rules of the elements it composes, its ``parts``
    (:func:`compose`), in order.  A push of a rule depends on its ``key`` (its
    identity, unless it says otherwise), so elements are shared and not
    changed once built."""

    def __init__(self, label: str, d: int, parts: Sequence["ElementOp"] = ()) -> None:
        self.label, self.d = label, d
        self.parts = tuple(parts)

    @property
    def rules(self) -> tuple["ElementOp", ...]:
        """A composite's parts, or the rule itself (not stored, so that no
        rule refers to itself and each is freed without the cyclic GC)."""
        return self.parts or (self,)

    @property
    def key(self) -> object:
        return self

    @property
    def matrix(self) -> np.ndarray:
        """Dense matrix of the action, read-only."""
        columns = self.apply_flat(np.eye(space_dim(self.d), dtype=np.complex128))
        return _read_only(np.ascontiguousarray(columns.T))

    def apply_flat(self, vec: np.ndarray) -> np.ndarray:
        """Action on the last axis of ``vec``, one flat vector or a stack of
        them; returns a new array.  From every label, an element reaches
        every label."""
        return propagate([self], np.arange(space_dim(self.d)), np.asarray(vec))[1]

    def apply(self, state: PhotonState) -> PhotonState:
        """The state after this element, on the labels the state's labels reach."""
        if state.d != self.d:
            raise ValueError(f"element for d={self.d} applied to state with d={state.d}")
        return PhotonState(state.d, *propagate([self], state.labels, state.amplitudes))

    def __repr__(self) -> str:  # noqa: D105
        return f"{type(self).__name__}({self.label!r}, d={self.d})"


class SiteMap(ElementOp):
    """An index map: the amplitude on label x moves to label ``site_map(x)``.

    ``site_map`` maps (pol, ell, mode) label arrays to their images (arrays
    broadcasting to one shape); it must be one to one on the basis, which
    is checked on the labels it is evaluated on.
    """

    def __init__(self, label: str, d: int, site_map: Callable[..., tuple]) -> None:
        super().__init__(label, d)
        self.site_map = site_map

    def image(self, labels: np.ndarray) -> np.ndarray:
        """Flat images of the distinct flat ``labels``."""
        try:
            shape = (2, self.d, self.d + 1)
            image = np.ravel_multi_index(np.broadcast_arrays(
                *self.site_map(*np.unravel_index(labels, shape))), shape)
        except ValueError as exc:
            raise ValueError(f"{self.label}: site map leaves the basis") from exc
        targets, hits = np.unique(image, return_counts=True)
        if hits.max(initial=0) > 1:
            raise ValueError(f"{self.label}: site map is not a bijection "
                             f"(target {int(targets[hits.argmax()])} hit twice)")
        return image


class Factor(ElementOp):
    """A diagonal: the amplitude on label x is multiplied by ``factor(x)``,
    where ``factor`` maps (pol, ell, mode) label arrays to the factors."""

    key = "factor"

    def __init__(self, label: str, d: int, factor: Callable[..., np.ndarray]) -> None:
        super().__init__(label, d)
        self.factor = factor


class Block(ElementOp):
    """A 2x2 ``block`` on each pair of labels that hold ``pair[0]`` and
    ``pair[1]`` on ``axis`` (0 pol, 1 ell, 2 mode) and agree on the others.

    Member k of a pair holds ``pair[k]``; output member r is the sum over k
    of ``block[r, k]`` times input member k.  A label outside every pair
    passes unchanged.  Blocks on one pair share their pushes.
    """

    def __init__(self, label: str, d: int, block: np.ndarray, axis: int,
                 pair: tuple[int, int]) -> None:
        super().__init__(label, d)
        self.block, self.axis, self.pair = _read_only(np.array(block, complex)), axis, pair
        size = (2, d, d + 1)[axis] if axis in (0, 1, 2) else 0
        if self.block.shape != (2, 2) or len(set(pair)) != 2 \
                or not all(0 <= v < size for v in pair):
            raise ValueError(f"{label}: a block needs a 2x2 matrix and two distinct "
                             f"values on axis 0, 1 or 2, got shape {self.block.shape}, "
                             f"axis {axis}, pair {pair} for d={d}")
        # Entry 2r + k is block[r, k]; entry 4 is the 1 of a label outside every pair.
        self.entries = _read_only(np.append(self.block.ravel(), 1.0))

    @property
    def key(self) -> tuple:
        return ("block", self.axis, self.pair)

    def pairing(self, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each flat label's member index (-1 outside every pair) and partner."""
        d = self.d
        stride = (d * (d + 1), d + 1, 1)[self.axis]
        value = labels // stride % (2, d, d + 1)[self.axis]
        first, second = self.pair
        member = np.where(value == first, 0, np.where(value == second, 1, -1))
        return member, labels + np.where(member == 0, second - first, first - second) * stride


def compose(ops: Sequence[ElementOp], label: str | None = None) -> ElementOp:
    """Single element equivalent to applying ``ops`` in list order: the
    rules of each, in turn."""
    if not ops:
        raise ValueError("cannot compose an empty element sequence")
    d = ops[0].d
    if any(op.d != d for op in ops):
        raise ValueError("cannot compose elements built for different d")
    if label is None:
        label = " > ".join(op.label for op in ops)
    return ElementOp(label, d, [rule for op in ops for rule in op.rules])


def _push(rules: Sequence[ElementOp], sources: np.ndarray) -> tuple:
    """Paths of the amplitudes at the sorted flat labels ``sources`` through
    ``rules``: path p runs from source ``src[p]`` to label ``at[p]``.  A site
    map moves each path; a block splits a path on a pair into one to each
    member, and merges the paths from one source that meet on one label.
    Also returns the sorted labels the paths end on, each path's position
    among them, and the program of ``_coefficients``."""
    n = space_dim(rules[0].d)
    at, src = sources, np.arange(len(sources))
    program = []
    for position, rule in enumerate(rules):
        if isinstance(rule, SiteMap):
            labels, inverse = np.unique(at, return_inverse=True)
            at = rule.image(labels)[inverse]
        elif isinstance(rule, Factor):
            program.append((position, np.unravel_index(at, (2, rule.d, rule.d + 1))))
        else:
            member, partner = rule.pairing(at)
            paired = np.flatnonzero(member >= 0)
            parent = np.concatenate((np.arange(len(at)), paired))
            # A path on member k stays with block[k, k] and moves to its
            # partner with block[1 - k, k].
            entry = np.concatenate((np.where(member >= 0, 3 * member, 4), 2 - member[paired]))
            merged, group = np.unique(src[parent] * n + np.concatenate((at, partner[paired])),
                                      return_inverse=True)
            src, at = np.divmod(merged, n)
            program.append((position, (parent, entry, group, len(merged))))
    outputs, out = np.unique(at, return_inverse=True)
    return at, src, _read_only(outputs), out, tuple(program)


def _coefficients(sources: int, program: tuple, rules: Sequence[ElementOp]) -> np.ndarray:
    """Each path's coefficient under ``rules``: the product of what each rule
    multiplies it by, in rule order, summed where a block merged paths (in
    the order made; with at most two paths to a merge, as in every scheme
    here, the order cannot change the sum)."""
    coeff = np.ones(sources, dtype=np.complex128)
    for position, step in program:
        rule = rules[position]
        if isinstance(rule, Factor):
            coeff = coeff * rule.factor(*step)
        else:
            parent, entry, group, count = step
            merged = np.zeros(count, dtype=np.complex128)
            np.add.at(merged, group, coeff[parent] * rule.entries[entry])
            coeff = merged
    return coeff


# Pushes by what was built, source labels and rule keys: rules that differ
# only in their values share one.  The cache keeps its last PUSHES_KEPT keys,
# more than one ``verify`` (98) or a benchmark stream uses.
PUSHES_KEPT = 256
_PUSHES: dict = {}


def _cached(build: Callable, labels: np.ndarray, rules: Sequence[ElementOp]) -> tuple:
    key = (build, rules[0].d, labels.tobytes(), *(rule.key for rule in rules))
    if key not in _PUSHES:
        if len(_PUSHES) == PUSHES_KEPT:
            del _PUSHES[next(iter(_PUSHES))]
        _PUSHES[key] = build(rules, labels)
    return _PUSHES[key]


def propagate(ops: Sequence[ElementOp], labels: np.ndarray, amps: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes ``amps`` (over the sorted flat ``labels``, or a stack) after
    ``ops`` in turn: the sorted labels they reach and, on each, the sum over
    its paths, in source order, of coefficient times source amplitude."""
    rules = tuple(rule for op in ops for rule in op.rules)
    if not rules:
        return labels, amps
    _, src, outputs, out, program = _cached(_push, labels, rules)
    result = np.zeros((*amps.shape[:-1], len(outputs)), dtype=np.complex128)
    np.add.at(result.T, out, (_coefficients(len(labels), program, rules) * amps[..., src]).T)
    return outputs, result


def gather(index: np.ndarray, coeff: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """The gather form (``index``, ``coeff``) applied to the last axis of ``vec``:
    amplitude i is the sum over k of ``coeff[k, i]`` times ``vec[index[k, i]]``."""
    return (coeff * vec[..., index]).sum(axis=-2)


def _cycle_blocks(rules: Sequence[ElementOp], start: np.ndarray) -> tuple:
    """The labels ``start`` reaches under a cycle's ``rules`` whatever their
    values, the mask of ``start`` over them, the program of the cycle's
    paths from them, the block gather index, and each path's term and
    amplitude in it."""
    support = np.sort(start)
    while True:
        at, src, outputs, _, program = _push(rules, support)
        new = outputs[~np.isin(outputs, support, assume_unique=True)]
        if not len(new):
            break
        support = np.sort(np.concatenate((support, new)))
    n = len(support)
    out = np.searchsorted(support, at)
    # Each amplitude is labelled by the least one of its block, the set that
    # paths connect: the least label spreads along every path, both ways.
    root = np.arange(n)
    while True:
        low = root.copy()
        np.minimum.at(low, out, root[src])
        np.minimum.at(low, src, root[out])
        if np.array_equal(low, root):
            break
        root = low
    # Blocks are numbered by root; within one, amplitudes by label.
    order = np.argsort(root, kind="stable")
    grouped = root[order]
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n) - np.searchsorted(grouped, grouped)
    columns = np.arange(n)
    members = np.repeat(columns[:, None], position.max() + 1, axis=1)
    members[root, position] = columns
    return (_read_only(support), _read_only(np.isin(support, start, assume_unique=True)),
            program, _read_only(np.ascontiguousarray(members[root].T)), position[src], out)


def support_blocks(cycle: ElementOp, start: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The labels an input at ``start`` can reach under ``cycle``, the ones it
    does reach, and ``cycle`` on those by blocks.

    ``start`` holds the sorted flat labels of the input's non-zero
    amplitudes.  Returns the sorted ``labels`` the input can reach whatever
    the cycle's values (shared by every cycle whose rules have its keys),
    the positions ``reached`` among them of the amplitudes the input holds
    or that applications of ``cycle`` make non-zero (an amplitude is
    reached when one of its terms reads a reached amplitude with a non-zero
    coefficient), and the gather form (``index``, ``coeff``) of ``cycle`` on
    the amplitudes at ``reached``.

    A block is a set of amplitudes that the cycle's paths connect, so every
    power of the cycle maps each block into itself.  Term k of an amplitude
    reads the k-th amplitude of its block, in increasing order; a smaller
    block repeats its first amplitude, and a term that would read an
    amplitude the input does not reach (the V amplitude of an opaque pixel)
    reads the amplitude itself, both at zero.
    """
    labels, live, program, index, slot, out = _cached(_cycle_blocks, start, cycle.rules)
    coeff = np.zeros(index.shape, dtype=np.complex128)
    coeff[slot, out] += _coefficients(len(labels), program, cycle.rules)
    links = coeff != 0
    while True:
        grown = live | (live[index] & links).any(axis=0)
        if np.array_equal(grown, live):
            break
        live = grown
    reached = _read_only(np.flatnonzero(live))
    if live.all():
        return labels, reached, index, _read_only(coeff)
    reads = live[index]
    index = (np.cumsum(live) - 1)[np.where(reads, index, np.arange(len(live)))]
    return (labels, reached, _read_only(index[:, reached]),
            _read_only(np.where(reads, coeff, 0)[:, reached]))


def block_powers(index: np.ndarray, coeff: np.ndarray, count: int) -> list[np.ndarray]:
    """Coefficients of the block form (``index``, ``coeff``) of a cycle C
    (``support_blocks``) and of its next ``count - 1`` squares: C, C^2, C^4, ...

    Every power reads, for each amplitude, the amplitudes of its block in
    the same order, so a square is one gather, one product and one sum over
    the block, and keeps ``index``.

    Squares rounded to double at every step carry an error that doubles
    with each squaring (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, ch. 18).  So the squares are formed in
    ``np.clongdouble`` and each is rounded to double once.  On x86 that is
    the 80-bit extended format, whose 64-bit significand keeps the error
    that the eight squarings of C^256 add well below that one rounding.
    Where the platform's long double is plain double (MSVC builds, Apple
    silicon), the squares round at every step: a run stays within its
    rounding budget, but in the cases measured its error against an exact
    reference grew up to 2.5 times.
    """
    powers = [coeff]
    wide = coeff.astype(np.clongdouble)
    for _ in range(1, count):
        # Term s of amplitude i sums, over the amplitudes m of its block,
        # what m reads from the s-th amplitude times what i reads from m.
        wide = (wide[:, index] * wide).sum(axis=1)
        powers.append(_read_only(wide.astype(np.complex128)))
    return powers


# ---------------------------------------------------------------------------
# Element constructors
# ---------------------------------------------------------------------------

@_per_d
def beam_splitter(d: int) -> ElementOp:
    """Balanced beam splitter coupling spatial modes 0 and d.

    The real Hadamard, |0> -> (|0> + |d>)/sqrt(2) and
    |d> -> (|0> - |d>)/sqrt(2), so a transparent object interferes
    constructively on mode 0.  Modes 1..d-1 are untouched.
    """
    r = 1.0 / np.sqrt(2.0)
    return Block("BS", d, np.array([[r, r], [r, -r]]), 2, (0, d))


@_per_d
def polarising_beam_splitter(d: int) -> ElementOp:
    """PBS sorting polarisations onto the two arms.

    The V component is exchanged between the reference mode d and the object
    arm mode 0, so the same element both splits (V on d goes to 0) and merges
    (V on 0 returns to d).  H passes straight through.
    """

    def site_map(pol, ell, mode):
        v = pol == POL_V
        return pol, ell, np.where(v & (mode == 0), d, np.where(v & (mode == d), 0, mode))

    return SiteMap("PBS", d, site_map)


def polarisation_rotator(theta: float, d: int) -> ElementOp:
    """Polarisation rotation by ``theta`` on every OAM value and mode.

    |H> -> cos(theta)|H> + sin(theta)|V>,
    |V> -> -sin(theta)|H> + cos(theta)|V>.
    """
    c, s = np.cos(theta), np.sin(theta)
    return Block(f"R({theta:.6g})", d, np.array([[c, -s], [s, c]]), 0, (POL_H, POL_V))


@_per_d
def oam_sorter(d: int, inverse: bool = False) -> ElementOp:
    """OAM-to-path demultiplexer (a controlled mode shift).

    Forward action on the pixel paths is |ell>_OAM |m> -> |ell>_OAM |m+ell mod d>,
    so a photon entering on path 0 is routed to the path matching its OAM
    value.  The reference mode d is untouched.  ``inverse=True`` multiplexes
    the paths back.
    """
    sign = -1 if inverse else 1

    def site_map(pol, ell, mode):
        return pol, ell, np.where(mode == d, mode, (mode + sign * ell) % d)

    name = "S^-1" if inverse else "S"
    return SiteMap(name, d, site_map)


@_per_d
def oam_converter(d: int, inverse: bool = False) -> ElementOp:
    """Path-controlled OAM shift bringing every pixel path to the Gaussian mode.

    Forward action on path m < d is |ell>_OAM -> |ell - m mod d>_OAM, so the
    sorted component on path ell is converted from |ell> to |0>.  The
    reference mode d is untouched.  ``inverse=True`` restores the OAM value.
    """
    sign = 1 if inverse else -1

    def site_map(pol, ell, mode):
        return pol, np.where(mode == d, ell, (ell + sign * mode) % d), mode

    name = "c^-1" if inverse else "c"
    return SiteMap(name, d, site_map)


def object_attenuator(pattern: "PixelPattern", placement: str) -> ElementOp:
    """The imaged object as an amplitude attenuator.

    ``placement="pixel-paths"`` puts the physical object across the encoder
    paths: the amplitude on path ell is multiplied by sqrt(T_ell) for any OAM
    value.  ``placement="oam-diagonal"`` is the composite encoder equivalent:
    the amplitude with OAM ell on arm 0 is multiplied by sqrt(T_ell).  Both
    leave the reference mode d untouched.
    """
    d = pattern.d
    roots = np.sqrt(np.asarray(pattern.transmissions, dtype=np.float64))
    if placement == "pixel-paths":
        def factor(pol, ell, mode):
            return np.where(mode < d, roots[np.minimum(mode, d - 1)], 1.0)
    elif placement == "oam-diagonal":
        def factor(pol, ell, mode):
            return np.where(mode == 0, roots[ell], 1.0)
    else:
        raise ValueError(f"unknown object placement {placement!r}")
    return Factor(f"object({placement})", d, factor)


@_per_d
def pockels_flip(d: int) -> ElementOp:
    """Switched-on Pockels cells: a 90 degree flip exchanging H and V."""

    def site_map(pol, ell, mode):
        return 1 - pol, ell, mode

    return SiteMap("P", d, site_map)


@_per_d
def mirror_reflect(mirror: str, d: int) -> ElementOp:
    """Mirror acting on the OAM index.

    A retro-reflector gives a double reflection and leaves |ell> unchanged;
    a plain mirror maps |ell> to |-ell mod d>.
    """
    if mirror == "retro":
        def site_map(pol, ell, mode):
            return pol, ell, mode
        return SiteMap("RR", d, site_map)
    if mirror == "plain":
        def site_map(pol, ell, mode):
            return pol, (d - ell) % d, mode
        return SiteMap("M", d, site_map)
    raise ValueError(f"unknown mirror kind {mirror!r}")


@_per_d
def arm_mirrors(d: int) -> ElementOp:
    """Mirror stage of the folded interferometer, both arms at once.

    Pixel paths 0..d-1 see a plain mirror (OAM sign flip; the converter has
    already brought them to |0>, where the flip is trivial) while the
    reference mode d sees a retro-reflector and is untouched.
    """

    def site_map(pol, ell, mode):
        return pol, np.where(mode == d, ell, (d - ell) % d), mode

    return SiteMap("arm mirrors", d, site_map)


# ---------------------------------------------------------------------------
# Pixel patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PixelPattern:
    """Per-pixel transmission of the imaged object.

    ``transmissions[ell]`` is the intensity transmission T_ell in [0, 1].
    The occupancy bit is derived: a pixel is opaque exactly when T_ell = 0,
    fully transparent when T_ell = 1, and semi-transparent in between (its
    occupancy bit is stored as 0).
    """

    transmissions: tuple[float, ...]

    def __post_init__(self) -> None:
        t = tuple(float(x) for x in self.transmissions)
        if len(t) == 0:
            raise ValueError("pattern must have at least one pixel")
        for ell, val in enumerate(t):
            if not (0.0 <= val <= 1.0):
                raise ValueError(f"transmission T_{ell}={val} outside [0, 1]")
        object.__setattr__(self, "transmissions", t)

    @classmethod
    def from_bits(cls, bits: str | Sequence[int]) -> "PixelPattern":
        """Pattern from occupancy bits, 1 = opaque, 0 = transparent.

        A bit is the character ``"0"`` or ``"1"`` or the integer 0 or 1;
        anything else, a float or another digit included, is refused.
        """
        transmissions = []
        for b in bits:
            if isinstance(b, str) and b in ("0", "1"):
                transmissions.append(0.0 if b == "1" else 1.0)
            elif isinstance(b, (int, np.integer)) and b in (0, 1):
                transmissions.append(0.0 if b else 1.0)
            else:
                raise ValueError(f"occupancy bits must be 0 or 1, got {bits!r}")
        return cls(tuple(transmissions))

    @classmethod
    def opaque(cls, d: int) -> "PixelPattern":
        return cls((0.0,) * d)

    @classmethod
    def transparent(cls, d: int) -> "PixelPattern":
        return cls((1.0,) * d)

    @property
    def d(self) -> int:
        return len(self.transmissions)

    @property
    def f(self) -> tuple[int, ...]:
        """Occupancy bits: 1 where the pixel is fully opaque."""
        return tuple(1 if t == 0.0 else 0 for t in self.transmissions)

    @property
    def n_abs(self) -> int:
        """Number of opaque pixels."""
        return sum(self.f)

    @property
    def is_binary(self) -> bool:
        return all(t in (0.0, 1.0) for t in self.transmissions)


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetectorMap:
    """Detector labels, and the rule that says which detector measures a basis state.

    ``detector`` maps (pol, ell, mode) label arrays to an array of the same
    shape: the position in ``labels`` of the detector measuring each basis
    state, or -1 where none does, so every basis state feeds at most one
    detector.
    """

    d: int
    labels: tuple[str, ...]
    detector: Callable[..., np.ndarray]

    def __post_init__(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate detector labels")
        object.__setattr__(self, "labels", tuple(self.labels))


@dataclass(frozen=True)
class DetectionDistribution:
    """Click probability per detector plus the total absorption probability."""

    probabilities: dict[str, float]
    p_abs: float

    def __post_init__(self) -> None:
        for label, p in self.probabilities.items():
            if not (-1e-9 <= p <= 1.0 + 1e-9):
                raise ValueError(f"probability for {label!r} out of range: {p}")
        total = self.total()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"distribution does not sum to 1: total={total!r}")

    def total(self) -> float:
        return float(sum(self.probabilities.values()) + self.p_abs)


def detection_distribution(
    state: PhotonState,
    detector_map: DetectorMap,
    rounding_budget: float,
    survival: float,
) -> DetectionDistribution:
    """Project a final state onto its detectors.

    Detector probabilities are the squared amplitude mass routed to each
    label, over the labels the state holds; the absorption probability is
    the norm deficit 1 - ``survival``, the squared norm of ``state`` as the
    run's trace summed it.  All probability mass must be covered, so
    amplitude on undetected basis states is an error.  ``rounding_budget``
    is the norm drift the evolution that produced ``state`` may have
    accumulated by rounding alone; a deficit within it reads as zero
    absorption, and the detector sums are then divided by the survival so
    that they add up to 1.  A deficit beyond the budget is kept.
    """
    d = state.d
    if d != detector_map.d:
        raise ValueError("state and detector map dimensions differ")
    weights = np.abs(state.amplitudes) ** 2
    detector = detector_map.detector(*np.unravel_index(state.labels, (2, d, d + 1)))
    assigned = detector >= 0
    unmapped = float(weights[~assigned].sum())
    if unmapped > 1e-9:
        raise ValueError(f"probability mass {unmapped} on undetected basis states")
    sums = np.bincount(detector[assigned], weights=weights[assigned],
                       minlength=len(detector_map.labels))
    if len(sums) > len(detector_map.labels):
        raise ValueError("detector map references an unknown label")
    p_abs = 1.0 - survival
    # Unitary evolution drifts the norm by a few ulp per element
    # application, which must not masquerade as absorption (or gain).
    if abs(p_abs) <= rounding_budget:
        p_abs = 0.0
        sums /= survival
    probabilities = {label: float(sums[i]) for i, label in enumerate(detector_map.labels)}
    return DetectionDistribution(probabilities, p_abs)
