"""Photon states and optical elements for interaction-free imaging.

The simulation space is the tensor product

    polarisation {H, V}  x  OAM {0, ..., d-1}  x  spatial mode {0, ..., d}

Spatial modes 0..d-1 are the pixel paths inside the path-to-OAM encoder and
mode d is the reference arm; outside the encoder only modes 0 and d carry
amplitude.  Absorption at the object is modeled by scaling amplitudes, so
states are sub-normalized: the squared norm of a state is its survival
probability and the deficit from one is the accumulated absorption
probability.

Every optical element is a linear map on the flattened amplitude vector,
held in an :class:`ElementOp`.  Each element acts on one axis of the
(2, d, d+1) state: an index map, a diagonal, or a 2x2 block.  It is stored
as that action in gather form, where every output amplitude is a sum of K
input amplitudes times coefficients, so applying it (:func:`gather`) costs
O(K D) rather than the O(D^2) of a dense matrix; :func:`compose` multiplies
gather forms and keeps K small.  A run's composed cycle then goes to
:func:`support_blocks`, which finds the amplitudes the input reaches and
returns the cycle on them as plain arrays in block gather form: on a
cycling scheme, one 2x2 block per pixel that is not opaque.
:func:`block_powers` squares that form block by block, with no merge of
terms.

What a run takes from d alone is built once per d and shared: the
elements fixed by d, the input state, and the gather index of the
rotator and of the attenuator, whose coefficients alone are built per
run.  Every shared array is read-only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

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


@dataclass(frozen=True)
class PhotonState:
    """Sub-normalized single-photon amplitude vector.

    ``amps`` has shape ``(2, d, d+1)`` indexed by (polarisation, OAM, mode).
    The squared norm is the survival probability, so it must not exceed 1.
    Instances are immutable; element applications return new states.
    """

    d: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"OAM dimension must be >= 1, got d={self.d}")
        a = np.array(self.amps, dtype=np.complex128)
        expected = (2, self.d, self.d + 1)
        if a.shape != expected:
            raise ValueError(f"amplitude array must have shape {expected}, got {a.shape}")
        n2 = float(np.vdot(a, a).real)
        if n2 > 1.0 + 1e-9:
            raise ValueError(f"state norm^2 = {n2} exceeds 1")
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    @classmethod
    def from_flat(cls, d: int, flat: np.ndarray) -> "PhotonState":
        return cls(d, np.asarray(flat, dtype=np.complex128).reshape(2, d, d + 1))

    @property
    def flat(self) -> np.ndarray:
        return self.amps.reshape(-1)

    @property
    def survival(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def amplitude(self, pol: int, ell: int, mode: int) -> complex:
        return complex(self.amps[pol, ell, mode])

    def overlap(self, other: "PhotonState") -> complex:
        if other.d != self.d:
            raise ValueError("states live on different spaces")
        return complex(np.vdot(self.amps, other.amps))

    def __repr__(self) -> str:  # noqa: D105 - compact display, arrays are noisy
        return f"PhotonState(d={self.d}, survival={self.survival:.6g})"


def basis_state(d: int, pol: int, ell: int, mode: int) -> PhotonState:
    """Unit basis state |pol, ell, mode>."""
    amps = np.zeros((2, d, d + 1), dtype=np.complex128)
    amps[pol, ell, mode] = 1.0
    return PhotonState(d, amps)


# Elements fixed by d alone are immutable, so each is built once per d and
# shared by every scheme that uses it; so are the input state and the gather
# index of the elements whose coefficients change from run to run.  Each
# cache holds the values of its last 16 arguments.
_per_d = functools.lru_cache(maxsize=16)


@_per_d
def make_initial_state(d: int, mode: int) -> PhotonState:
    """Input photon on spatial mode ``mode``: H-polarised, equal OAM superposition.

    The single-pass interferometers take it on mode 0, the cycling (Zeno)
    schemes on the reference mode d.  The state is immutable, so each one
    is built once and shared.
    """
    if d < 1:
        raise ValueError(f"pixel count must be >= 1, got d={d}")
    if not 0 <= mode <= d:
        raise ValueError(f"entry mode {mode} outside 0..{d}")
    amps = np.zeros((2, d, d + 1), dtype=np.complex128)
    amps[POL_H, :, mode] = 1.0 / np.sqrt(d)
    return PhotonState(d, amps)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class ElementOp:
    """A linear optical element in gather form.

    Amplitude ``i`` of the output is ``sum_k coeff[k, i] * input[index[k, i]]``
    over the flat vector of the D = 2d(d+1) amplitudes of ``d`` pixels, with
    ``index`` and ``coeff`` of shape (K, D).  Index maps and diagonals need
    one term per amplitude (``K = 1``), the 2x2 blocks two, so applying an
    element costs O(K D).  ``matrix`` is a read-only dense view, built on
    each access, for checks at small d.
    """

    label: str
    d: int
    index: np.ndarray
    coeff: np.ndarray

    def __post_init__(self) -> None:
        n = space_dim(self.d)
        # Read-only arrays are kept as given: the elements of one d share
        # their index, and a permutation one broadcast 1.0 instead of a
        # column of ones.
        index = np.asarray(self.index, dtype=np.intp)
        if index.flags.writeable:
            index = index.copy()
        coeff = np.asarray(self.coeff, dtype=np.complex128)
        if coeff.flags.writeable:
            coeff = coeff.copy()
        if index.ndim != 2 or index.shape[0] < 1 or index.shape[1] != n \
                or coeff.shape != index.shape:
            raise ValueError(f"gather form must be two (K, {n}) arrays for d={self.d}, "
                             f"got {index.shape} and {coeff.shape}")
        # A negative index reads as a large unsigned one.
        if index.view(np.uintp).max() >= n:
            raise ValueError(f"gather index outside the {n} basis states")
        index.setflags(write=False)
        coeff.setflags(write=False)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "coeff", coeff)

    @property
    def matrix(self) -> np.ndarray:
        """Dense matrix of the action, read-only."""
        n = space_dim(self.d)
        m = np.zeros((n, n), dtype=np.complex128)
        np.add.at(m, (np.broadcast_to(np.arange(n), self.index.shape), self.index), self.coeff)
        m.setflags(write=False)
        return m

    def apply_flat(self, vec: np.ndarray) -> np.ndarray:
        """Action on the last axis of ``vec``, one flat vector or a stack of
        them; returns a new array."""
        return gather(self.index, self.coeff, vec)

    def apply(self, state: PhotonState) -> PhotonState:
        if state.d != self.d:
            raise ValueError(f"element for d={self.d} applied to state with d={state.d}")
        return PhotonState.from_flat(state.d, self.apply_flat(state.flat))

    def __repr__(self) -> str:  # noqa: D105
        return f"ElementOp({self.label!r}, d={self.d})"


def gather(index: np.ndarray, coeff: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """The gather form (``index``, ``coeff``) applied to the last axis of ``vec``."""
    return (coeff * vec[..., index]).sum(axis=-2)


def _merge_terms(index: np.ndarray, coeff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum the terms of each output amplitude that gather the same source."""
    cols = np.arange(index.shape[1])
    order = np.argsort(index, axis=0, kind="stable")
    index, coeff = index[order, cols], coeff[order, cols]
    new_source = np.empty(index.shape, dtype=bool)
    new_source[0] = True
    new_source[1:] = index[1:] != index[:-1]
    slot = new_source.cumsum(axis=0) - 1
    width = int(slot[-1].max()) + 1
    # Padding terms gather the first source with a zero coefficient.
    merged_index = np.repeat(index[:1], width, axis=0)
    merged_coeff = np.zeros((width, index.shape[1]), dtype=coeff.dtype)
    merged_index[slot, cols] = index
    # Row by row, each output amplitude adds its terms in the sorted order,
    # and no row writes one slot twice.
    for row_slot, row_coeff in zip(slot, coeff):
        merged_coeff[row_slot, cols] += row_coeff
    return merged_index, merged_coeff


def _then(index: np.ndarray, coeff: np.ndarray, next_index: np.ndarray,
          next_coeff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gather form of (index, coeff) followed by (next_index, next_coeff).

    Substitutes the first form into the second; when that multiplies the
    term count K, terms that read the same source amplitude are merged.
    """
    # K multiplies only when both forms have several terms.
    grows = len(index) > 1 and len(next_index) > 1
    n = index.shape[1]
    index = index[:, next_index].reshape(-1, n)
    coeff = (coeff[:, next_index] * next_coeff).reshape(-1, n)
    return _merge_terms(index, coeff) if grows else (index, coeff)


def compose(ops: Sequence[ElementOp], label: str | None = None) -> ElementOp:
    """Single element equivalent to applying ``ops`` in list order.

    Each step substitutes the running product into the next element's gather
    form (``_then``), so a product of index maps, diagonals and 2x2 blocks
    on one pair keeps ``K <= 2``.
    """
    if not ops:
        raise ValueError("cannot compose an empty element sequence")
    d = ops[0].d
    if any(op.d != d for op in ops):
        raise ValueError("cannot compose elements built for different d")
    index, coeff = ops[0].index, ops[0].coeff
    for op in ops[1:]:
        index, coeff = _then(index, coeff, op.index, op.coeff)
    if label is None:
        label = " > ".join(op.label for op in ops)
    return ElementOp(label, d, index, coeff)


def support_blocks(cycle: ElementOp, vec: np.ndarray, steps: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The amplitudes ``vec`` reaches under ``cycle``, and ``cycle`` on them by blocks.

    Returns the sorted positions ``support`` of the amplitudes that ``vec``
    holds or that ``steps`` applications of ``cycle`` can make non-zero (an
    amplitude is reached when one of its terms reads a reached amplitude
    with a non-zero coefficient; the closure stops early when a step
    reaches nothing new), and the gather form (``index``, ``coeff``) of
    ``cycle`` on ``vec[support]``.

    A block is a set of amplitudes of the support that terms with non-zero
    coefficients connect, so every power of the cycle maps each block into
    itself: on a cycling scheme, one 2x2 block per pixel that is not opaque
    and a 1x1 block per opaque one.  With b the size of the largest block,
    term k of every amplitude reads the k-th amplitude of its block, in
    increasing order; a smaller block repeats its first amplitude, with a
    zero coefficient.
    """
    live = vec != 0
    links = [(index, coeff != 0) for index, coeff in zip(cycle.index, cycle.coeff)]
    for _ in range(min(steps, len(vec))):
        grown = live.copy()
        for index, feeds in links:
            grown |= live[index] & feeds
        if np.array_equal(grown, live):
            break
        live = grown
    support = np.flatnonzero(live)
    n = len(support)
    # The cycle's terms on the support; a term that reads outside it reads
    # the support's first amplitude, with a zero coefficient.
    rank = np.full(len(vec), -1, dtype=np.intp)
    rank[support] = np.arange(n)
    sources = rank[cycle.index[:, support]]
    outside = sources < 0
    sources[outside] = 0
    terms = np.where(outside, 0.0, cycle.coeff[:, support])
    connected = terms != 0
    reader, source = np.nonzero(connected)[1], sources[connected]
    ends, other_ends = np.concatenate((reader, source)), np.concatenate((source, reader))
    # Each amplitude's root, the smallest amplitude of its block: the least
    # root at either end of a connection, until both ends of each agree.
    root = np.arange(n)
    while True:
        low = root.copy()
        np.minimum.at(low, ends, root[other_ends])
        root = low[low]
        if (root[ends] == root[other_ends]).all():
            break
    # Blocks are numbered by root; within one, amplitudes by index.
    order = np.argsort(root, kind="stable")
    grouped = root[order]
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n) - np.searchsorted(grouped, grouped)
    columns = np.arange(n)
    members = np.repeat(columns[:, None], position.max() + 1, axis=1)
    members[root, position] = columns
    index = _read_only(np.ascontiguousarray(members[root].T))
    coeff = np.zeros(index.shape, dtype=np.complex128)
    # A term that reads outside the block has a zero coefficient, so adding
    # it at the slot of its source's position leaves every value as it is.
    for source, term in zip(sources, terms):
        coeff[position[source], columns] += term
    return support, index, _read_only(coeff)


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
        # ``_then`` multiplies in that order, so each square equals the
        # merged product of the form with itself.
        wide = (wide[:, index] * wide).sum(axis=1)
        powers.append(_read_only(wide.astype(np.complex128)))
    return powers


def permutation_op(
    d: int,
    site_map: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple],
    label: str,
) -> ElementOp:
    """Unitary element that permutes basis states via ``site_map``.

    ``site_map`` maps the (pol, ell, mode) label arrays of all basis states,
    of shape (2, d, d+1), to their images (arrays broadcasting to that
    shape); it must be a bijection on the basis.
    """
    n = space_dim(d)
    shape = (2, d, d + 1)
    try:
        dst = np.ravel_multi_index(np.broadcast_arrays(*site_map(*np.indices(shape))), shape)
    except ValueError as exc:
        raise ValueError(f"{label}: site map leaves the basis") from exc
    dst = dst.ravel()
    hits = np.bincount(dst, minlength=n)
    if hits.max() > 1:
        raise ValueError(f"{label}: site map is not a bijection "
                         f"(target {int(hits.argmax())} hit twice)")
    index = np.empty(n, dtype=np.intp)
    index[dst] = np.arange(n)
    return ElementOp(label, d, index[None], np.broadcast_to(np.complex128(1.0), (1, n)))


def diagonal_op(d: int, factors: np.ndarray, label: str) -> ElementOp:
    """Element that multiplies each basis amplitude by a fixed factor."""
    factors = np.asarray(factors, dtype=np.complex128).reshape(1, -1)
    return ElementOp(label, d, _diagonal_index(d), factors)


def block_op(d: int, block: np.ndarray, first: np.ndarray, second: np.ndarray,
             label: str) -> ElementOp:
    """Unitary element applying the 2x2 ``block`` to each amplitude pair.

    Pair j is (``first[j]``, ``second[j]``) in flat indices; the block maps
    the pair's amplitudes (a, b) to (b00 a + b01 b, b10 a + b11 b).
    Amplitudes outside every pair pass unchanged.
    """
    n = space_dim(d)
    index = np.tile(np.arange(n), (2, 1))
    coeff = np.zeros((2, n), dtype=np.complex128)
    coeff[0] = 1.0
    for sites, row in ((first, block[0]), (second, block[1])):
        index[:, sites] = first, second
        coeff[:, sites] = row[:, None]
    return ElementOp(label, d, index, coeff)


def _sites(d: int) -> np.ndarray:
    """Flat index of every basis state, shaped (2, d, d+1) like the amplitudes."""
    return np.arange(space_dim(d)).reshape(2, d, d + 1)


# ---------------------------------------------------------------------------
# Element constructors
# ---------------------------------------------------------------------------

@_per_d
def _diagonal_index(d: int) -> np.ndarray:
    """Gather index of a diagonal: every amplitude reads itself."""
    return _read_only(np.arange(space_dim(d))[None])


@_per_d
def _hv_pair_index(d: int) -> np.ndarray:
    """Gather index of a 2x2 block on every (H, V) pair of amplitudes.

    The H amplitudes fill the first half of the flat vector and the V
    amplitudes the second, so amplitude i of either half reads amplitude i
    of each half.
    """
    return _read_only(np.tile(np.arange(space_dim(d)).reshape(2, -1), 2))


@_per_d
def beam_splitter(d: int) -> ElementOp:
    """Balanced beam splitter coupling spatial modes 0 and d.

    The real Hadamard, |0> -> (|0> + |d>)/sqrt(2) and
    |d> -> (|0> - |d>)/sqrt(2), so a transparent object interferes
    constructively on mode 0.  Modes 1..d-1 are untouched.
    """
    r = 1.0 / np.sqrt(2.0)
    block = np.array([[r, r], [r, -r]], dtype=np.complex128)
    sites = _sites(d)
    return block_op(d, block, sites[..., 0].ravel(), sites[..., d].ravel(), "BS")


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

    return permutation_op(d, site_map, "PBS")


def polarisation_rotator(theta: float, d: int) -> ElementOp:
    """Polarisation rotation by ``theta`` on every OAM value and mode.

    |H> -> cos(theta)|H> + sin(theta)|V>,
    |V> -> -sin(theta)|H> + cos(theta)|V>.
    """
    c, s = np.cos(theta), np.sin(theta)
    block = np.array([[c, -s], [s, c]], dtype=np.complex128)
    # Term k of an H amplitude reads it (k = 0) or its V partner (k = 1)
    # with block[0, k]; term k of a V amplitude does with block[1, k].
    coeff = np.repeat(block.T, space_dim(d) // 2, axis=1)
    return ElementOp(f"R({theta:.6g})", d, _hv_pair_index(d), coeff)


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
    return permutation_op(d, site_map, name)


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
    return permutation_op(d, site_map, name)


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
    factors = np.ones((2, d, d + 1), dtype=np.complex128)
    if placement == "pixel-paths":
        factors[:, :, :d] = roots
    elif placement == "oam-diagonal":
        factors[:, :, 0] = roots
    else:
        raise ValueError(f"unknown object placement {placement!r}")
    return diagonal_op(d, factors, f"object({placement})")


@_per_d
def pockels_flip(d: int) -> ElementOp:
    """Switched-on Pockels cells: a 90 degree flip exchanging H and V."""

    def site_map(pol, ell, mode):
        return 1 - pol, ell, mode

    return permutation_op(d, site_map, "P")


@_per_d
def mirror_reflect(mirror: str, d: int) -> ElementOp:
    """Mirror acting on the OAM index.

    A retro-reflector gives a double reflection and leaves |ell> unchanged;
    a plain mirror maps |ell> to |-ell mod d>.
    """
    if mirror == "retro":
        def site_map(pol, ell, mode):
            return pol, ell, mode
        return permutation_op(d, site_map, "RR")
    if mirror == "plain":
        def site_map(pol, ell, mode):
            return pol, (d - ell) % d, mode
        return permutation_op(d, site_map, "M")
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

    return permutation_op(d, site_map, "arm mirrors")


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
        """Pattern from occupancy bits, 1 = opaque, 0 = transparent."""
        values = [int(b) for b in bits]
        if any(b not in (0, 1) for b in values):
            raise ValueError(f"occupancy bits must be 0 or 1, got {bits!r}")
        return cls(tuple(0.0 if b else 1.0 for b in values))

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
    """Assignment of basis states to detector labels.

    ``assignment[i]`` is the position of the detector label measuring flat
    basis index ``i``, or -1 if that basis state is undetected.  Every basis
    state may feed at most one detector.
    """

    d: int
    labels: tuple[str, ...]
    assignment: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.assignment, dtype=np.int64)
        if a.shape != (space_dim(self.d),):
            raise ValueError("assignment must cover the full basis")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate detector labels")
        if a.max(initial=-1) >= len(self.labels):
            raise ValueError("assignment references an unknown label")
        a.setflags(write=False)
        object.__setattr__(self, "assignment", a)
        object.__setattr__(self, "labels", tuple(self.labels))

    @classmethod
    def from_groups(
        cls,
        d: int,
        groups: Mapping[str, Iterable[tuple[int, int, int]]],
    ) -> "DetectorMap":
        """Build a map from ``{label: [(pol, ell, mode), ...]}`` groups.

        Raises if any basis state is claimed by two detectors.
        """
        labels = tuple(groups.keys())
        assignment = np.full(space_dim(d), -1, dtype=np.int64)
        for pos, label in enumerate(labels):
            for pol, ell, mode in groups[label]:
                idx = basis_index(d, pol, ell, mode)
                if assignment[idx] != -1:
                    other = labels[assignment[idx]]
                    raise ValueError(
                        f"basis state (pol={pol}, ell={ell}, mode={mode}) mapped to "
                        f"both {other!r} and {label!r}"
                    )
                assignment[idx] = pos
        return cls(d, labels, assignment)


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

    def get(self, label: str) -> float:
        return self.probabilities[label]


def detection_distribution(
    state: PhotonState,
    detector_map: DetectorMap,
    rounding_budget: float = 0.0,
) -> DetectionDistribution:
    """Project a final state onto the detector basis.

    Detector probabilities are the squared amplitude mass routed to each
    label; the absorption probability is the state's norm deficit.  All
    probability mass must be covered, so amplitude on undetected basis
    states is an error.  ``rounding_budget`` is the norm drift the evolution
    that produced ``state`` may have accumulated by rounding alone; a
    deficit within it reads as zero absorption, and the detector sums are
    then divided by the survival so that they add up to 1.  A deficit
    beyond the budget is kept.
    """
    if state.d != detector_map.d:
        raise ValueError("state and detector map dimensions differ")
    weights = np.abs(state.flat) ** 2
    assigned = detector_map.assignment >= 0
    unmapped = float(weights[~assigned].sum())
    if unmapped > 1e-9:
        raise ValueError(f"probability mass {unmapped} on undetected basis states")
    sums = np.bincount(
        detector_map.assignment[assigned],
        weights=weights[assigned],
        minlength=len(detector_map.labels),
    )
    survival = float(weights.sum())
    p_abs = 1.0 - survival
    # Unitary evolution drifts the norm by a few ulp per element
    # application, which must not masquerade as absorption (or gain).
    if abs(p_abs) <= rounding_budget:
        p_abs = 0.0
        sums /= survival
    probabilities = {label: float(sums[i]) for i, label in enumerate(detector_map.labels)}
    return DetectionDistribution(probabilities, p_abs)
