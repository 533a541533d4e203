"""Element-level tests: actions, inverses, norm behaviour, detection."""

import itertools
import math

import numpy as np
import pytest

from ifmsim import core, schemes
from ifmsim.core import (
    POL_H,
    POL_V,
    DetectionDistribution,
    DetectorMap,
    PhotonState,
    PixelPattern,
    basis_index,
    basis_state,
    make_initial_state,
    space_dim,
)
from ifmsim.schemes import KINDS


def random_state(rng, d, normalized=True):
    v = rng.normal(size=space_dim(d)) + 1j * rng.normal(size=space_dim(d))
    if normalized:
        v /= np.linalg.norm(v)
    return PhotonState.from_flat(d, v)


def all_unitaries(d, theta=0.3):
    return [
        core.beam_splitter(d),
        core.polarising_beam_splitter(d),
        core.polarisation_rotator(theta, d),
        core.oam_sorter(d),
        core.oam_sorter(d, inverse=True),
        core.oam_converter(d),
        core.oam_converter(d, inverse=True),
        core.pockels_flip(d),
        core.mirror_reflect("retro", d),
        core.mirror_reflect("plain", d),
        core.arm_mirrors(d),
    ]


class TestInitialState:
    def test_single_pixel_zeno_input(self):
        state = make_initial_state(1, 1)
        assert state.amplitude(POL_H, 0, 1) == 1.0
        assert np.count_nonzero(state.amps) == 1

    def test_multipixel_zeno_input(self):
        state = make_initial_state(4, 4)
        for ell in range(4):
            assert state.amplitude(POL_H, ell, 4) == pytest.approx(0.5, abs=0)
        assert state.survival == pytest.approx(1.0, abs=1e-15)

    def test_single_pass_input(self):
        state = make_initial_state(2, 0)
        expected = 1.0 / math.sqrt(2.0)
        for ell in range(2):
            assert state.amplitude(POL_H, ell, 0) == pytest.approx(expected, abs=1e-15)
        assert state.survival == pytest.approx(1.0, abs=1e-15)

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            make_initial_state(0, 0)

    def test_rejects_mode_outside_the_space(self):
        with pytest.raises(ValueError):
            make_initial_state(2, 3)


class TestBeamSplitter:
    def test_splits_input_mode(self):
        d = 1
        bs = core.beam_splitter(d)
        out = bs.apply(basis_state(d, POL_H, 0, 0))
        r = 1.0 / math.sqrt(2.0)
        assert out.amplitude(POL_H, 0, 0) == pytest.approx(r, abs=1e-15)
        assert out.amplitude(POL_H, 0, 1) == pytest.approx(r, abs=1e-15)

    def test_is_an_involution(self):
        d = 3
        bs = core.beam_splitter(d)
        state = basis_state(d, POL_H, 0, 0)
        back = bs.apply(bs.apply(state))
        assert np.allclose(back.amps, state.amps, atol=1e-15)

    def test_norm_preserved_on_random_states(self):
        rng = np.random.default_rng(2)
        for d in (1, 2, 5):
            bs = core.beam_splitter(d)
            for _ in range(10):
                state = random_state(rng, d)
                assert abs(bs.apply(state).survival - 1.0) <= 1e-12

    def test_inner_modes_untouched(self):
        d = 4
        bs = core.beam_splitter(d)
        state = basis_state(d, POL_V, 2, 2)
        assert np.array_equal(bs.apply(state).amps, state.amps)


class TestPolarisingBeamSplitter:
    def test_routes_v_to_object_arm(self):
        d = 3
        pbs = core.polarising_beam_splitter(d)
        out = pbs.apply(basis_state(d, POL_V, 1, d))
        assert out.amplitude(POL_V, 1, 0) == 1.0

    def test_h_passes_through(self):
        d = 3
        pbs = core.polarising_beam_splitter(d)
        state = basis_state(d, POL_H, 2, d)
        assert np.array_equal(pbs.apply(state).amps, state.amps)

    def test_double_application_is_identity(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 4):
            pbs = core.polarising_beam_splitter(d)
            state = random_state(rng, d)
            back = pbs.apply(pbs.apply(state))
            assert np.array_equal(back.amps, state.amps)


class TestPolarisationRotator:
    def test_zero_angle_is_identity(self):
        rot = core.polarisation_rotator(0.0, 2)
        assert np.allclose(rot.matrix, np.eye(space_dim(2)), atol=0)

    def test_quarter_turn_flips_h_to_v(self):
        d = 2
        rot = core.polarisation_rotator(np.pi / 2, d)
        out = rot.apply(basis_state(d, POL_H, 1, 0))
        assert out.amplitude(POL_V, 1, 0) == pytest.approx(1.0, abs=1e-15)
        assert abs(out.amplitude(POL_H, 1, 0)) <= 1e-15

    def test_rotations_compose_additively(self):
        d = 1
        n = 7
        small = core.polarisation_rotator(np.pi / (2 * n), d)
        combined = core.compose([small] * n)
        full = core.polarisation_rotator(np.pi / 2, d)
        assert np.max(np.abs(combined.matrix - full.matrix)) <= 1e-12


class TestSorterAndConverter:
    def test_sorter_demultiplexes(self):
        d = 3
        out = core.oam_sorter(d).apply(basis_state(d, POL_H, 2, 0))
        assert out.amplitude(POL_H, 2, 2) == 1.0

    def test_sorter_leaves_reference_arm(self):
        d = 3
        state = basis_state(d, POL_H, 2, d)
        assert np.array_equal(core.oam_sorter(d).apply(state).amps, state.amps)

    def test_sorter_inverse_roundtrip(self):
        rng = np.random.default_rng(4)
        for d in (2, 3, 5):
            s, sinv = core.oam_sorter(d), core.oam_sorter(d, inverse=True)
            state = random_state(rng, d)
            assert np.array_equal(sinv.apply(s.apply(state)).amps, state.amps)

    def test_converter_resets_oam_on_matching_path(self):
        d = 4
        out = core.oam_converter(d).apply(basis_state(d, POL_H, 3, 3))
        assert out.amplitude(POL_H, 0, 3) == 1.0

    def test_converter_fixes_zero_oam_on_path_zero(self):
        d = 4
        state = basis_state(d, POL_H, 0, 0)
        assert np.array_equal(core.oam_converter(d).apply(state).amps, state.amps)

    def test_converter_inverse_roundtrip(self):
        rng = np.random.default_rng(5)
        for d in (2, 4):
            c, cinv = core.oam_converter(d), core.oam_converter(d, inverse=True)
            state = random_state(rng, d)
            assert np.array_equal(cinv.apply(c.apply(state)).amps, state.amps)


class TestSwapEquivalence:
    def test_sorter_then_converter_swaps_oam_and_path(self):
        # On input path 0 the composite must send |ell>_OAM |0> to
        # |0>_OAM |ell>, i.e. act as a literal OAM/path swap there.
        for d in range(1, 7):
            composite = core.oam_converter(d).matrix @ core.oam_sorter(d).matrix
            for pol in (POL_H, POL_V):
                actual = composite[:, [basis_index(d, pol, ell, 0) for ell in range(d)]]
                target = np.zeros_like(actual)
                for ell in range(d):
                    target[basis_index(d, pol, 0, ell), ell] = 1.0
                assert np.linalg.norm(actual - target, 2) <= 1e-12


class TestObjectAttenuator:
    def test_fully_transparent_is_identity(self):
        d = 3
        op = core.object_attenuator(PixelPattern.transparent(d), "pixel-paths")
        assert np.allclose(op.matrix, np.eye(space_dim(d)), atol=0)

    def test_opaque_pixel_absorbs_equal_superposition_share(self):
        # Equal superposition over the 2d states |ell>|ell> and |ell>|d>;
        # blocking n_abs pixel paths removes exactly n_abs/2d of the mass.
        d, n_abs = 5, 2
        pattern = PixelPattern.from_bits([1, 1, 0, 0, 0])
        amps = np.zeros((2, d, d + 1), dtype=complex)
        for ell in range(d):
            amps[POL_H, ell, ell] = 1.0 / math.sqrt(2 * d)
            amps[POL_H, ell, d] = 1.0 / math.sqrt(2 * d)
        state = PhotonState(d, amps)
        out = core.object_attenuator(pattern, "pixel-paths").apply(state)
        assert 1.0 - out.survival == pytest.approx(n_abs / (2 * d), abs=1e-15)

    def test_semitransparent_scales_amplitude(self):
        d = 1
        op = core.object_attenuator(PixelPattern((0.25,)), "pixel-paths")
        out = op.apply(basis_state(d, POL_V, 0, 0))
        assert out.amplitude(POL_V, 0, 0) == pytest.approx(0.5, abs=1e-15)

    def test_rejects_out_of_range_transmission(self):
        with pytest.raises(ValueError):
            PixelPattern((1.5,))
        with pytest.raises(ValueError):
            PixelPattern((-0.1, 0.5))

    def test_rejects_unknown_placement(self):
        with pytest.raises(ValueError):
            core.object_attenuator(PixelPattern.opaque(2), "everywhere")

    def test_contraction_on_random_states(self):
        rng = np.random.default_rng(6)
        for placement in ("pixel-paths", "oam-diagonal"):
            for _ in range(20):
                d = int(rng.integers(1, 6))
                op = core.object_attenuator(PixelPattern(tuple(rng.random(d))), placement)
                state = random_state(rng, d)
                assert op.apply(state).survival <= state.survival + 1e-12


class TestPockelsAndMirrors:
    def test_pockels_flips_polarisation(self):
        d = 3
        out = core.pockels_flip(d).apply(basis_state(d, POL_H, 1, 0))
        assert out.amplitude(POL_V, 1, 0) == 1.0

    def test_pockels_twice_is_identity(self):
        rng = np.random.default_rng(7)
        p = core.pockels_flip(2)
        state = random_state(rng, 2)
        assert np.array_equal(p.apply(p.apply(state)).amps, state.amps)

    def test_pockels_preserves_norm(self):
        rng = np.random.default_rng(8)
        p = core.pockels_flip(3)
        state = random_state(rng, 3)
        assert abs(p.apply(state).survival - 1.0) <= 1e-12

    def test_retro_mirror_keeps_oam(self):
        d = 4
        state = basis_state(d, POL_H, 2, 0)
        assert np.array_equal(core.mirror_reflect("retro", d).apply(state).amps, state.amps)

    def test_plain_mirror_fixes_zero_oam(self):
        d = 4
        state = basis_state(d, POL_H, 0, 0)
        assert np.array_equal(core.mirror_reflect("plain", d).apply(state).amps, state.amps)

    def test_plain_mirror_negates_oam_index(self):
        d = 5
        out = core.mirror_reflect("plain", d).apply(basis_state(d, POL_H, 2, 0))
        assert out.amplitude(POL_H, 3, 0) == 1.0

    def test_plain_mirror_twice_is_identity(self):
        rng = np.random.default_rng(9)
        m = core.mirror_reflect("plain", 5)
        state = random_state(rng, 5)
        assert np.array_equal(m.apply(m.apply(state)).amps, state.amps)


class TestNormProperties:
    def test_every_unitary_preserves_norm(self):
        rng = np.random.default_rng(10)
        for d in (1, 2, 3, 6):
            ops = all_unitaries(d)
            for _ in range(max(1, 100 // len(ops))):
                state = random_state(rng, d)
                for op in ops:
                    assert abs(op.apply(state).survival - state.survival) <= 1e-12

    def test_state_rejects_norm_above_one(self):
        amps = np.zeros((2, 1, 2), dtype=complex)
        amps[0, 0, 0] = 1.2
        with pytest.raises(ValueError):
            PhotonState(1, amps)

    def test_survival_of_fresh_state(self):
        state = make_initial_state(3, 3)
        assert state.survival == pytest.approx(1.0, abs=1e-15)

    def test_survival_after_object_contact(self):
        # Balanced two-arm split, then a fully opaque single pixel: half of
        # the probability mass is absorbed.
        d = 1
        state = core.beam_splitter(d).apply(make_initial_state(d, 0))
        out = core.object_attenuator(PixelPattern.opaque(1), "pixel-paths").apply(state)
        assert out.survival == pytest.approx(0.5, abs=1e-12)

    def test_survival_after_repeated_interrogation(self):
        # Manual cycling with core elements only: rotate, sort polarisations,
        # block the object arm, merge. Survival after N cycles is
        # cos(theta)^2N.
        d, n = 1, 6
        theta = np.pi / (2 * n)
        rot = core.polarisation_rotator(theta, d)
        pbs = core.polarising_beam_splitter(d)
        obj = core.object_attenuator(PixelPattern.opaque(1), "pixel-paths")
        state = make_initial_state(d, d)
        for _ in range(n):
            for op in (rot, pbs, obj, pbs):
                state = op.apply(state)
        assert state.survival == pytest.approx(math.cos(theta) ** (2 * n), abs=1e-12)


class TestDetection:
    def test_complete_map_sums_to_one(self):
        rng = np.random.default_rng(11)
        d = 3
        groups = {
            "A": [(p, ell, m) for p in (0, 1) for ell in range(d) for m in range(2)],
            "B": [(p, ell, m) for p in (0, 1) for ell in range(d) for m in range(2, d + 1)],
        }
        dmap = DetectorMap.from_groups(d, groups)
        # scale below unit norm so the deficit reads as absorption
        state = PhotonState(d, random_state(rng, d).amps * 0.7)
        dist = core.detection_distribution(state, dmap)
        assert abs(dist.total() - 1.0) <= 1e-12

    def test_double_assignment_rejected(self):
        with pytest.raises(ValueError, match="mapped to both"):
            DetectorMap.from_groups(1, {"A": [(0, 0, 0)], "B": [(0, 0, 0)]})

    def test_unmapped_mass_rejected(self):
        d = 1
        dmap = DetectorMap.from_groups(d, {"A": [(POL_H, 0, 0)]})
        state = basis_state(d, POL_V, 0, 1)
        with pytest.raises(ValueError, match="undetected"):
            core.detection_distribution(state, dmap)

    def test_rounding_budget_zeroes_only_deficits_within_it(self):
        d = 1
        dmap = DetectorMap.from_groups(d, {"A": [(POL_H, 0, 0)], "B": [(POL_V, 0, 0)]})
        state = PhotonState(d, basis_state(d, POL_H, 0, 0).amps * math.sqrt(1.0 - 1e-12))
        assert core.detection_distribution(state, dmap, rounding_budget=2e-12).p_abs == 0.0
        kept = core.detection_distribution(state, dmap, rounding_budget=5e-13).p_abs
        assert kept == pytest.approx(1e-12, rel=1e-3)

    def test_distribution_total_validated(self):
        with pytest.raises(ValueError):
            DetectionDistribution({"A": 0.5}, 0.1)


class TestPixelPattern:
    def test_occupancy_matches_transmission(self):
        pattern = PixelPattern((0.0, 1.0, 0.5))
        assert pattern.f == (1, 0, 0)
        assert pattern.n_abs == 1
        assert not pattern.is_binary

    def test_from_bits(self):
        pattern = PixelPattern.from_bits("1010")
        assert pattern.transmissions == (0.0, 1.0, 0.0, 1.0)
        assert pattern.n_abs == 2
        assert pattern.is_binary

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PixelPattern(())


# ---------------------------------------------------------------------------
# Dense references: the matrix builders the engine used before the gather
# form.  Permutations go through a scalar site map and a Python loop, blocks
# through np.kron, diagonals through per-amplitude loops.
# ---------------------------------------------------------------------------

def dense_permutation(d, site_map):
    n = space_dim(d)
    matrix = np.zeros((n, n), dtype=np.complex128)
    for pol in (POL_H, POL_V):
        for ell in range(d):
            for mode in range(d + 1):
                src = basis_index(d, pol, ell, mode)
                matrix[basis_index(d, *site_map(pol, ell, mode)), src] = 1.0
    return matrix


def dense_beam_splitter(d):
    r = 1.0 / np.sqrt(2.0)
    block = [[r, r], [r, -r]]
    sub = np.eye(d + 1, dtype=np.complex128)
    sub[0, 0], sub[0, d], sub[d, 0], sub[d, d] = block[0][0], block[0][1], block[1][0], block[1][1]
    return np.kron(np.eye(2 * d, dtype=np.complex128), sub)


def dense_rotator(theta, d):
    c, s = np.cos(theta), np.sin(theta)
    block = np.array([[c, -s], [s, c]], dtype=np.complex128)
    return np.kron(block, np.eye(d * (d + 1), dtype=np.complex128))


def dense_object(pattern, placement):
    d = pattern.d
    roots = np.sqrt(np.asarray(pattern.transmissions, dtype=np.float64))
    factors = np.ones(space_dim(d), dtype=np.complex128)
    for pol in (POL_H, POL_V):
        for ell in range(d):
            if placement == "pixel-paths":
                for mode in range(d):
                    factors[basis_index(d, pol, ell, mode)] = roots[mode]
            else:
                factors[basis_index(d, pol, ell, 0)] = roots[ell]
    return np.diag(factors)


def scalar_site_maps(d):
    """(constructor, scalar site map) for every index-map element."""
    def pbs(p, e, m):
        if p == POL_V and m in (0, d):
            return p, e, d - m
        return p, e, m

    def shift_mode(sign):
        return lambda p, e, m: (p, e, m) if m == d else (p, e, (m + sign * e) % d)

    def shift_oam(sign):
        return lambda p, e, m: (p, e, m) if m == d else (p, (e + sign * m) % d, m)

    return [
        (lambda: core.polarising_beam_splitter(d), pbs),
        (lambda: core.oam_sorter(d), shift_mode(1)),
        (lambda: core.oam_sorter(d, inverse=True), shift_mode(-1)),
        (lambda: core.oam_converter(d), shift_oam(-1)),
        (lambda: core.oam_converter(d, inverse=True), shift_oam(1)),
        (lambda: core.pockels_flip(d), lambda p, e, m: (1 - p, e, m)),
        (lambda: core.mirror_reflect("retro", d), lambda p, e, m: (p, e, m)),
        (lambda: core.mirror_reflect("plain", d), lambda p, e, m: (p, (d - e) % d, m)),
        (lambda: core.arm_mirrors(d), lambda p, e, m: (p, e, m) if m == d else (p, (d - e) % d, m)),
    ]


class TestGatherFormAgainstDenseReference:
    def test_index_maps_are_bit_exact(self):
        rng = np.random.default_rng(20)
        for d in range(1, 7):
            v = random_state(rng, d).flat
            for build, site_map in scalar_site_maps(d):
                op = build()
                reference = dense_permutation(d, site_map)
                assert op.index.shape[0] == 1
                assert np.array_equal(op.matrix, reference)
                assert np.array_equal(op.apply_flat(v), reference @ v)

    def test_diagonals_are_bit_exact(self):
        rng = np.random.default_rng(21)
        for d in range(1, 7):
            v = random_state(rng, d).flat
            pattern = PixelPattern(tuple(rng.random(d)))
            for placement in ("pixel-paths", "oam-diagonal"):
                op = core.object_attenuator(pattern, placement)
                reference = dense_object(pattern, placement)
                assert op.index.shape[0] == 1
                assert np.array_equal(op.matrix, reference)
                assert np.array_equal(op.apply_flat(v), reference @ v)

    def test_blocks_match_within_rounding(self):
        rng = np.random.default_rng(22)
        for d in range(1, 7):
            v = random_state(rng, d).flat
            theta = float(rng.uniform(0.0, np.pi / 2))
            cases = [
                (core.beam_splitter(d), dense_beam_splitter(d)),
                (core.polarisation_rotator(theta, d), dense_rotator(theta, d)),
            ]
            for op, reference in cases:
                assert op.index.shape[0] == 2
                assert np.array_equal(op.matrix, reference)
                assert np.max(np.abs(op.apply_flat(v) - reference @ v)) <= 1e-15

    def test_gather_form_of_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="must be two"):
            core.ElementOp("bad", 1, np.zeros((1, 3), dtype=int), np.ones((1, 3)))
        with pytest.raises(ValueError, match="outside the 4 basis states"):
            core.ElementOp("bad", 1, np.full((1, 4), 4), np.ones((1, 4)))

    def test_matrix_view_is_read_only(self):
        m = core.pockels_flip(2).matrix
        with pytest.raises(ValueError):
            m[0, 0] = 2.0


class TestPermutationOp:
    def test_non_bijective_site_map_rejected(self):
        with pytest.raises(ValueError, match="not a bijection"):
            core.permutation_op(2, lambda pol, ell, mode: (pol, ell * 0, mode), "collapse")

    def test_site_map_leaving_the_basis_rejected(self):
        with pytest.raises(ValueError, match="leaves the basis"):
            core.permutation_op(2, lambda pol, ell, mode: (pol, ell + 1, mode), "overflow")


def zeno_cycle(d, theta, transmissions):
    """The unfolded cycle's elements, as ``schemes`` builds them."""
    pattern = PixelPattern(tuple(transmissions))
    return [core.polarisation_rotator(theta, d), core.polarising_beam_splitter(d),
            core.oam_sorter(d), core.oam_converter(d),
            core.object_attenuator(pattern, "pixel-paths"),
            core.oam_converter(d, inverse=True), core.oam_sorter(d, inverse=True),
            core.polarising_beam_splitter(d)]


def merged_terms(index, coeff):
    """Terms that read one source merged by sorting them and summing with
    ``np.add.at``, as ``compose`` merged them before row-wise sums."""
    cols = np.arange(index.shape[1])
    order = np.argsort(index, axis=0, kind="stable")
    index, coeff = index[order, cols], coeff[order, cols]
    new_source = np.empty(index.shape, dtype=bool)
    new_source[0] = True
    new_source[1:] = index[1:] != index[:-1]
    slot = new_source.cumsum(axis=0) - 1
    width = int(slot[-1].max()) + 1
    merged_index = np.repeat(index[:1], width, axis=0)
    merged_coeff = np.zeros((width, index.shape[1]), dtype=coeff.dtype)
    merged_index[slot, cols] = index
    np.add.at(merged_coeff, (slot, cols), coeff)
    return merged_index, merged_coeff


def merged_doublings(op, count):
    """``core.doublings`` as it was before block squaring: each square
    substitutes the form into itself and merges the terms that read one
    source (``merged_terms``)."""
    powers = [op]
    index, coeff = op.index, op.coeff.astype(np.clongdouble)
    n = index.shape[1]
    for j in range(1, count):
        squared = (index[:, index].reshape(-1, n),
                   (coeff[:, index] * coeff).reshape(-1, n))
        index, coeff = merged_terms(*squared) if len(index) > 1 else squared
        powers.append(core.ElementOp(f"({op.label})^{2**j}", op.d, index, coeff, op.dim))
    return powers


class TestRestrictedForms:
    def test_reachable_support_and_restricted_cycle(self):
        rng = np.random.default_rng(23)
        for d in range(1, 7):
            transmissions = rng.uniform(0.1, 0.9, size=d)
            cycle = core.compose(zeno_cycle(d, 0.2, transmissions))
            start = core.make_initial_state(d, d).flat
            support = core.reachable(cycle, start, 50)
            sites = np.arange(core.space_dim(d)).reshape(2, d, d + 1)
            assert set(support) == set(sites[:, :, d].ravel())
            restricted = cycle.restrict(support)
            assert restricted.dim == 2 * d
            full, small = start, start[support]
            for _ in range(5):
                full, small = cycle.apply_flat(full), restricted.apply_flat(small)
                assert np.array_equal(full[support], small)
                assert np.count_nonzero(np.delete(full, support)) == 0

    def test_reachable_stops_after_the_given_steps(self):
        cycle = core.compose(zeno_cycle(3, 0.2, (0.5, 0.5, 0.5)))
        start = core.make_initial_state(3, 3).flat
        assert np.array_equal(core.reachable(cycle, start, 0), np.flatnonzero(start))
        assert len(core.reachable(cycle, start, 1)) == 6

    def test_doublings_are_accurate_powers(self):
        cycle = core.compose(zeno_cycle(2, np.pi / 64, (0.3, 1.0)))
        start = core.make_initial_state(2, 2).flat
        restricted = cycle.restrict(core.reachable(cycle, start, 64))
        powers = core.doublings(restricted, 7)
        assert powers[0] is restricted
        for j, power in enumerate(powers):
            assert power.dim == restricted.dim and power.index.shape[0] <= 2
            reference = np.linalg.matrix_power(restricted.matrix, 2**j)
            assert np.max(np.abs(power.matrix - reference)) <= 1e-15 * 2**j

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_block_squares_equal_merged_squares_bit_for_bit(self, kind):
        rng = np.random.default_rng(sorted(KINDS).index(kind))
        sizes = (1,) if not KINDS[kind].per_pixel else (1, 2, 5, 12)
        for d in sizes:
            objects = [PixelPattern.opaque(d), PixelPattern.transparent(d),
                       PixelPattern.from_bits(rng.integers(0, 2, size=d)),
                       PixelPattern(tuple(rng.choice([0.0, 1.0, 0.3, 0.77, 0.05], size=d)))]
            for pattern, n_cycles in itertools.product(objects, (1, 2, 3, 255, 256, 257, 2048)):
                config = schemes.SchemeConfig(kind, pattern, n_cycles)
                cycle = core.compose(schemes.build_scheme(config).cycle_elements)
                start = make_initial_state(d, 0 if config.spec.single_pass else d).flat
                restricted = cycle.restrict(core.reachable(cycle, start, n_cycles))
                vec = [1.0, 1j] @ rng.normal(size=(2, restricted.dim))
                powers = core.doublings(restricted, 12)
                for power, reference in zip(powers, merged_doublings(restricted, 12),
                                            strict=True):
                    assert np.array_equal(power.matrix, reference.matrix), (config, power)
                    assert np.array_equal(power.apply_flat(vec), reference.apply_flat(vec))

    def test_doublings_of_a_three_amplitude_block(self):
        rng = np.random.default_rng(5)
        unitary = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        # Amplitudes 1, 3 and 4 form the block; 0, 2 and 5 are blocks of
        # one, each with a padding term that reads amplitude 3 at zero.
        index = np.array([[0, 1, 2, 1, 1, 5], [3, 3, 3, 3, 3, 3], [0, 4, 2, 4, 4, 3]])
        coeff = np.zeros((3, 6), dtype=complex)
        coeff[0, [0, 2, 5]] = np.exp(1j * rng.uniform(0, 2 * np.pi, size=3))
        coeff[:, [1, 3, 4]] = unitary.T
        op = core.ElementOp("block", 1, index, coeff, dim=6)
        powers = core.doublings(op, 9)
        for j, power in enumerate(powers):
            assert power.index.shape == (3, 6)
            reference = np.linalg.matrix_power(op.matrix, 2**j)
            assert np.max(np.abs(power.matrix - reference)) <= 1e-15 * 2**j

    def test_doublings_of_one_form_is_the_form(self):
        op = core.compose(zeno_cycle(2, 0.1, (0.3, 0.0)))
        assert core.doublings(op, 1) == [op]

    @pytest.mark.parametrize("dtype", [np.complex128, np.clongdouble])
    def test_row_wise_merge_equals_add_at_merge(self, dtype):
        rng = np.random.default_rng(8)
        # Sixteen terms over four sources, so most outputs sum several terms.
        index = rng.integers(0, 4, size=(16, 500))
        coeff = (rng.normal(size=(16, 500)) + 1j * rng.normal(size=(16, 500))).astype(dtype)
        merged, reference = core._merge_terms(index, coeff), merged_terms(index, coeff)
        assert np.array_equal(merged[0], reference[0])
        assert merged[1].dtype == dtype and np.array_equal(merged[1], reference[1])

    def test_gather_form_of_its_own_length(self):
        op = core.ElementOp("pair", 1, [[1, 0]], [[1.0, 1.0]], dim=2)
        assert op.dim == 2 and np.array_equal(op.apply_flat(np.array([2.0, 3.0])), [3.0, 2.0])
        assert np.array_equal(op.apply_flat(np.eye(2)), [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="different lengths"):
            core.compose([op, core.pockels_flip(1)])
        with pytest.raises(ValueError, match="applied to state"):
            op.apply(core.make_initial_state(1, 0))

    def test_elements_fixed_by_d_are_shared(self):
        assert core.oam_sorter(3) is core.oam_sorter(3)
        assert core.oam_sorter(3, inverse=True) is not core.oam_sorter(3)
        op = core.polarising_beam_splitter(4)
        assert not op.index.flags.writeable and not op.coeff.flags.writeable
