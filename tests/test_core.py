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
        state = core.input_photon(1, 1)
        assert state.amplitude(POL_H, 0, 1) == 1.0
        assert np.count_nonzero(state.amps) == 1

    def test_multipixel_zeno_input(self):
        state = core.input_photon(4, 4)
        for ell in range(4):
            assert state.amplitude(POL_H, ell, 4) == pytest.approx(0.5, abs=0)
        assert state.survival == pytest.approx(1.0, abs=1e-15)

    def test_single_pass_input(self):
        state = core.input_photon(2, 0)
        expected = 1.0 / math.sqrt(2.0)
        for ell in range(2):
            assert state.amplitude(POL_H, ell, 0) == pytest.approx(expected, abs=1e-15)
        assert state.survival == pytest.approx(1.0, abs=1e-15)

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            core.input_photon(0, 0)

    def test_rejects_mode_outside_the_space(self):
        with pytest.raises(ValueError):
            core.input_photon(2, 3)


@pytest.mark.parametrize("build, message", [
    (lambda: PhotonState(0, np.array([], dtype=np.intp), np.array([], dtype=complex)),
     "dimension must be >= 1"),
    (lambda: PhotonState(2, np.array([0, 1]), np.array([1.0])), "vectors of one length"),
    (lambda: PhotonState(2, np.array([1, 0]), np.array([0.6, 0.8])), "labels must increase"),
    (lambda: basis_index(2, POL_H, 2, 0), "basis labels out of range"),
    (lambda: core.input_photon(2, 2).overlap(core.input_photon(3, 3)), "different spaces"),
    (lambda: core.mirror_reflect("other", 2), "unknown mirror kind"),
    (lambda: PixelPattern.from_bits("12"), "occupancy bits must be 0 or 1"),
    (lambda: DetectorMap(2, ("D", "D"), lambda pol, ell, mode: mode), "duplicate detector"),
    (lambda: DetectionDistribution({"D": 1.5}, -0.5), "out of range"),
    (lambda: core.detection_distribution(core.input_photon(2, 2),
                                         schemes._detector_map("multipixel-zeno", 3), 0.0, 1.0),
     "dimensions differ"),
])
def test_invalid_input_raises_value_error(build, message):
    with pytest.raises(ValueError, match=message):
        build()


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
        state = PhotonState.from_flat(d, amps)
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
        with pytest.raises(ValueError, match="exceeds 1"):
            PhotonState.from_flat(1, amps)
        with pytest.raises(ValueError, match="exceeds 1"):
            PhotonState(1, [0, 3], [1.0, 0.2])

    def test_survival_of_fresh_state(self):
        state = core.input_photon(3, 3)
        assert state.survival == pytest.approx(1.0, abs=1e-15)

    def test_survival_after_object_contact(self):
        # Balanced two-arm split, then a fully opaque single pixel: half of
        # the probability mass is absorbed.
        d = 1
        state = core.beam_splitter(d).apply(core.input_photon(d, 0))
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
        state = core.input_photon(d, d)
        for _ in range(n):
            for op in (rot, pbs, obj, pbs):
                state = op.apply(state)
        assert state.survival == pytest.approx(math.cos(theta) ** (2 * n), abs=1e-12)


class TestDetection:
    def test_complete_map_sums_to_one(self):
        rng = np.random.default_rng(11)
        d = 3
        # A reads modes 0 and 1, B the others.
        dmap = DetectorMap(d, ("A", "B"), lambda pol, ell, mode: np.where(mode < 2, 0, 1))
        # scale below unit norm so the deficit reads as absorption
        state = PhotonState.from_flat(d, random_state(rng, d).flat * 0.7)
        dist = core.detection_distribution(state, dmap, 0.0, state.survival)
        assert abs(dist.total() - 1.0) <= 1e-12
        assert dist.p_abs == pytest.approx(0.51, abs=1e-15)

    def test_unmapped_mass_rejected(self):
        d = 1
        dmap = DetectorMap(d, ("A",), lambda pol, ell, mode: np.where(
            (pol == POL_H) & (ell == 0) & (mode == 0), 0, -1))
        state = basis_state(d, POL_V, 0, 1)
        with pytest.raises(ValueError, match="undetected"):
            core.detection_distribution(state, dmap, 0.0, state.survival)

    def test_unknown_detector_rejected(self):
        dmap = DetectorMap(1, ("A",), lambda pol, ell, mode: np.ones_like(mode))
        with pytest.raises(ValueError, match="unknown label"):
            core.detection_distribution(basis_state(1, POL_H, 0, 0), dmap, 0.0, 1.0)

    def test_rounding_budget_zeroes_only_deficits_within_it(self):
        d = 1
        dmap = DetectorMap(d, ("A", "B"), lambda pol, ell, mode: np.where(mode == 0, pol, -1))
        state = PhotonState(d, [basis_index(d, POL_H, 0, 0)], [math.sqrt(1.0 - 1e-12)])
        assert core.detection_distribution(state, dmap, 2e-12, state.survival).p_abs == 0.0
        kept = core.detection_distribution(state, dmap, 5e-13, state.survival).p_abs
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
        assert PixelPattern.from_bits([1, 0, 1, 0]) == pattern
        assert PixelPattern.from_bits(np.array([1, 0, 1, 0])) == pattern

    # Arabic-Indic "10", which int() reads as 10, and a float that int() truncates.
    @pytest.mark.parametrize("bits", ["1a", "\u0661\u0660", [1.7, 0], [1, 2], ["10"]])
    def test_from_bits_takes_only_0_and_1(self, bits):
        with pytest.raises(ValueError, match="occupancy bits must be 0 or 1"):
            PixelPattern.from_bits(bits)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PixelPattern(())


# ---------------------------------------------------------------------------
# Dense references: the matrix builders the engine used before label
# rules.  Permutations go through a scalar site map and a Python loop, blocks
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


class TestRulesAgainstDenseReference:
    def test_index_maps_are_bit_exact(self):
        rng = np.random.default_rng(20)
        for d in range(1, 7):
            v = random_state(rng, d).flat
            for build, site_map in scalar_site_maps(d):
                op = build()
                reference = dense_permutation(d, site_map)
                assert [type(rule) for rule in op.rules] == [core.SiteMap]
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
                assert [type(rule) for rule in op.rules] == [core.Factor]
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
                assert [type(rule) for rule in op.rules] == [core.Block]
                assert np.array_equal(op.matrix, reference)
                assert np.max(np.abs(op.apply_flat(v) - reference @ v)) <= 1e-15

    def test_stack_of_vectors_is_applied_row_by_row(self):
        rng = np.random.default_rng(24)
        stack = np.stack([random_state(rng, 3).flat for _ in range(4)])
        for op in all_unitaries(3) + [core.compose(all_unitaries(3))]:
            rows = np.stack([op.apply_flat(v) for v in stack])
            assert np.array_equal(op.apply_flat(stack), rows)

    def test_malformed_block_rejected(self):
        for block, axis, pair in ((np.eye(3), 0, (0, 1)), (np.eye(2), 2, (1, 1)),
                                  (np.eye(2), 2, (0, 3)), (np.eye(2), 3, (0, 1))):
            with pytest.raises(ValueError, match="bad: a block needs"):
                core.Block("bad", 2, block, axis, pair)

    def test_matrix_view_is_read_only(self):
        m = core.pockels_flip(2).matrix
        with pytest.raises(ValueError):
            m[0, 0] = 2.0


class TestCompose:
    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty element sequence"):
            core.compose([])

    def test_elements_for_different_d_rejected(self):
        with pytest.raises(ValueError, match="different d"):
            core.compose([core.beam_splitter(2), core.beam_splitter(3)])

    def test_nested_composite_holds_the_flat_rules(self):
        a, b, c = core.beam_splitter(3), core.polarisation_rotator(0.4, 3), core.oam_sorter(3)
        nested = core.compose([core.compose([a, b]), c])
        # Elements compare by identity, so this holds for the same objects only.
        assert nested.rules == (a, b, c)
        assert nested.rules is nested.rules
        assert np.array_equal(nested.matrix, core.compose([a, b, c]).matrix)


class TestSiteMap:
    # A site map is checked on the labels it is evaluated on.
    def test_non_bijective_site_map_rejected(self):
        op = core.SiteMap("collapse", 2, lambda pol, ell, mode: (pol, ell * 0, mode))
        with pytest.raises(ValueError, match="not a bijection"):
            op.matrix

    def test_site_map_leaving_the_basis_rejected(self):
        op = core.SiteMap("overflow", 2, lambda pol, ell, mode: (pol, ell + 1, mode))
        with pytest.raises(ValueError, match="leaves the basis"):
            op.apply_flat(np.zeros(space_dim(2)))


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
    ``np.add.at``, as gather forms were once composed."""
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


def merged_doublings(index, coeff, count):
    """Powers of the gather form (index, coeff) as ``core`` squared them
    before block squaring: each square substitutes the form into itself
    and merges the terms that read one source (``merged_terms``), in
    ``np.clongdouble``, and is rounded once."""
    powers = [(index, coeff)]
    coeff = coeff.astype(np.clongdouble)
    n = index.shape[1]
    for _ in range(1, count):
        squared = (index[:, index].reshape(-1, n),
                   (coeff[:, index] * coeff).reshape(-1, n))
        index, coeff = merged_terms(*squared) if len(index) > 1 else squared
        powers.append((index, coeff.astype(np.complex128)))
    return powers


def dense(index, coeff):
    """Dense matrix of the gather form (index, coeff)."""
    n = index.shape[1]
    m = np.zeros((n, n), dtype=np.complex128)
    np.add.at(m, (np.broadcast_to(np.arange(n), index.shape), index), coeff)
    return m


def reached_blocks(cycle, start):
    """The labels ``start`` reaches under ``cycle`` and its block form on them."""
    labels, reached, index, coeff = core.support_blocks(cycle, start)
    return labels[reached], index, coeff


def kind_configs(kind, rng, cycle_counts, sizes=(1, 2, 5, 12)):
    """Opaque, transparent, binary and semi-transparent objects of ``kind``
    at each of ``cycle_counts``, with the cycle and the input photon of each."""
    for d in sizes if KINDS[kind].per_pixel else (1,):
        objects = [PixelPattern.opaque(d), PixelPattern.transparent(d),
                   PixelPattern.from_bits(rng.integers(0, 2, size=d)),
                   PixelPattern(tuple(rng.choice([0.0, 1.0, 0.3, 0.77, 0.05], size=d)))]
        for pattern, n_cycles in itertools.product(objects, cycle_counts):
            config = schemes.SchemeConfig(kind, pattern, n_cycles)
            built = schemes.build_scheme(config)
            yield config, core.compose(built.cycle_elements), built.start


class TestRestrictedForms:
    def test_support_and_blocks_of_the_cycle(self):
        rng = np.random.default_rng(23)
        for d in range(1, 7):
            transmissions = rng.uniform(0.1, 0.9, size=d)
            cycle = core.compose(zeno_cycle(d, 0.2, transmissions))
            labels = core.input_photon(d, d).labels
            start = core.input_photon(d, d).flat
            support, index, coeff = reached_blocks(cycle, labels)
            sites = np.arange(core.space_dim(d)).reshape(2, d, d + 1)
            assert set(support) == set(sites[:, :, d].ravel())
            assert index.shape == coeff.shape == (2, 2 * d)
            assert coeff.dtype == np.complex128
            assert not index.flags.writeable and not coeff.flags.writeable
            full, small = start, start[support]
            for _ in range(5):
                full, small = cycle.apply_flat(full), core.gather(index, coeff, small)
                assert np.array_equal(full[support], small)
                assert np.count_nonzero(np.delete(full, support)) == 0

    def test_labels_are_shared_and_reached_positions_are_per_cycle(self):
        # Any object lets the photon reach both pols of every pixel; an
        # opaque pixel's V amplitude is then never reached.
        labels = core.input_photon(3, 3).labels
        opaque = core.support_blocks(core.compose(zeno_cycle(3, 0.2, (0.0, 0.5, 0.0))), labels)
        clear = core.support_blocks(core.compose(zeno_cycle(3, 0.7, (0.5, 1.0, 0.5))), labels)
        assert opaque[0] is clear[0] and list(opaque[0]) == [3, 7, 11, 15, 19, 23]
        assert list(opaque[1]) == [0, 1, 2, 4] and list(clear[1]) == list(range(6))
        assert not opaque[1].flags.writeable

    def test_unreached_amplitudes_are_left_out(self):
        # The V amplitude of an opaque pixel is never reached; its pixel's
        # H amplitude reads it at zero, from itself.
        cycle = core.compose(zeno_cycle(3, 0.2, (0.0, 0.5, 0.0)))
        labels = core.input_photon(3, 3).labels
        support, index, coeff = reached_blocks(cycle, labels)
        assert list(support) == [3, 7, 11, 19]
        assert index.shape == (2, 4)
        assert np.array_equal(index[:, [0, 2]], [[0, 2], [0, 2]])
        assert np.all(coeff[1, [0, 2]] == 0) and np.all(coeff[0, [0, 2]] != 0)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_first_cycle_on_the_blocks_equals_the_full_cycle(self, kind):
        # Row 0 of a run's trace is the block form applied to the input.
        rng = np.random.default_rng(40 + sorted(KINDS).index(kind))
        for config, cycle, start in kind_configs(kind, rng, (1, 2, 3, 255, 256, 257)):
            support, index, coeff = reached_blocks(cycle, start.labels)
            assert np.array_equal(core.gather(index, coeff, start.flat[support]),
                                  cycle.apply_flat(start.flat)[support]), config

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_blocks_equal_the_dense_cycle_on_the_support(self, kind):
        # Seeded property check: the pushed block form against the product
        # of the cycle elements' dense matrices, restricted to the support.
        rng = np.random.default_rng(60 + sorted(KINDS).index(kind))
        for config, cycle, start in kind_configs(kind, rng, (1, 2, 3, 255, 256, 257),
                                                 sizes=(1, 2, 3, 4, 5, 6)):
            product = np.eye(core.space_dim(config.d), dtype=complex)
            for op in schemes.build_scheme(config).cycle_elements:
                product = op.matrix @ product
            support, index, coeff = reached_blocks(cycle, start.labels)
            restricted = product[np.ix_(support, support)]
            assert np.max(np.abs(dense(index, coeff) - restricted)) <= 1e-15, config
            # The support is closed: nothing it holds leaks outside it.
            outside = np.delete(product[:, support], support, axis=0)
            assert np.max(np.abs(outside), initial=0.0) <= 1e-15, config

    def test_blocks_of_four_amplitudes(self):
        # A rotator and a beam splitter couple the pol pair and the mode
        # pair, so each OAM value's four amplitudes on modes 0 and d form
        # one block.
        d = 2
        cycle = core.compose([core.polarisation_rotator(0.3, d), core.beam_splitter(d)])
        labels = core.input_photon(d, 0).labels
        support, index, coeff = reached_blocks(cycle, labels)
        sites = np.arange(core.space_dim(d)).reshape(2, d, d + 1)
        assert set(support) == set(sites[..., [0, d]].ravel())
        assert index.shape == (4, 8)
        restricted = cycle.matrix[np.ix_(support, support)]
        for j, power in enumerate(core.block_powers(index, coeff, 9)):
            reference = np.linalg.matrix_power(restricted, 2**j)
            assert np.max(np.abs(dense(index, power) - reference)) <= 1e-15 * 2**j

    def test_pushes_are_shared_by_rules_of_one_shape(self):
        d = 4
        labels = core.input_photon(d, d).labels
        first = core.compose(zeno_cycle(d, 0.1, (0.3, 0.0, 1.0, 0.5)))
        core.support_blocks(first, labels)
        count = len(core._PUSHES)
        second = core.compose(zeno_cycle(d, 0.7, (1.0, 0.2, 0.0, 0.0)))
        _, _, _, coeff = core.support_blocks(second, labels)
        assert len(core._PUSHES) == count
        assert np.array_equal(coeff, core.support_blocks(second, labels)[3])

    def test_block_powers_are_accurate_powers(self):
        cycle = core.compose(zeno_cycle(2, np.pi / 64, (0.3, 1.0)))
        support, index, coeff = reached_blocks(cycle, core.input_photon(2, 2).labels)
        powers = core.block_powers(index, coeff, 7)
        assert powers[0] is coeff
        for j, power in enumerate(powers):
            assert power.shape == index.shape and power.dtype == np.complex128
            reference = np.linalg.matrix_power(cycle.matrix[np.ix_(support, support)], 2**j)
            assert np.max(np.abs(dense(index, power) - reference)) <= 1e-15 * 2**j

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_block_squares_equal_merged_squares_bit_for_bit(self, kind):
        rng = np.random.default_rng(sorted(KINDS).index(kind))
        for config, cycle, start in kind_configs(kind, rng, (1, 2, 3, 255, 256, 257, 2048)):
            support, index, coeff = reached_blocks(cycle, start.labels)
            vec = [1.0, 1j] @ rng.normal(size=(2, len(support)))
            powers = core.block_powers(index, coeff, 12)
            references = merged_doublings(index, coeff, 12)
            for j, (power, reference) in enumerate(zip(powers, references, strict=True)):
                assert np.array_equal(dense(index, power), dense(*reference)), (config, j)
                assert np.array_equal(core.gather(index, power, vec),
                                      core.gather(*reference, vec)), (config, j)

    def test_block_powers_of_a_three_amplitude_block(self):
        rng = np.random.default_rng(5)
        unitary = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        # Of six amplitudes, 1, 3 and 4 form a block; every other amplitude
        # is a block of one, whose padding terms read it at zero.
        index = np.tile(np.arange(6), (3, 1))
        index[:, [1, 3, 4]] = [[1], [3], [4]]
        coeff = np.zeros((3, 6), dtype=complex)
        coeff[0] = np.exp(1j * rng.uniform(0, 2 * np.pi, size=6))
        coeff[:, [1, 3, 4]] = unitary.T
        matrix = dense(index, coeff)
        for j, power in enumerate(core.block_powers(index, coeff, 9)):
            reference = np.linalg.matrix_power(matrix, 2**j)
            assert np.max(np.abs(dense(index, power) - reference)) <= 1e-15 * 2**j

    def test_block_powers_of_one_form_is_the_form(self):
        cycle = core.compose(zeno_cycle(2, 0.1, (0.3, 0.0)))
        _, _, index, coeff = core.support_blocks(cycle, core.input_photon(2, 2).labels)
        powers = core.block_powers(index, coeff, 1)
        assert len(powers) == 1 and powers[0] is coeff

    def test_element_rejects_a_state_of_another_d(self):
        with pytest.raises(ValueError, match="applied to state"):
            core.pockels_flip(1).apply(core.input_photon(2, 0))

    def test_elements_fixed_by_d_are_shared(self):
        assert core.oam_sorter(3) is core.oam_sorter(3)
        assert core.oam_sorter(3, inverse=True) is not core.oam_sorter(3)
        block = core.beam_splitter(4)
        assert not block.block.flags.writeable and not block.entries.flags.writeable

    def test_input_photon_is_shared_and_read_only(self):
        state = core.input_photon(3, 3)
        assert core.input_photon(3, 3) is state
        assert not state.labels.flags.writeable and not state.amplitudes.flags.writeable
        assert np.array_equal(state.flat[state.labels], state.amplitudes)
        assert np.count_nonzero(state.flat) == 3
