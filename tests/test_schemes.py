"""Scheme assembly and execution: figures, traces, equivalences."""

import math

import numpy as np
import pytest

from ifmsim import analytics, core, schemes
from ifmsim.analytics import AnalyticReport
from ifmsim.core import POL_H, POL_V, PixelPattern
from ifmsim.schemes import (
    BLOCK_ROWS,
    KINDS,
    ROUNDING_ULPS_PER_APPLICATION,
    SchemeConfig,
    build_scheme,
    encoder_elements,
    final_state_ideal,
    run_scheme,
)


class TestSchemeConfig:
    def test_canonical_angles(self):
        mz = SchemeConfig("multipixel-zeno", PixelPattern.opaque(2), 10)
        assert mz.effective_theta == pytest.approx(np.pi / 20)
        mich = SchemeConfig("michelson-zeno", PixelPattern.opaque(2), 10)
        assert mich.effective_theta == pytest.approx(np.pi / 40)
        assert mich.cycle_rotation == pytest.approx(np.pi / 20)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            SchemeConfig("quadruple-pass", PixelPattern.opaque(1))

    def test_rejects_multi_pixel_single_schemes(self):
        with pytest.raises(ValueError):
            SchemeConfig("ev-single-pass", PixelPattern.opaque(2))

    def test_rejects_zero_cycles(self):
        with pytest.raises(ValueError):
            SchemeConfig("multipixel-zeno", PixelPattern.opaque(2), 0)


class TestBuildScheme:
    def test_ev_is_the_d1_single_pass_with_two_detectors(self):
        built = build_scheme(SchemeConfig("ev-single-pass", PixelPattern.opaque(1)))
        multi = build_scheme(SchemeConfig("multipixel-single-pass", PixelPattern.opaque(1)))
        assert [op.label for op in built.cycle_elements] == [
            op.label for op in multi.cycle_elements
        ]
        assert built.n_cycles == 1
        assert built.detector_map.labels == ("D0", "D1")

    def test_multipixel_zeno_detector_labels(self):
        built = build_scheme(SchemeConfig("multipixel-zeno", PixelPattern.opaque(4), 5))
        expected = {f"D{ell}_{pol}" for ell in range(4) for pol in ("h", "v")}
        assert set(built.detector_map.labels) == expected

    def test_michelson_shares_labels_and_adds_switch_out(self):
        built = build_scheme(SchemeConfig("michelson-zeno", PixelPattern.opaque(2), 3))
        expected = {f"D{ell}_{pol}" for ell in range(2) for pol in ("h", "v")}
        assert set(built.detector_map.labels) == expected
        assert [op.label for op in built.switch_out] == ["P"]

    def test_single_pass_port_labels(self):
        built = build_scheme(SchemeConfig("multipixel-single-pass", PixelPattern.opaque(3)))
        assert set(built.detector_map.labels) == {
            f"D{port}_{ell}" for port in ("0", "d") for ell in range(3)
        }


class TestRunScheme:
    def test_zeno_single_pixel_transparent_always_detected_v(self):
        for n in (1, 3, 17):
            result = run_scheme(SchemeConfig("zeno-single-pixel", PixelPattern.transparent(1), n))
            assert result.distribution.probabilities["Dv"] == pytest.approx(1.0, abs=1e-12)
            assert result.distribution.p_abs == 0.0

    def test_hand_evaluated_two_cycle_survival(self):
        # d=2, pattern 10, N=2, theta=pi/4: survival 5/8.
        result = run_scheme(SchemeConfig("multipixel-zeno", PixelPattern.from_bits("10"), 2))
        assert 1.0 - result.distribution.p_abs == pytest.approx(0.625, abs=1e-12)

    def test_single_pass_multipixel_table_values(self):
        result = run_scheme(
            SchemeConfig("multipixel-single-pass", PixelPattern.from_bits("1010"))
        )
        probs = result.distribution.probabilities
        for ell, f in enumerate((1, 0, 1, 0)):
            if f:
                assert probs[f"D0_{ell}"] == pytest.approx(1 / 16, abs=1e-12)
                assert probs[f"Dd_{ell}"] == pytest.approx(1 / 16, abs=1e-12)
            else:
                assert probs[f"D0_{ell}"] == pytest.approx(1 / 4, abs=1e-12)
                assert probs[f"Dd_{ell}"] == pytest.approx(0.0, abs=1e-12)
        assert result.distribution.p_abs == pytest.approx(2 / 8, abs=1e-12)

    def test_distribution_complete_for_every_kind(self):
        rng = np.random.default_rng(3)
        cases = [
            SchemeConfig("ev-single-pass", PixelPattern.from_bits("1")),
            SchemeConfig("zeno-single-pixel", PixelPattern.from_bits("1"), 9),
            SchemeConfig("multipixel-single-pass", PixelPattern.from_bits("0110")),
            SchemeConfig("multipixel-zeno", PixelPattern.from_bits("100"), 12),
            SchemeConfig("semitransparent-zeno", PixelPattern(tuple(rng.random(3))), 21),
            SchemeConfig("michelson-zeno", PixelPattern.from_bits("01"), 7),
        ]
        for cfg in cases:
            dist = run_scheme(cfg).distribution
            assert dist.total() == pytest.approx(1.0, abs=1e-12)

    def test_all_opaque_large_n_splits_evenly_over_h_detectors(self):
        n = 500
        result = run_scheme(SchemeConfig("multipixel-zeno", PixelPattern.opaque(2), n))
        probs = result.distribution.probabilities
        # Each h detector sits pi^2/8N below 1/2.
        assert probs["D0_h"] == pytest.approx(0.5, abs=1.1 * np.pi**2 / (8 * n))
        assert probs["D1_h"] == pytest.approx(0.5, abs=1.1 * np.pi**2 / (8 * n))
        assert probs["D0_v"] == 0.0 and probs["D1_v"] == 0.0

    def test_trace_is_recorded_every_cycle(self):
        result = run_scheme(SchemeConfig("multipixel-zeno", PixelPattern.from_bits("10"), 33))
        assert len(result.trace) == 33
        assert len(result.trace.survival) == 33
        assert len(result.trace.p_abs_cycle) == 33

    def test_monotone_survival(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            d = int(rng.integers(1, 7))
            pattern = PixelPattern(tuple(rng.random(d)))
            result = run_scheme(SchemeConfig("semitransparent-zeno", pattern, 40))
            surv = (1.0, *result.trace.survival)
            assert all(b <= a + 1e-12 for a, b in zip(surv, surv[1:]))

    def test_survival_stays_one_when_transparent(self):
        result = run_scheme(SchemeConfig("multipixel-zeno", PixelPattern.transparent(5), 64))
        assert all(abs(s - 1.0) <= 1e-12 for s in result.trace.survival)

    def test_unitary_trace_reads_exactly_one(self):
        # Rounding of the cycle product read p_abs_cycle = -4.4e-16 here.
        result = run_scheme(SchemeConfig("multipixel-zeno", PixelPattern.transparent(14), 169))
        assert set(result.trace.survival) == {1.0}
        assert set(result.trace.p_abs_cycle) == {0.0}

    def test_readout_within_budget_stays_in_range(self):
        # The survival of this unitary run rounds to 1 + 2.2e-13, which
        # the D0_v detector read before the sums were divided by it.
        cfg = SchemeConfig("semitransparent-zeno", PixelPattern.transparent(1), 3981)
        dist = run_scheme(cfg).distribution
        assert dist.p_abs == 0.0
        assert all(0.0 <= p <= 1.0 for p in dist.probabilities.values())
        assert dist.total() == pytest.approx(1.0, abs=4 * np.finfo(float).eps)

    def test_trace_matches_per_cycle_formula(self):
        # Conditional absorption during cycle n+1 is
        # n_abs cos^2n(t) sin^2(t) / (d - n_abs + n_abs cos^2n(t)).
        rng = np.random.default_rng(5)
        for _ in range(12):
            d = int(rng.integers(1, 9))
            n_abs = int(rng.integers(0, d + 1))
            n = int(rng.integers(1, 65))
            theta = np.pi / (2 * n)
            bits = [1] * n_abs + [0] * (d - n_abs)
            cfg = SchemeConfig("multipixel-zeno", PixelPattern.from_bits(bits), n)
            result = run_scheme(cfg)
            for k, p_abs_cycle in enumerate(result.trace.p_abs_cycle):
                c2n = math.cos(theta) ** (2 * k)
                expected = (
                    n_abs * c2n * math.sin(theta) ** 2 / (d - n_abs + n_abs * c2n)
                )
                assert p_abs_cycle == pytest.approx(expected, abs=1e-10)

    def test_large_cycle_count_matches_closed_form(self):
        n = 2000
        cfg = SchemeConfig("multipixel-zeno", PixelPattern.from_bits("10"), n)
        result = run_scheme(cfg)
        theta = np.pi / (2 * n)
        expected = 1.0 - 0.5 * (1.0 - math.cos(theta) ** (2 * n))
        assert 1.0 - result.distribution.p_abs == pytest.approx(expected, abs=1e-12)
        assert len(result.trace) == n


class TestEncoderEquivalence:
    def test_gate_and_diagonal_forms_agree(self):
        # Outside the encoder only modes 0 and d carry amplitude.
        rng = np.random.default_rng(6)
        for d in range(1, 7):
            pattern = PixelPattern(tuple(rng.random(d)))
            diagonal = core.object_attenuator(pattern, "oam-diagonal")
            for kind, n in (("multipixel-single-pass", 1), ("multipixel-zeno", 9)):
                gates = core.compose(encoder_elements(SchemeConfig(kind, pattern, n)))
                v = np.zeros((2, d, d + 1), dtype=complex)
                v[..., [0, d]] = rng.normal(size=(2, d, 2)) + 1j * rng.normal(size=(2, d, 2))
                v = v.ravel()
                assert np.max(np.abs(gates.apply_flat(v) - diagonal.apply_flat(v))) <= 1e-12


class TestMichelsonEquivalence:
    def test_matches_unfolded_scheme_with_labels_reversed(self):
        rng = np.random.default_rng(7)
        for d in (1, 2, 3, 4):
            for n in (1, 2, 5, 16, 64):
                pattern = PixelPattern.from_bits(rng.integers(0, 2, size=d))
                mz = run_scheme(SchemeConfig("multipixel-zeno", pattern, n)).distribution
                mich = run_scheme(SchemeConfig("michelson-zeno", pattern, n)).distribution
                swapped = {label[:-1] + {"h": "v", "v": "h"}[label[-1]]: p
                           for label, p in mz.probabilities.items()}
                for label, p in mich.probabilities.items():
                    assert p == pytest.approx(swapped[label], abs=1e-10)
                assert mich.p_abs == pytest.approx(mz.p_abs, abs=1e-10)

    def test_opaque_pixel_reported_on_v_detector(self):
        result = run_scheme(SchemeConfig("michelson-zeno", PixelPattern.from_bits("10"), 50))
        probs = result.distribution.probabilities
        assert probs["D0_v"] > 0.45
        assert probs["D1_h"] == pytest.approx(0.5, abs=1e-10)


class TestParallelDecomposition:
    def test_single_pass_equals_scaled_two_arm_values(self):
        # The d-pixel single-pass run is d independent single-pixel
        # experiments, each with weight 1/d.
        rng = np.random.default_rng(8)
        for d in (2, 4, 8):
            pattern = PixelPattern.from_bits(rng.integers(0, 2, size=d))
            dist = run_scheme(SchemeConfig("multipixel-single-pass", pattern)).distribution
            for ell, f in enumerate(pattern.f):
                ev = {0: (1.0, 0.0), 1: (0.25, 0.25)}[f]
                assert dist.probabilities[f"D0_{ell}"] == pytest.approx(ev[0] / d, abs=1e-12)
                assert dist.probabilities[f"Dd_{ell}"] == pytest.approx(ev[1] / d, abs=1e-12)


class TestDegenerateSinglePixel:
    @pytest.mark.parametrize("n", (1, 7, 100))
    @pytest.mark.parametrize("f", (0, 1))
    @pytest.mark.parametrize("kind, multi, names", [
        ("ev-single-pass", "multipixel-single-pass", {"D0_0": "D0", "Dd_0": "D1"}),
        ("zeno-single-pixel", "multipixel-zeno", {"D0_h": "Dh", "D0_v": "Dv"}),
    ])
    def test_single_pixel_kind_is_its_multipixel_kind_at_d1(self, kind, multi, names, f, n):
        pattern = PixelPattern.from_bits([f])
        single, wide = SchemeConfig(kind, pattern, n), SchemeConfig(multi, pattern, n)

        def renamed(probs):
            return {names[label]: p for label, p in probs.items()}

        a, b = run_scheme(single), run_scheme(wide)
        assert a.distribution.probabilities == renamed(b.distribution.probabilities)
        assert a.distribution.p_abs == b.distribution.p_abs
        assert a.trace == b.trace
        exact = analytics.exact_distribution(wide)
        assert analytics.exact_distribution(single) == AnalyticReport(
            renamed(exact.exact), None, exact.p_abs, exact.efficiency)
        asym = analytics.asymptotic_distribution(wide)
        expected = None if asym is None else AnalyticReport(
            None, renamed(asym.asymptotic), asym.p_abs)
        assert analytics.asymptotic_distribution(single) == expected

    def test_multipixel_single_pass_reduces_to_two_arm_scheme(self):
        for bits in ("0", "1"):
            ev = run_scheme(SchemeConfig("ev-single-pass", PixelPattern.from_bits(bits)))
            multi = run_scheme(SchemeConfig("multipixel-single-pass", PixelPattern.from_bits(bits)))
            assert multi.distribution.probabilities["D0_0"] == pytest.approx(
                ev.distribution.probabilities["D0"], abs=1e-12
            )
            assert multi.distribution.probabilities["Dd_0"] == pytest.approx(
                ev.distribution.probabilities["D1"], abs=1e-12
            )
            assert multi.distribution.p_abs == pytest.approx(ev.distribution.p_abs, abs=1e-12)

    def test_multipixel_zeno_reduces_to_single_pixel_scheme(self):
        for bits in ("0", "1"):
            for n in (1, 4, 32):
                single = run_scheme(SchemeConfig("zeno-single-pixel", PixelPattern.from_bits(bits), n))
                multi = run_scheme(SchemeConfig("multipixel-zeno", PixelPattern.from_bits(bits), n))
                assert multi.distribution.probabilities["D0_h"] == pytest.approx(
                    single.distribution.probabilities["Dh"], abs=1e-12
                )
                assert multi.distribution.probabilities["D0_v"] == pytest.approx(
                    single.distribution.probabilities["Dv"], abs=1e-12
                )


class TestFinalStateIdeal:
    def test_single_opaque_pixel_limit(self):
        cfg = SchemeConfig("multipixel-zeno", PixelPattern.from_bits("1"), 100)
        ideal = final_state_ideal(cfg)
        assert ideal.amplitude(POL_H, 0, 1) == 1.0
        assert ideal.survival == pytest.approx(1.0, abs=0)

    def test_fully_transparent_pattern(self):
        cfg = SchemeConfig("multipixel-zeno", PixelPattern.from_bits("00"), 10)
        ideal = final_state_ideal(cfg)
        for ell in range(2):
            assert ideal.amplitude(POL_V, ell, 2) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
            assert ideal.amplitude(POL_H, ell, 2) == 0.0

    def test_run_converges_to_ideal_state(self):
        n = 64
        cfg = SchemeConfig("multipixel-zeno", PixelPattern.from_bits("10"), n)
        ideal = final_state_ideal(cfg)
        result = run_scheme(cfg)
        fidelity = abs(ideal.overlap(result.state)) ** 2
        assert fidelity >= 1.0 - (np.pi**2 / (4 * n)) * 0.5 - 1e-3

    def test_rejects_semitransparent(self):
        cfg = SchemeConfig("semitransparent-zeno", PixelPattern((0.5,)), 10)
        with pytest.raises(ValueError):
            final_state_ideal(cfg)

    def test_rejects_other_kinds(self):
        cfg = SchemeConfig("michelson-zeno", PixelPattern.from_bits("1"), 10)
        with pytest.raises(ValueError):
            final_state_ideal(cfg)


def dense_run(config):
    """Reference evolution: every element's dense matrix applied in turn."""
    built = build_scheme(config)
    cycle = [op.matrix for op in built.cycle_elements]
    vec = core.make_initial_state(config.d, 0 if config.spec.single_pass else config.d).flat
    survival = []
    for _ in range(built.n_cycles):
        for matrix in cycle:
            vec = matrix @ vec
        survival.append(float(np.vdot(vec, vec).real))
    for op in built.switch_out:
        vec = op.matrix @ vec
    return vec, survival


class TestEngineAgainstDenseReference:
    CASES = [
        ("ev-single-pass", PixelPattern.from_bits("1")),
        ("zeno-single-pixel", PixelPattern.from_bits("1")),
        ("multipixel-single-pass", PixelPattern.from_bits("0110")),
        ("multipixel-zeno", PixelPattern.from_bits("101")),
        ("michelson-zeno", PixelPattern.from_bits("011")),
        ("semitransparent-zeno", PixelPattern((0.3, 0.9, 1.0))),
    ]

    def test_composed_cycle_matches_dense_product(self):
        for kind, pattern in self.CASES:
            built = build_scheme(SchemeConfig(kind, pattern, 5))
            product = np.eye(core.space_dim(pattern.d), dtype=complex)
            for op in built.cycle_elements:
                product = op.matrix @ product
            cycle = core.compose(built.cycle_elements)
            assert cycle.index.shape[0] <= 2, kind
            assert np.max(np.abs(cycle.matrix - product)) <= 1e-13, kind

    def test_run_matches_element_by_element_dense_application(self):
        # Both sides of the former 256-cycle switch to matrix powers.
        for n in (256, 257, 2048):
            for kind, pattern in self.CASES:
                if KINDS[kind].single_pass:
                    continue
                config = SchemeConfig(kind, pattern, n)
                result = run_scheme(config)
                vec, survival = dense_run(config)
                assert len(result.trace) == n
                assert np.max(np.abs(result.state.flat - vec)) <= 1e-12, (kind, n)
                assert np.max(np.abs(np.array(result.trace.survival) - survival)) <= 1e-12


def sequential_run(config):
    """Reference evolution: the full-space composed cycle applied once per cycle."""
    built = build_scheme(config)
    cycle = core.compose(built.cycle_elements)
    vec = core.make_initial_state(config.d, 0 if config.spec.single_pass else config.d).flat
    survival = []
    for _ in range(built.n_cycles):
        vec = cycle.apply_flat(vec)
        survival.append(float(np.vdot(vec, vec).real))
    for op in built.switch_out:
        vec = op.apply_flat(vec)
    return vec, np.array(survival)


def run_budget(config):
    """Rounding budget of the whole run: 2 eps per element application."""
    applications = build_scheme(config).applications
    return ROUNDING_ULPS_PER_APPLICATION * np.finfo(float).eps * applications


class TestDoublingEngine:
    """``run_scheme`` against the plain per-cycle evolution on the full space."""

    B = BLOCK_ROWS
    CYCLES = (1, 2, 3, B - 1, B, B + 1, 2 * B + 1, 300)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_matches_sequential_full_space_run(self, kind):
        rng = np.random.default_rng(sorted(KINDS).index(kind) + 100)
        for binary in (True, False):
            for n in self.CYCLES:
                d = int(rng.integers(1, 9)) if KINDS[kind].per_pixel else 1
                pattern = (PixelPattern.from_bits(rng.integers(0, 2, size=d)) if binary
                           else PixelPattern(tuple(rng.uniform(0.05, 0.95, size=d))))
                config = SchemeConfig(kind, pattern, n)
                budget = run_budget(config)
                result = run_scheme(config)
                vec, survival = sequential_run(config)
                case = (kind, pattern.transmissions, n)
                assert np.max(np.abs(result.state.flat - vec)) <= budget, case
                reference = core.detection_distribution(
                    core.PhotonState.from_flat(d, vec), build_scheme(config).detector_map, budget)
                assert abs(result.distribution.p_abs - reference.p_abs) <= budget, case
                for label, p in reference.probabilities.items():
                    assert abs(result.distribution.probabilities[label] - p) <= budget, case
                assert len(result.trace) == len(survival)
                assert np.max(np.abs(result.trace.survival - survival)) <= budget, case
                before = np.concatenate(([1.0], survival[:-1]))
                gap = np.abs(result.trace.p_abs_cycle - (1.0 - survival / before))
                assert np.all(gap <= 2 * budget / before), case

    @pytest.mark.parametrize("kind", sorted(k for k, spec in KINDS.items() if not spec.single_pass))
    def test_cycling_support_holds_at_most_2d_amplitudes(self, kind):
        for d in (1, 4, 8) if KINDS[kind].per_pixel else (1,):
            for pattern in (PixelPattern.transparent(d), PixelPattern((0.5,) * d)):
                config = SchemeConfig(kind, pattern, 300)
                cycle = core.compose(build_scheme(config).cycle_elements)
                start = core.make_initial_state(d, d).flat
                assert len(core.reachable(cycle, start, config.n_cycles)) <= 2 * d


class TestSemitransparentTraceClosedForm:
    # Worst gaps over these cases: 6.0e-13 in survival with the per-cycle
    # loop and with the doubling engine (the folded layout rotates twice by
    # pi/4N, the closed form once by pi/2N), and 1.3e-15 and 1.9e-15 in
    # p_abs_cycle.
    SURVIVAL_BOUND = 1e-12
    P_ABS_CYCLE_BOUND = 5e-15

    @pytest.mark.parametrize("d", (2, 8, 16))
    @pytest.mark.parametrize("n", (64, 2048))
    @pytest.mark.parametrize("kind", ("semitransparent-zeno", "michelson-zeno"))
    def test_every_trace_row_matches_block_powers(self, kind, d, n):
        rng = np.random.default_rng(11 + d)
        transmissions = np.round(rng.uniform(0.05, 0.95, size=d), 4)
        config = SchemeConfig(kind, PixelPattern(tuple(transmissions)), n)
        trace = run_scheme(config).trace
        expected = np.empty(n)
        for k in range(1, n + 1):
            ph, pv = analytics.block_probabilities(transmissions, config.cycle_rotation, k)
            expected[k - 1] = float(np.sum(ph + pv)) / d
        before = np.concatenate(([1.0], expected[:-1]))
        assert np.max(np.abs(trace.survival - expected)) <= self.SURVIVAL_BOUND
        assert np.max(np.abs(trace.p_abs_cycle - (1.0 - expected / before))) \
            <= self.P_ABS_CYCLE_BOUND


def clear_shared_caches():
    for cached in (core.make_initial_state, core._hv_pair_index, core._diagonal_index,
                   core.polarising_beam_splitter, core.oam_sorter, schemes._detector_map,
                   schemes._stage_product):
        cached.cache_clear()


class TestSharedPerKindAndD:
    """What a run takes from (kind, d) alone is built once and shared."""

    def test_shared_arrays_are_read_only(self):
        d = 3
        run_scheme(SchemeConfig("michelson-zeno", PixelPattern.from_bits("101"), 4))
        shared = [core._hv_pair_index(d), core._diagonal_index(d),
                  core.make_initial_state(d, d).amps,
                  schemes._detector_map("michelson-zeno", d).assignment,
                  core.polarisation_rotator(0.1, d).index,
                  core.object_attenuator(PixelPattern.opaque(d), "pixel-paths").index]
        for stage in build_scheme(SchemeConfig("michelson-zeno", PixelPattern.opaque(d))
                                  ).cycle_stages:
            if len(stage) > 1:
                product = schemes._stage_product(stage)
                shared += [product.index, product.coeff]
        for array in shared:
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1

    def test_only_coefficients_are_built_per_run(self):
        first = core.polarisation_rotator(0.1, 4)
        second = core.polarisation_rotator(0.2, 4)
        assert first.index is second.index is core._hv_pair_index(4)
        assert core.make_initial_state(4, 4) is core.make_initial_state(4, 4)
        opaque = core.object_attenuator(PixelPattern.opaque(4), "pixel-paths")
        assert opaque.index is core.object_attenuator(PixelPattern.transparent(4),
                                                      "oam-diagonal").index
        built = build_scheme(SchemeConfig("multipixel-zeno", PixelPattern.opaque(4), 7))
        again = build_scheme(SchemeConfig("multipixel-zeno", PixelPattern.transparent(4), 9))
        assert built.detector_map is again.detector_map
        for stage, other in zip(built.cycle_stages, again.cycle_stages, strict=True):
            if len(stage) > 1:
                assert schemes._stage_product(stage) is schemes._stage_product(other)

    def test_stages_hold_the_cycle_in_order(self):
        for kind in KINDS:
            d = 2 if KINDS[kind].per_pixel else 1
            built = build_scheme(SchemeConfig(kind, PixelPattern.from_bits("10"[:d]), 5))
            assert [len(stage) for stage in built.cycle_stages if len(stage) > 1] == (
                [3, 4] if KINDS[kind].layout == "folded" else [3, 3])
            assert len(built.cycle_elements) == sum(map(len, built.cycle_stages))
            product = core.compose(built.cycle_elements)
            staged = core.compose([core.compose(stage) for stage in built.cycle_stages])
            assert np.array_equal(product.matrix, staged.matrix)

    def test_caches_stay_bounded(self):
        for d in range(1, 40):
            run_scheme(SchemeConfig("multipixel-zeno", PixelPattern.opaque(d), 2))
        for cached in (core.make_initial_state, core._hv_pair_index, core._diagonal_index,
                       schemes._detector_map, schemes._stage_product):
            info = cached.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize

    def test_cold_and_warm_caches_give_the_same_run(self):
        config = SchemeConfig("michelson-zeno", PixelPattern((0.3, 0.0, 1.0)), 300)
        warm = run_scheme(config)
        clear_shared_caches()
        cold = run_scheme(config)
        assert np.array_equal(warm.state.flat, cold.state.flat)
        assert warm.distribution == cold.distribution and warm.trace == cold.trace

    @pytest.mark.parametrize("kind", ["multipixel-zeno", "michelson-zeno",
                                      "multipixel-single-pass"])
    def test_replaced_element_changes_the_next_run(self, kind, monkeypatch):
        config = SchemeConfig(kind, PixelPattern.from_bits("110"), 20)
        before = run_scheme(config)
        # A splitter that lets every photon pass.
        monkeypatch.setattr(core, "polarising_beam_splitter",
                            lambda d: core.mirror_reflect("retro", d))
        monkeypatch.setattr(core, "beam_splitter", lambda d: core.mirror_reflect("retro", d))
        broken = run_scheme(config)
        assert broken.distribution != before.distribution
        monkeypatch.undo()
        after = run_scheme(config)
        assert after.distribution == before.distribution
