"""Closed-form evaluators: table values, identities, asymptotics."""

import math

import numpy as np
import pytest

from ifmsim import analytics
from ifmsim.analytics import (
    AnalyticReport,
    exact_distribution,
    multipixel_single_pass_table,
    multipixel_zeno_survival,
    per_cycle_absorption,
    semitransparent_asymptotic,
    semitransparent_exact,
)
from ifmsim.core import PixelPattern
from ifmsim.schemes import SchemeConfig, run_scheme


def single_pass_report(f):
    """Closed-form report of the single-pixel single-pass run on occupancy ``f``."""
    return exact_distribution(SchemeConfig("ev-single-pass", PixelPattern.from_bits([f])))


def cycling_report(n, f):
    """Closed-form report of the single-pixel cycling run on occupancy ``f``."""
    return exact_distribution(SchemeConfig("zeno-single-pixel", PixelPattern.from_bits([f]), n))


class TestEvTable:
    def test_absent_object(self):
        report = single_pass_report(0)
        assert report.exact == {"D0": 1.0, "D1": 0.0}
        assert report.p_abs == 0.0

    def test_present_object(self):
        report = single_pass_report(1)
        assert report.exact == {"D0": 0.25, "D1": 0.25}
        assert report.p_abs == 0.5
        assert report.efficiency == 0.25

    def test_sums_to_one_exactly(self):
        for f in (0, 1):
            report = single_pass_report(f)
            assert sum(report.exact.values()) + report.p_abs == 1.0

    def test_rejects_bad_bit(self):
        # A semi-transparent pixel has no single-pass closed form.
        with pytest.raises(ValueError):
            exact_distribution(SchemeConfig("ev-single-pass", PixelPattern((0.5,))))


class TestZenoSingleExact:
    def test_single_cycle_always_absorbs(self):
        # N=1 means a full pi/2 rotation in one step: the photon is fully
        # routed into the blocked arm.
        report = cycling_report(1, f=1)
        assert report.exact["Dh"] == pytest.approx(0.0, abs=1e-30)
        assert report.p_abs == pytest.approx(1.0, abs=1e-30)

    def test_large_n_absorption_shrinks_as_quarter_pi_sq_over_n(self):
        # Exact minus leading order is second order in pi^2/4N.
        for n in (100, 1000, 10000):
            report = cycling_report(n, f=1)
            leading = np.pi**2 / (4 * n)
            assert report.p_abs == pytest.approx(leading, abs=leading**2)

    def test_first_order_expansion_error_bound(self):
        n = 1000
        report = cycling_report(n, f=1)
        assert abs(report.exact["Dh"] - (1.0 - np.pi**2 / (4 * n))) <= 5.0 / n**2

    def test_absent_object_fully_rotates(self):
        report = cycling_report(25, f=0)
        assert report.exact["Dv"] == pytest.approx(1.0, abs=1e-12)
        assert report.p_abs == 0.0


class TestSinglePassTable:
    def test_single_pixel_reduces_to_two_arm_values(self):
        report = multipixel_single_pass_table(1, PixelPattern.from_bits("1"))
        assert report.exact["D0_0"] == pytest.approx(0.25, abs=0)
        assert report.exact["Dd_0"] == pytest.approx(0.25, abs=0)
        assert report.p_abs == pytest.approx(0.5, abs=0)

    def test_survival_with_two_opaque_of_four(self):
        report = multipixel_single_pass_table(4, PixelPattern.from_bits("1100"))
        assert 1.0 - report.p_abs == pytest.approx(6.0 / 8.0, abs=1e-15)

    def test_all_transparent_puts_everything_on_bright_port(self):
        d = 5
        report = multipixel_single_pass_table(d, PixelPattern.transparent(d))
        for ell in range(d):
            assert report.exact[f"D0_{ell}"] == pytest.approx(1.0 / d, abs=1e-15)
            assert report.exact[f"Dd_{ell}"] == 0.0
        assert report.p_abs == 0.0

    def test_rejects_semitransparent(self):
        with pytest.raises(ValueError):
            multipixel_single_pass_table(2, PixelPattern((0.5, 1.0)))


class TestZenoSurvival:
    def test_no_opaque_pixels(self):
        assert multipixel_zeno_survival(4, 0, 10, np.pi / 20) == 1.0

    def test_hand_evaluated_case(self):
        # d=2, one opaque pixel, two cycles at pi/4:
        # 1 - (1/2) (1 - cos^4(pi/4)) = 1 - (1/2)(1 - 1/4) = 5/8.
        assert multipixel_zeno_survival(2, 1, 2, np.pi / 4) == pytest.approx(0.625, abs=1e-15)

    def test_all_opaque_matches_single_pixel(self):
        for n in (1, 5, 40):
            theta = np.pi / (2 * n)
            expected = math.cos(theta) ** (2 * n)
            for d in (1, 3, 8):
                assert multipixel_zeno_survival(d, d, n, theta) == pytest.approx(
                    expected, abs=1e-14
                )

    def test_rejects_bad_opaque_count(self):
        with pytest.raises(ValueError):
            multipixel_zeno_survival(2, 3, 4, 0.1)


class TestPerCycleAbsorption:
    def test_first_cycle_single_pixel(self):
        theta = 0.3
        assert per_cycle_absorption(1, 1, 0, theta) == pytest.approx(
            math.sin(theta) ** 2, abs=1e-15
        )

    def test_transparent_object_never_absorbs(self):
        assert per_cycle_absorption(6, 0, 3, 0.2) == 0.0

    def test_survival_telescopes(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(1, 9))
            n_abs = int(rng.integers(0, d + 1))
            n = int(rng.integers(1, 65))
            theta = np.pi / (2 * n)
            product = 1.0
            for k in range(n):
                product *= 1.0 - per_cycle_absorption(d, n_abs, k, theta)
            expected = multipixel_zeno_survival(d, n_abs, n, theta)
            assert product == pytest.approx(expected, abs=1e-12)


class TestTransmissionBlock:
    def test_full_transmission_is_a_rotation(self):
        theta = 0.37
        block = analytics.transmission_block(1.0, theta)
        rotation = np.array([
            [np.cos(theta), -np.sin(theta)],
            [np.sin(theta), np.cos(theta)],
        ])
        assert np.array_equal(block, rotation)

    def test_opaque_zeroes_second_row(self):
        block = analytics.transmission_block(0.0, 0.37)
        assert np.array_equal(block[1], np.zeros(2))


class TestSemitransparentExact:
    def test_fully_transparent_rotates_to_v(self):
        d, n = 3, 20
        report = semitransparent_exact(d, n, np.pi / (2 * n), (1.0,) * d)
        for ell in range(d):
            assert report.exact[f"D{ell}_v"] == pytest.approx(1.0 / d, abs=1e-12)
            assert abs(report.exact[f"D{ell}_h"]) <= 1e-12
        assert abs(report.p_abs) <= 1e-12

    def test_opaque_limit_matches_survival_formula(self):
        for d, n in ((1, 3), (4, 16), (2, 64)):
            theta = np.pi / (2 * n)
            report = semitransparent_exact(d, n, theta, (0.0,) * d)
            expected = multipixel_zeno_survival(d, d, n, theta)
            assert 1.0 - report.p_abs == pytest.approx(expected, abs=1e-12)

    def test_matches_state_vector_run(self):
        # Ground truth for the block power is the full per-cycle simulation.
        cfg = SchemeConfig("semitransparent-zeno", PixelPattern((0.25,)), 50)
        run = run_scheme(cfg).distribution
        report = semitransparent_exact(1, 50, cfg.effective_theta, (0.25,))
        for label, p in report.exact.items():
            assert run.probabilities[label] == pytest.approx(p, abs=1e-10)
        assert run.p_abs == pytest.approx(report.p_abs, abs=1e-10)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            semitransparent_exact(1, 5, 0.1, (1.2,))

    def test_transparent_limit_uses_exact_rotation(self):
        # At T = 1 the oracle uses sin^2(N theta), not the 2x2 power, so it
        # does not inherit the 9.8e-13 norm drift of 10^5 rotation products.
        n = 10**5
        report = semitransparent_exact(1, n, np.pi / (2 * n), (1.0,))
        assert abs(report.p_abs) <= 2 * np.finfo(float).eps

    def test_transparent_pixels_add_no_absorption(self):
        # Summed over pixels, the transparent ones' cos^2 + sin^2 rounds
        # above 1: d = 11, N = 50 read p_abs = -2.2e-16.
        n = 50
        theta = np.pi / (2 * n)
        assert semitransparent_exact(11, n, theta, (1.0,) * 11).p_abs == 0.0
        mixed = semitransparent_exact(3, n, theta, (1.0, 0.0, 1.0))
        assert mixed.p_abs == (1.0 - np.cos(theta) ** (2 * n)) / 3

    def test_binary_limits_are_trigonometric_and_close_to_block_power(self):
        # The block power drifts from the exact forms by rounding (1.3e-12
        # at N = 10^4), well inside the 1e-10 oracle tolerance of verify.
        for n in (1, 7, 100, 10**4, 10**5):
            theta = np.pi / (2 * n)
            assert analytics.block_probabilities(1.0, theta, n) == (
                np.cos(n * theta) ** 2, np.sin(n * theta) ** 2)
            assert analytics.block_probabilities(0.0, theta, n) == (
                np.cos(theta) ** (2 * n), 0.0)
            for t in (0.0, 1.0):
                amps = np.linalg.matrix_power(analytics.transmission_block(t, theta), n)[:, 0]
                exact = analytics.block_probabilities(t, theta, n)
                assert np.allclose(exact, amps**2, rtol=0, atol=1e-10)

    def test_array_input_matches_scalar_calls(self):
        ts = np.linspace(0.0, 1.0, 11)
        ph, pv = analytics.block_probabilities(ts, 0.05, 30)
        for k, t in enumerate(ts):
            assert (ph[k], pv[k]) == analytics.block_probabilities(float(t), 0.05, 30)


class TestSemitransparentAsymptotic:
    def test_opaque_pixels_reproduce_zeno_row(self):
        d, n = 4, 1000
        report = semitransparent_asymptotic(d, n, (0.0,) * d)
        for ell in range(d):
            expected = (1.0 - np.pi**2 / (4 * n)) / d
            assert report.asymptotic[f"D{ell}_h"] == pytest.approx(expected, abs=1e-15)
            assert report.asymptotic[f"D{ell}_v"] == 0.0

    def test_quarter_transmission_coefficient(self):
        # (1 + sqrt(0.25)) / (1 - sqrt(0.25)) = 3
        n = 1000
        report = semitransparent_asymptotic(1, n, (0.25,))
        expected_ph = 1.0 - 3.0 * np.pi**2 / (4 * n)
        assert report.asymptotic["D0_h"] == pytest.approx(expected_ph, abs=1e-15)

    def test_v_probability_scales_inverse_n_squared(self):
        t = 0.25
        p1 = semitransparent_asymptotic(1, 1000, (t,)).asymptotic["D0_v"]
        p2 = semitransparent_asymptotic(1, 2000, (t,)).asymptotic["D0_v"]
        assert p1 / p2 == pytest.approx(4.0, abs=1e-9)

    def test_rejects_transparent_pole(self):
        with pytest.raises(ValueError, match="pole"):
            semitransparent_asymptotic(2, 100, (0.5, 1.0))


class TestAsymptoticDistribution:
    def test_equals_semitransparent_asymptotic_below_full_transmission(self):
        ts = (0.0, 0.3, 0.8)
        cfg = SchemeConfig("semitransparent-zeno", PixelPattern(ts), 500)
        report = analytics.asymptotic_distribution(cfg)
        expected = semitransparent_asymptotic(3, 500, ts)
        assert report.asymptotic == expected.asymptotic
        assert report.p_abs == expected.p_abs
        assert report.exact is None

    def test_transparent_pixels_add_no_absorption(self):
        # d copies of 1/d summed above 1: d = 9 and 11 read p_abs = -2.2e-16.
        for d in (9, 11):
            cfg = SchemeConfig("multipixel-zeno", PixelPattern.transparent(d), 100)
            p_abs = analytics.asymptotic_distribution(cfg).p_abs
            assert p_abs == 0.0 and type(p_abs) is float
        mixed = SchemeConfig("multipixel-zeno", PixelPattern.from_bits("101"), 100)
        opaque = semitransparent_asymptotic(1, 100, (0.0,))
        assert analytics.asymptotic_distribution(mixed).p_abs == 2 * opaque.p_abs / 3

    def test_transparent_pixel_takes_exact_limit(self):
        cfg = SchemeConfig("multipixel-zeno", PixelPattern.from_bits("100"), 200)
        report = analytics.asymptotic_distribution(cfg)
        assert report.asymptotic["D1_h"] == 0.0
        assert report.asymptotic["D1_v"] == 1.0 / 3
        assert report.asymptotic["D2_v"] == 1.0 / 3

    def test_folded_scheme_swaps_labels(self):
        pattern = PixelPattern((0.2, 1.0))
        mz = analytics.asymptotic_distribution(SchemeConfig("multipixel-zeno", pattern, 100))
        mich = analytics.asymptotic_distribution(SchemeConfig("michelson-zeno", pattern, 100))
        for ell in range(2):
            assert mich.asymptotic[f"D{ell}_h"] == mz.asymptotic[f"D{ell}_v"]
            assert mich.asymptotic[f"D{ell}_v"] == mz.asymptotic[f"D{ell}_h"]
        assert mich.p_abs == mz.p_abs

    def test_single_pixel_scheme_uses_its_detector_labels(self):
        cfg = SchemeConfig("zeno-single-pixel", PixelPattern.from_bits("1"), 100)
        report = analytics.asymptotic_distribution(cfg)
        expected = semitransparent_asymptotic(1, 100, (0.0,)).asymptotic
        assert report.asymptotic == {"Dh": expected["D0_h"], "Dv": expected["D0_v"]}

    def test_none_off_the_canonical_angle_or_for_single_pass(self):
        pattern = PixelPattern.from_bits("10")
        assert analytics.asymptotic_distribution(
            SchemeConfig("multipixel-single-pass", pattern)) is None
        assert analytics.asymptotic_distribution(
            SchemeConfig("ev-single-pass", PixelPattern.from_bits("1"))) is None


class TestReportInvariants:
    def test_exact_reports_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            d = int(rng.integers(1, 8))
            n = int(rng.integers(1, 100))
            report = semitransparent_exact(d, n, np.pi / (2 * n), tuple(rng.random(d)))
            assert sum(report.exact.values()) + report.p_abs == pytest.approx(1.0, abs=1e-12)

    def test_asymptotic_sum_error_scales_inverse_n_squared(self):
        d = 2
        t = (0.3, 0.6)
        gaps = []
        for n in (1000, 2000, 4000):
            report = semitransparent_asymptotic(d, n, t)
            exact = semitransparent_exact(d, n, np.pi / (2 * n), t)
            gaps.append(abs(report.p_abs - exact.p_abs))
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.2)
        assert gaps[1] / gaps[2] == pytest.approx(4.0, rel=0.2)

    def test_invalid_exact_sum_rejected(self):
        with pytest.raises(ValueError):
            AnalyticReport({"A": 0.5}, None, 0.4)


class TestOracleEquivalence:
    def test_random_configs_match_simulation(self):
        rng = np.random.default_rng(2)
        kinds = (
            "ev-single-pass",
            "multipixel-single-pass",
            "zeno-single-pixel",
            "multipixel-zeno",
            "semitransparent-zeno",
            "michelson-zeno",
        )
        for _ in range(200):
            kind = kinds[rng.integers(0, len(kinds))]
            single = kind in ("ev-single-pass", "zeno-single-pixel")
            d = 1 if single else int(rng.integers(1, 9))
            binary = kind in ("ev-single-pass", "multipixel-single-pass", "zeno-single-pixel")
            if binary:
                pattern = PixelPattern.from_bits(rng.integers(0, 2, size=d))
            else:
                pattern = PixelPattern(tuple(rng.random(d)))
            cfg = SchemeConfig(kind, pattern, int(rng.integers(1, 65)))
            report = analytics.exact_distribution(cfg)
            run = run_scheme(cfg).distribution
            for label, p in report.exact.items():
                assert run.probabilities[label] == pytest.approx(p, abs=1e-10)
            assert run.p_abs == pytest.approx(report.p_abs, abs=1e-10)


class TestConvergenceProperties:
    def test_scaled_h_error_bounded_and_decreasing(self):
        # N |p_h_exact - p_h_asym| must decrease with N for every tested T.
        for t in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9):
            scaled = []
            for n in (1000, 2000, 4000, 10000):
                exact = analytics.block_probabilities(t, np.pi / (2 * n), n)[0]
                asym = semitransparent_asymptotic(1, n, (t,)).asymptotic["D0_h"]
                scaled.append(n * abs(exact - asym))
            assert all(a > b for a, b in zip(scaled, scaled[1:])), (t, scaled)
            assert scaled[0] < 10.0

    def test_absorption_vanishes_for_large_n(self):
        for t in (0.0, 0.2, 0.5, 0.8, 0.95):
            p_abs = []
            for n in (100, 1000, 10000):
                theta = np.pi / (2 * n)
                p_abs.append(semitransparent_exact(1, n, theta, (t,)).p_abs)
            assert p_abs[2] < p_abs[1] < p_abs[0]

    def test_cycling_efficiency_beats_single_pass(self):
        # Conditional revealing-click probability per opaque pixel is
        # cos^2N(pi/2N), above the single-pass 1/4 from three cycles on.
        for n in range(3, 65):
            efficiency = cycling_report(n, f=1).efficiency
            assert efficiency > 0.25
        assert cycling_report(2, f=1).efficiency == pytest.approx(0.25, abs=1e-12)
