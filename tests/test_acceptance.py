"""Acceptance gate: one test per release criterion, at fixed tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s``);
failures also raise normally so the suite stays a regular pytest module.
"""

import io
import itertools
import math
import time

import numpy as np

from ifmsim import analytics, core
from ifmsim.core import POL_H, POL_V, PixelPattern, basis_index
from ifmsim.experiment import (
    estimate_transmissions,
    reconstruct_pattern,
    sample_shots,
    shot_csv,
)
from ifmsim.schemes import SchemeConfig, run_scheme


def _report(number: int, name: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"[acceptance {number:02d}] {name}: FAIL")
        raise
    print(f"[acceptance {number:02d}] {name}: PASS")


def test_c01_single_pixel_single_pass_outcomes():
    def body():
        start = time.time()
        absent = run_scheme(SchemeConfig("ev-single-pass", PixelPattern.from_bits("0")))
        assert abs(absent.distribution.probabilities["D0"] - 1.0) <= 1e-12
        assert abs(absent.distribution.probabilities["D1"]) <= 1e-12
        assert abs(absent.distribution.p_abs) <= 1e-12
        present = run_scheme(SchemeConfig("ev-single-pass", PixelPattern.from_bits("1")))
        assert abs(present.distribution.probabilities["D0"] - 0.25) <= 1e-12
        assert abs(present.distribution.probabilities["D1"] - 0.25) <= 1e-12
        assert abs(present.distribution.p_abs - 0.5) <= 1e-12
        assert time.time() - start < 1.0

    _report(1, "single-pixel single-pass outcome table", body)


def test_c02_single_pixel_cycling_survival():
    def body():
        start = time.time()
        for n in (10, 100, 1000):
            cfg = SchemeConfig("zeno-single-pixel", PixelPattern.from_bits("1"), n)
            run_ph = run_scheme(cfg).distribution.probabilities["Dh"]
            exact_ph = analytics.exact_distribution(cfg).exact["Dh"]
            assert abs(run_ph - exact_ph) <= 1e-12
            assert abs(run_ph - (1.0 - np.pi**2 / (4 * n))) <= 5.0 / n**2
        assert time.time() - start < 1.0

    _report(2, "single-pixel cycling survival law", body)


def test_c03_multipixel_single_pass_table():
    def body():
        rng = np.random.default_rng(303)
        for d in (2, 4, 8):
            for _ in range(20):
                bits = rng.integers(0, 2, size=d)
                cfg = SchemeConfig("multipixel-single-pass", PixelPattern.from_bits(bits))
                dist = run_scheme(cfg).distribution
                for ell, f in enumerate(bits):
                    bright = dist.probabilities[f"D0_{ell}"]
                    dark = dist.probabilities[f"Dd_{ell}"]
                    if f:
                        assert abs(bright - 1 / (4 * d)) <= 1e-12
                        assert abs(dark - 1 / (4 * d)) <= 1e-12
                    else:
                        assert abs(bright - 1 / d) <= 1e-12
                        assert abs(dark) <= 1e-12
                assert abs(dist.p_abs - int(bits.sum()) / (2 * d)) <= 1e-12

    _report(3, "multi-pixel single-pass outcome table", body)


def test_c04_cycling_survival_and_trace_against_closed_form():
    def body():
        for d in range(1, 9):
            for n_abs in range(d + 1):
                bits = [1] * n_abs + [0] * (d - n_abs)
                for n in range(1, 65):
                    theta = np.pi / (2 * n)
                    cfg = SchemeConfig("multipixel-zeno", PixelPattern.from_bits(bits), n)
                    result = run_scheme(cfg)
                    survival = 1.0 - result.distribution.p_abs
                    expected = 1.0 - (n_abs / d) * (1.0 - math.cos(theta) ** (2 * n))
                    assert abs(survival - expected) <= 1e-10, (d, n_abs, n)
                    c2 = math.cos(theta) ** 2
                    c2n = 1.0
                    for k, p_abs_cycle in enumerate(result.trace.p_abs_cycle):
                        per_cycle = (
                            n_abs * c2n * math.sin(theta) ** 2
                            / (d - n_abs + n_abs * c2n)
                        )
                        assert abs(p_abs_cycle - per_cycle) <= 1e-10, (d, n_abs, n, k + 1)
                        c2n *= c2

    _report(4, "cycling survival and per-cycle trace", body)


def test_c05_large_cycle_count_outcome_table():
    def body():
        d, n = 4, 10_000
        bits = (1, 0, 0, 1)
        cfg = SchemeConfig("multipixel-zeno", PixelPattern.from_bits(bits), n)
        dist = run_scheme(cfg).distribution
        for ell, f in enumerate(bits):
            ph = dist.probabilities[f"D{ell}_h"]
            pv = dist.probabilities[f"D{ell}_v"]
            if f:
                assert abs(ph - (1.0 - np.pi**2 / (4 * n)) / d) <= 1e-7
                # The blocked arm zeroes the V amplitude every cycle, so
                # this probability is structurally zero, bit for bit.
                assert pv == 0.0
            else:
                assert abs(pv - 1.0 / d) <= 1e-12
                # A transparent pixel is pure rotation by N theta = pi/2,
                # so the H residue is not a structural zero: rounding of
                # theta alone leaves an angle error of order N epsilon,
                # i.e. a probability residue up to ~1e-24 at N = 1e4.
                assert ph <= 1e-24

    _report(5, "large-N multi-pixel outcome table", body)


def test_c06_sorter_converter_swap_identity():
    def body():
        for d in range(1, 7):
            composite = core.oam_converter(d).matrix @ core.oam_sorter(d).matrix
            for pol in (POL_H, POL_V):
                cols = [basis_index(d, pol, ell, 0) for ell in range(d)]
                actual = composite[:, cols]
                target = np.zeros_like(actual)
                for ell in range(d):
                    target[basis_index(d, pol, 0, ell), ell] = 1.0
                assert np.linalg.norm(actual - target, 2) <= 1e-12

    _report(6, "sorter plus converter acts as an OAM/path swap", body)


def test_c07_folded_scheme_equivalence():
    def body():
        rng = np.random.default_rng(707)
        for d in (1, 2, 3, 4):
            for n in range(1, 65):
                bits = rng.integers(0, 2, size=d)
                pattern = PixelPattern.from_bits(bits)
                mz = run_scheme(SchemeConfig("multipixel-zeno", pattern, n)).distribution
                mich = run_scheme(SchemeConfig("michelson-zeno", pattern, n)).distribution
                for ell in range(d):
                    assert abs(
                        mich.probabilities[f"D{ell}_v"] - mz.probabilities[f"D{ell}_h"]
                    ) <= 1e-10
                    assert abs(
                        mich.probabilities[f"D{ell}_h"] - mz.probabilities[f"D{ell}_v"]
                    ) <= 1e-10
                assert abs(mich.p_abs - mz.p_abs) <= 1e-10

    _report(7, "folded scheme equals cycling scheme with labels reversed", body)


def test_c08_semitransparent_exact_and_asymptotics():
    def body():
        rng = np.random.default_rng(808)
        # Exact block power against the full per-cycle state-vector run.
        cases = [(d, n) for d in (1, 2, 3, 4) for n in (1, 7, 50, 200)]
        for d, n in cases:
            ts = tuple(rng.random(d))
            cfg = SchemeConfig("semitransparent-zeno", PixelPattern(ts), n)
            run = run_scheme(cfg).distribution
            report = analytics.exact_distribution(cfg)
            for label, p in report.exact.items():
                assert abs(run.probabilities[label] - p) <= 1e-10, (d, n, label)
            assert abs(run.p_abs - report.p_abs) <= 1e-10

        # Scaled error of the large-N h-probability decreases monotonically.
        t, d = 0.25, 4
        grid = (1000, 2000, 4000, 10000)
        scaled = []
        pv_exact = {}
        for n in grid:
            cfg = SchemeConfig("multipixel-zeno", PixelPattern((t,) * d), n)
            exact = analytics.exact_distribution(cfg)
            asym = analytics.asymptotic_distribution(cfg)
            scaled.append(n * abs(exact.exact["D0_h"] - asym.asymptotic["D0_h"]))
            pv_exact[n] = exact.exact["D0_v"]
        assert all(a > b for a, b in zip(scaled, scaled[1:])), scaled

        # The v-detector probability scales as 1/N^2.
        for n in (1000, 2000):
            ratio = pv_exact[n] / pv_exact[2 * n]
            assert 3.5 <= ratio <= 4.5, (n, ratio)

    _report(8, "semi-transparent closed form and large-N scaling", body)


def test_c09_vanishing_absorption():
    def body():
        for t in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95):
            p_abs = {}
            for n in (100, 1000, 10000):
                cfg = SchemeConfig("multipixel-zeno", PixelPattern((t,)), n)
                p_abs[n] = analytics.exact_distribution(cfg).p_abs
            assert p_abs[10000] < p_abs[1000] < p_abs[100], (t, p_abs)

    _report(9, "absorption vanishes with growing cycle count", body)


def test_c10_monte_carlo_sampling():
    def body():
        n_shots = 100_000
        cfg = SchemeConfig("ev-single-pass", PixelPattern.from_bits("1"))
        counts = sample_shots(cfg, n_shots, seed=1010)
        for label, p in (("D0", 0.25), ("D1", 0.25), ("absorbed", 0.5)):
            sigma = math.sqrt(p * (1 - p) / n_shots)
            assert abs(counts.frequency(label) - p) <= 4 * sigma, label

        # Impossible outcomes: the absent-object run never fires the dark
        # detector, and opaque pixels never fire their v detectors.
        absent_counts = sample_shots(
            SchemeConfig("ev-single-pass", PixelPattern.from_bits("0")), n_shots, seed=2020
        )
        assert absent_counts.counts["D1"] == 0
        zeno_cfg = SchemeConfig("multipixel-zeno", PixelPattern.from_bits("1100"), 100)
        zeno_counts = sample_shots(zeno_cfg, n_shots, seed=3030)
        assert zeno_counts.counts["D0_v"] == 0
        assert zeno_counts.counts["D1_v"] == 0

        # Bit-identical rerun.
        dist = run_scheme(cfg).distribution
        assert sample_shots(cfg, n_shots, seed=1010) == counts
        first, second = io.StringIO(), io.StringIO()
        shot_csv(dist, n_shots, 1010, first)
        shot_csv(dist, n_shots, 1010, second)
        assert first.getvalue() == second.getvalue()

    _report(10, "Monte Carlo frequencies, forbidden outcomes, determinism", body)


def test_c11_imaging_end_to_end():
    def body():
        start = time.time()
        rng = np.random.default_rng(1111)
        d, n_cycles, n_shots = 8, 100, 80_000
        successes = 0
        for seed in range(100):
            bits = rng.integers(0, 2, size=d)
            cfg = SchemeConfig("multipixel-zeno", PixelPattern.from_bits(bits), n_cycles)
            counts = sample_shots(cfg, n_shots, seed=seed)
            image = reconstruct_pattern(counts, cfg)
            expected = tuple("opaque" if b else "transparent" for b in bits)
            successes += image.verdicts == expected
        assert successes >= 99, successes
        assert time.time() - start < 30.0

    _report(11, "end-to-end image reconstruction", body)


def test_c12_transmission_discrimination():
    def body():
        cfg = SchemeConfig("semitransparent-zeno", PixelPattern((0.1, 0.9)), 100)
        correct = 0
        for seed in range(100):
            counts = sample_shots(cfg, 100_000, seed=seed)
            image = estimate_transmissions(counts, cfg)
            correct += image.transmission[0] < image.transmission[1]
        assert correct >= 99, correct

    _report(12, "high-contrast transmission ordering", body)
