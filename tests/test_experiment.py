"""Shot sampling, reconstruction and estimation tests."""

import io
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ifmsim import analytics, core, experiment
from ifmsim.core import DetectionDistribution, PixelPattern
from ifmsim.experiment import (
    CHUNK,
    GUIDE_BUCKETS,
    UNKNOWN,
    ClickCounts,
    estimate_transmissions,
    reconstruct_pattern,
    sample_distribution,
    sample_shots,
    shot_csv,
    statistical_check,
)
from ifmsim.schemes import SchemeConfig, run_scheme


def counts_from(config, mapping, total=None):
    counts = dict(mapping)
    n = total if total is not None else sum(counts.values())
    absorbed = n - sum(counts.values())
    return ClickCounts(counts, absorbed, n)


def reference_ids(probabilities, seed, n):
    """Category ids by the unchunked sampler: one draw of ``n`` uniforms, each searched."""
    u = np.random.Generator(np.random.Philox(key=seed)).random(n)
    edges = np.cumsum(probabilities)
    return np.minimum(np.searchsorted(edges, u, side="right"), len(probabilities) - 1)


def reference_csv(labels, ids):
    lines = ["shot_index,outcome_label"]
    lines.extend(f"{k},{labels[oid]}" for k, oid in enumerate(ids))
    return "\n".join(lines) + "\n"


def f_string_csv(distribution, n_shots, seed):
    """The chunks of ``shot_csv`` written with one f-string per shot."""
    labels, table, chunks = experiment._shot_draws(distribution, n_shots, seed)
    yield "shot_index,outcome_label\n"
    start = 0
    for ids in map(table.ids, chunks):
        yield "".join([f"{k},{labels[i]}\n"
                       for k, i in zip(range(start, start + len(ids)), ids.tolist())])
        start += len(ids)


def labels_of(distribution):
    """Outcome labels of a distribution's shots, ``absorbed`` last."""
    return tuple(distribution.probabilities) + ("absorbed",)


def csv_of(distribution, n, seed):
    stream = io.StringIO()
    shot_csv(distribution, n, seed, stream)
    return stream.getvalue()


def distribution_of(probabilities):
    """Detection distribution over D0, D1, ... with the last entry as p_abs."""
    labels = [f"D{i}" for i in range(len(probabilities) - 1)]
    return DetectionDistribution(dict(zip(labels, probabilities[:-1])), probabilities[-1])


def _dirichlet_with_gaps():
    p = np.random.default_rng(5).dirichlet(np.ones(17))
    p[[2, 3, 11]] = 0.0
    return list(p / p.sum())


# Distributions that stress the guide table: zero bins around a certain
# outcome, bins far narrower than a bucket, cumulative sums that end just
# below and just above 1, and a random one with empty bins.
ADVERSARIAL = {
    "certain-among-zero-bins": [0.0, 0.0, 1.0, 0.0, 0.0],
    "1e-9-bins": [1e-9, 0.25, 1e-9, 1e-9, 0.75 - 3e-9, 0.0],
    "sum-just-below-1": [0.7, 0.2, 0.1],
    "sum-just-above-1": [0.34, 0.56, 0.1],
    "dirichlet-with-zero-bins": _dirichlet_with_gaps(),
}


class TestSampling:
    def test_certain_outcome_always_sampled(self):
        dist = DetectionDistribution({"D0": 1.0, "D1": 0.0}, 0.0)
        counts = sample_distribution(dist, 500, seed=1)
        assert counts.counts == {"D0": 500, "D1": 0}
        assert counts.absorbed == 0
        assert all(line.endswith(",D0") for line in csv_of(dist, 500, 1).splitlines()[1:])

    def test_ev_frequencies_within_sampling_error(self):
        cfg = SchemeConfig("ev-single-pass", PixelPattern.from_bits("1"))
        counts = sample_shots(cfg, 100_000, seed=7)
        n = counts.total
        for label, p in (("D0", 0.25), ("D1", 0.25)):
            sigma = np.sqrt(p * (1 - p) / n)
            assert abs(counts.frequency(label) - p) <= 4 * sigma
        sigma = np.sqrt(0.5 * 0.5 / n)
        assert abs(counts.absorbed / n - 0.5) <= 4 * sigma

    def test_same_seed_is_bit_identical(self):
        cfg = SchemeConfig("multipixel-zeno", PixelPattern.from_bits("1010"), 50)
        dist = run_scheme(cfg).distribution
        assert sample_shots(cfg, 20_000, seed=99) == sample_shots(cfg, 20_000, seed=99)
        assert csv_of(dist, 20_000, 99) == csv_of(dist, 20_000, 99)

    def test_different_seeds_differ(self):
        cfg = SchemeConfig("ev-single-pass", PixelPattern.from_bits("1"))
        dist = run_scheme(cfg).distribution
        assert csv_of(dist, 1000, 0) != csv_of(dist, 1000, 1)

    def test_csv_format(self):
        dist = DetectionDistribution({"D0": 1.0}, 0.0)
        assert csv_of(dist, 3, 5) == "shot_index,outcome_label\n0,D0\n1,D0\n2,D0\n"

    def test_csv_chunks_equal_one_f_string_per_shot(self):
        dist = run_scheme(SchemeConfig("michelson-zeno", PixelPattern((0.4, 1.0, 0.0)), 9)
                          ).distribution
        n = 2 * CHUNK + 3
        chunks = []
        shot_csv(dist, n, 11, SimpleNamespace(write=chunks.append))
        assert chunks == list(f_string_csv(dist, n, seed=11))

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            ClickCounts({"x": 3}, 1, 3)

    def test_impossible_outcomes_never_sampled(self):
        # Opaque pixels have their v amplitude zeroed every cycle, so the
        # matching detectors carry exactly zero probability.
        cfg = SchemeConfig("multipixel-zeno", PixelPattern.from_bits("1100"), 30)
        dist = run_scheme(cfg).distribution
        assert dist.probabilities["D0_v"] == 0.0
        assert dist.probabilities["D1_v"] == 0.0
        counts = sample_shots(cfg, 100_000, seed=3)
        assert counts.counts["D0_v"] == 0
        assert counts.counts["D1_v"] == 0

    def test_absorbed_shots_match_the_traced_cycle_losses(self):
        # The absorbed share is the survival lost over the cycles.
        cfg = SchemeConfig("zeno-single-pixel", PixelPattern.from_bits("1"), 10)
        n = 50_000
        counts = sample_shots(cfg, n, seed=11)
        q = 1.0 - run_scheme(cfg).trace.survival[-1]
        sigma = np.sqrt(q * (1 - q) / n)
        assert abs(counts.absorbed / n - q) <= 5 * sigma

    def test_seeds_agree_within_sampling_error(self):
        cfg = SchemeConfig("multipixel-zeno", PixelPattern.from_bits("10"), 8)
        n = 200_000
        a = sample_shots(cfg, n, seed=21)
        b = sample_shots(cfg, n, seed=22)
        assert a != b
        for label, p in run_scheme(cfg).distribution.probabilities.items():
            sigma = np.sqrt(max(p * (1 - p) / n, 1e-12))
            assert abs(a.frequency(label) - b.frequency(label)) <= 8 * sigma + 1e-9

    def test_rejects_zero_shots(self):
        cfg = SchemeConfig("ev-single-pass", PixelPattern.from_bits("0"))
        with pytest.raises(ValueError):
            sample_shots(cfg, 0, seed=0)
        stream = io.StringIO()
        with pytest.raises(ValueError):
            shot_csv(run_scheme(cfg).distribution, 0, 0, stream)
        assert stream.getvalue() == ""


def assert_matches_full_search(probabilities, n, seed):
    """Counts and CSV of ``n`` shots equal those of the unchunked full search."""
    dist = distribution_of(probabilities)
    counts = sample_distribution(dist, n, seed)
    labels = labels_of(dist)
    ids = reference_ids(probabilities, seed, n)
    tally = np.bincount(ids, minlength=len(probabilities))
    assert [counts.counts[label] for label in labels[:-1]] == list(tally[:-1])
    assert counts.absorbed == tally[-1]
    assert csv_of(dist, n, seed) == reference_csv(labels, ids)


class TestChunkedSampler:
    """The chunked guide-table sampler against the unchunked full search."""

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1])
    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    def test_counts_and_csv_match_full_search(self, name, n):
        assert_matches_full_search(ADVERSARIAL[name], n, seed=17)

    def test_sum_below_1_caps_at_the_last_category(self):
        # A quarter of the uniforms lie beyond every cumulative probability.
        probabilities = np.array([0.25, 0.25, 0.25])
        table = experiment._GuideTable(probabilities)
        raw = experiment._raw_chunks(np.random.Philox(key=3), CHUNK + 1)
        ids = np.concatenate(list(map(table.ids, raw)))
        assert np.array_equal(ids, reference_ids(probabilities, 3, CHUNK + 1))
        raw = experiment._raw_chunks(np.random.Philox(key=3), CHUNK + 1)
        assert np.array_equal(table.tally(raw), np.bincount(ids, minlength=3))

    def test_more_categories_than_buckets(self):
        # 5005 categories, more than the 4096 guide buckets, so many
        # buckets are searched.
        probabilities = np.random.default_rng(23).dirichlet(np.ones(5005))
        assert len(probabilities) > experiment.GUIDE_BUCKETS
        assert_matches_full_search(list(probabilities), CHUNK + 1, seed=23)

    def test_shot_k_depends_only_on_seed_and_k(self):
        # Philox yields four 64-bit outputs per counter step, so starting
        # the counter at k skips 4k shots: a batch drawn from there is the
        # tail of one draw, and the tallies of the two batches add up to its
        # tally.
        probabilities = ADVERSARIAL["dirichlet-with-zero-bins"]
        n, k = 3 * CHUNK + 7, 12_345
        full = reference_ids(probabilities, 9, n)
        table = experiment._GuideTable(np.array(probabilities))
        raw = experiment._raw_chunks(np.random.Philox(key=9, counter=k), n - 4 * k)
        tail = np.concatenate(list(map(table.ids, raw)))
        assert np.array_equal(tail, full[4 * k:])

        dist = distribution_of(probabilities)
        head_counts = sample_distribution(dist, 4 * k, seed=9)
        tail_tally = np.bincount(tail, minlength=len(probabilities))
        whole = sample_distribution(dist, n, seed=9)
        assert whole.counts == {label: head_counts.counts[label] + int(count)
                                for label, count in zip(dist.probabilities, tail_tally)}
        assert whole.absorbed == head_counts.absorbed + int(tail_tally[-1])

    def test_memory_does_not_grow_with_shots(self):
        dist = distribution_of(ADVERSARIAL["dirichlet-with-zero-bins"])

        def peak_mb(n):
            tracemalloc.start()
            try:
                sample_distribution(dist, n, seed=1)
                return tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()

        small, large = peak_mb(100_000), peak_mb(4_000_000)
        assert large < 10.0
        assert abs(large - small) < 1.0


class TestRawDraws:
    """The bit identities of numpy's Philox stream that the sampler rests on.

    Shot k's uniform is (x_k >> 11) * 2**-53 for the k-th raw 64-bit output
    x_k, and its guide bucket is x_k >> 52.  Should numpy change how
    ``Generator.random`` forms a double, these fail instead of the counts
    silently moving away from the full search.
    """

    @pytest.mark.parametrize("counter", [0, 1, 12_345, 2**64 + 2, 2**256 - 1])
    @pytest.mark.parametrize("key", [0, 9, 2**64 + 5, 2**128 - 1])
    def test_raw_draws_give_numpys_uniforms_and_buckets(self, key, counter):
        n = 4 * 1000 + 3
        raw = np.random.Philox(key=key, counter=counter).random_raw(n)
        u = np.random.Generator(np.random.Philox(key=key, counter=counter)).random(n)
        assert np.array_equal((raw >> 11) * 2.0**-53, u)
        assert np.array_equal(experiment._uniforms(raw), u)
        assert np.array_equal(raw >> 52, np.floor(u * GUIDE_BUCKETS).astype(np.uint64))

    @pytest.mark.parametrize("key", [0, 9, 2**128 - 1])
    def test_counter_start_skips_four_outputs_per_step(self, key):
        k = 1_000
        full = np.random.Philox(key=key).random_raw(4 * k + 50)
        advanced = np.random.Philox(key=key)
        advanced.advance(k)
        assert np.array_equal(np.random.Philox(key=key, counter=k).random_raw(50), full[4 * k:])
        assert np.array_equal(advanced.random_raw(50), full[4 * k:])

    def test_bucket_is_the_top_bits_at_every_boundary(self):
        # Draws at, just below and just above each bucket's left end, and
        # the extremes of the 64-bit range.
        starts = np.arange(GUIDE_BUCKETS, dtype=np.uint64) << np.uint64(52)
        raw = np.concatenate([starts, starts - np.uint64(1), starts + np.uint64(1 << 11),
                              np.array([0, 2**64 - 1], dtype=np.uint64)])
        u = experiment._uniforms(raw)
        assert np.all((u >= 0.0) & (u < 1.0))
        assert np.array_equal(raw >> 52, np.floor(u * GUIDE_BUCKETS).astype(np.uint64))


# Shot counts at and around each multiple of CHUNK up to two chunks.
CHUNK_EDGES = sorted({m * CHUNK + delta for m in range(3) for delta in (-1, 0, 1)} - {-1, 0})


def random_probabilities(rng, k):
    """A random distribution over ``k`` outcomes, the absorbed share last.

    Dirichlet weights of random spread, some bins zeroed, sometimes
    ``p_abs = 0``, and sometimes scaled so the cumulative sum ends a few
    ulps below 1.
    """
    p = rng.dirichlet(np.full(k, rng.choice([0.05, 1.0, 20.0])))
    if k > 1 and rng.random() < 0.5:
        p[rng.random(k) < rng.uniform(0.1, 0.9)] = 0.0
    if k > 1 and rng.random() < 0.25:
        p[-1] = 0.0
    if not p.any():
        p[rng.integers(k)] = 1.0
    p /= p.sum()
    if rng.random() < 0.5:
        p *= 1.0 - int(rng.integers(1, 8)) * 2.0**-53
    return p


class TestSamplerProperties:
    """Seeded random distributions: counts, CSV tally and full search agree."""

    @pytest.mark.parametrize("n", CHUNK_EDGES)
    def test_counts_csv_tally_and_full_search_agree(self, n):
        rng = np.random.default_rng([n, 2718])
        # K from 1 to 5005, log-uniform, with both ends always present.
        sizes = [1, 5005] + [int(np.exp(rng.uniform(0.0, np.log(5005)))) for _ in range(28)]
        below_one = 0
        for k in sizes:
            probabilities = random_probabilities(rng, k)
            below_one += np.cumsum(probabilities)[-1] < 1.0
            seed = int(rng.integers(2**63)) << int(rng.choice([0, 64]))
            dist = distribution_of(list(probabilities))
            counts = sample_distribution(dist, n, seed)
            tally = np.bincount(reference_ids(probabilities, seed, n), minlength=k)
            expected = ClickCounts(dict(zip(labels_of(dist)[:-1], map(int, tally[:-1]))),
                                   int(tally[-1]), n)
            assert counts == expected, (k, seed)
            assert shot_csv(dist, n, seed, io.StringIO()) == expected, (k, seed)
        assert below_one >= 5


class TestReconstruction:
    def test_h_majority_reads_opaque(self):
        cfg = SchemeConfig("multipixel-zeno", PixelPattern.from_bits("10"), 20)
        counts = counts_from(cfg, {"D0_h": 10, "D0_v": 0, "D1_h": 0, "D1_v": 12}, total=25)
        image = reconstruct_pattern(counts, cfg)
        assert image.verdicts == ("opaque", "transparent")

    def test_zero_clicks_stay_unknown(self):
        cfg = SchemeConfig("multipixel-zeno", PixelPattern.from_bits("100"), 20)
        counts = counts_from(cfg, {"D0_h": 5, "D1_v": 5}, total=12)
        image = reconstruct_pattern(counts, cfg)
        assert image.verdicts[2] == "unknown"

    def test_tie_stays_unknown(self):
        cfg = SchemeConfig("multipixel-zeno", PixelPattern.from_bits("10"), 20)
        counts = counts_from(cfg, {"D0_h": 4, "D0_v": 4, "D1_v": 5}, total=13)
        assert reconstruct_pattern(counts, cfg).verdicts[0] == "unknown"

    def test_michelson_reading_is_reversed(self):
        cfg = SchemeConfig("michelson-zeno", PixelPattern.from_bits("01"), 20)
        counts = counts_from(cfg, {"D0_h": 9, "D1_v": 10}, total=19)
        image = reconstruct_pattern(counts, cfg)
        assert image.verdicts == ("transparent", "opaque")

    def test_single_pass_dark_port_click_reads_opaque(self):
        cfg = SchemeConfig("multipixel-single-pass", PixelPattern.from_bits("10"))
        counts = counts_from(cfg, {"Dd_0": 1, "D0_0": 3, "D0_1": 8}, total=14)
        image = reconstruct_pattern(counts, cfg)
        assert image.verdicts == ("opaque", "transparent")

    def test_rejects_single_pixel_schemes(self):
        cfg = SchemeConfig("ev-single-pass", PixelPattern.from_bits("1"))
        counts = counts_from(cfg, {"D0": 1}, total=1)
        with pytest.raises(ValueError):
            reconstruct_pattern(counts, cfg)

    def test_sound_on_expected_counts_for_every_pattern(self):
        # Infinite-shot limit: feed the exact probabilities as counts.
        scale = 10**9
        for d in range(1, 9):
            n_cycles = 3
            for bits in itertools.product((0, 1), repeat=d):
                cfg = SchemeConfig("multipixel-zeno", PixelPattern.from_bits(bits), n_cycles)
                dist = run_scheme(cfg).distribution
                counts = {k: int(round(v * scale)) for k, v in dist.probabilities.items()}
                total = sum(counts.values()) + int(round(dist.p_abs * scale))
                image = reconstruct_pattern(
                    ClickCounts(counts, total - sum(counts.values()), total), cfg
                )
                expected = tuple("opaque" if b else "transparent" for b in bits)
                assert image.verdicts == expected, (d, bits)

    def test_finite_shot_recovery_rate(self):
        # 1000 shots per pixel on an 8-pixel object.
        rng = np.random.default_rng(123)
        d, n_cycles, shots = 8, 100, 8000
        successes = 0
        for seed in range(100):
            bits = rng.integers(0, 2, size=d)
            cfg = SchemeConfig("multipixel-zeno", PixelPattern.from_bits(bits), n_cycles)
            counts = sample_shots(cfg, shots, seed=seed)
            image = reconstruct_pattern(counts, cfg)
            expected = tuple("opaque" if b else "transparent" for b in bits)
            successes += image.verdicts == expected
        assert successes >= 99


def per_pixel_fit(fh, fv, theta, n_cycles):
    """One pixel's zooming grid scan, as ``estimate_transmissions`` ran it pixel by pixel."""
    observed = np.array([fh, fv, 1.0 - fh - fv])

    def model(t):
        ph, pv = analytics.block_probabilities(t, theta, n_cycles)
        return np.stack([ph, pv, 1.0 - ph - pv], axis=-1)

    grid = np.linspace(0.0, 1.0, 101)
    step = grid[1]
    while True:
        t_hat = float(grid[np.argmin(np.sum((observed - model(grid)) ** 2, axis=-1))])
        if 2 * step < 1e-10:
            break
        step /= 10
        grid = np.clip(t_hat + step * np.arange(-10, 11), 0.0, 1.0)
    hi_t, lo_t = min(t_hat + 1e-5, 1.0), max(t_hat - 1e-5, 0.0)
    return t_hat, (model(hi_t) - model(lo_t)) / (hi_t - lo_t)


def per_pixel_estimates(counts, config):
    """``estimate_transmissions`` with one scan per pixel."""
    d, n = config.d, counts.total
    hv = experiment._hv_clicks(counts, config)
    t_hats, intervals = [], []
    for nh, nv in hv:
        if nh + nv == 0:
            t_hats.append(None)
            intervals.append(None)
            continue
        t_hat, j = per_pixel_fit(d * nh / n, d * nv / n, config.cycle_rotation, config.n_cycles)
        var_h = d**2 * (nh / n) * (1 - nh / n) / n
        var_v = d**2 * (nv / n) * (1 - nv / n) / n
        jj = float(np.dot(j, j))
        var_t = float(np.sum((j / jj) ** 2 * np.array([var_h, var_v, var_h + var_v]))) \
            if jj > 0 else np.inf
        half = 1.96 * float(np.sqrt(var_t))
        t_hats.append(t_hat)
        intervals.append((max(0.0, t_hat - half), min(1.0, t_hat + half)))
    verdicts = tuple(experiment._hv_verdict(nh, nv) for nh, nv in hv)
    return experiment.ReconstructedImage(verdicts, tuple(t_hats), tuple(intervals))


class TestTransmissionEstimation:
    def test_opaque_pixel_estimate_near_zero(self):
        cfg = SchemeConfig("semitransparent-zeno", PixelPattern((0.0,)), 100)
        counts = sample_shots(cfg, 100_000, seed=42)
        image = estimate_transmissions(counts, cfg)
        assert image.transmission[0] is not None
        assert 0.0 <= image.transmission[0] <= 0.05

    def test_transparent_pixel_estimate_near_one(self):
        cfg = SchemeConfig("semitransparent-zeno", PixelPattern((1.0,)), 100)
        counts = sample_shots(cfg, 100_000, seed=43)
        assert counts.counts["D0_h"] == 0
        image = estimate_transmissions(counts, cfg)
        assert image.transmission[0] >= 0.95

    def test_high_contrast_ordering(self):
        cfg = SchemeConfig("semitransparent-zeno", PixelPattern((0.1, 0.9)), 100)
        correct = 0
        trials = 20
        for seed in range(trials):
            counts = sample_shots(cfg, 100_000, seed=seed)
            image = estimate_transmissions(counts, cfg)
            correct += image.transmission[0] < image.transmission[1]
        assert correct == trials

    def test_zero_click_pixel_marked_unknown(self):
        cfg = SchemeConfig("semitransparent-zeno", PixelPattern((0.5, 0.5)), 10)
        counts = counts_from(cfg, {"D0_h": 10}, total=20)
        image = estimate_transmissions(counts, cfg)
        assert image.verdicts[1] == "unknown"
        assert image.transmission[1] is None

    def test_interval_coverage_and_accuracy(self):
        # The interval is an approximation, so check coverage across seeds
        # instead of a single draw, plus the estimate's accuracy.
        true_t = 0.4
        cfg = SchemeConfig("semitransparent-zeno", PixelPattern((true_t,)), 200)
        covered = 0
        for seed in range(20):
            counts = sample_shots(cfg, 200_000, seed=seed)
            image = estimate_transmissions(counts, cfg)
            lo, hi = image.intervals[0]
            covered += lo <= true_t <= hi
            assert abs(image.transmission[0] - true_t) <= 0.02
        assert covered >= 14

    def test_rejects_other_kinds(self):
        # Kinds without per-pixel h/v detectors have nothing to fit.
        for kind, bits in (("multipixel-single-pass", "10"), ("zeno-single-pixel", "1")):
            cfg = SchemeConfig(kind, PixelPattern.from_bits(bits), 10)
            counts = counts_from(cfg, {"D0_h": 1}, total=1)
            with pytest.raises(ValueError):
                estimate_transmissions(counts, cfg)

    def test_every_multipixel_cycling_kind_is_fit(self):
        # The folded scheme reads h and v exchanged; after the exchange its
        # counts fit exactly as the unfolded scheme's do.
        pattern = PixelPattern((0.5, 1.0))
        counts = ClickCounts({"D0_h": 260, "D0_v": 12, "D1_h": 0, "D1_v": 500}, 228, 1000)
        swapped = ClickCounts({"D0_v": 260, "D0_h": 12, "D1_v": 0, "D1_h": 500}, 228, 1000)
        semi = estimate_transmissions(counts, SchemeConfig("semitransparent-zeno", pattern, 20))
        assert estimate_transmissions(counts, SchemeConfig("multipixel-zeno", pattern, 20)) == semi
        folded = estimate_transmissions(swapped, SchemeConfig("michelson-zeno", pattern, 20))
        assert folded == semi

    @pytest.mark.parametrize("n_cycles", [2, 16, 128])
    def test_noiseless_fractions_invert_exactly(self, n_cycles):
        theta = np.pi / (2 * n_cycles)
        t = np.linspace(0.0, 1.0, 41)
        ph, pv = analytics.block_probabilities(t, theta, n_cycles)
        t_hat, _ = experiment._fit_transmissions(ph, pv, theta, n_cycles)
        assert np.max(np.abs(t_hat - t)) <= 1e-9, (n_cycles, t_hat - t)

    def test_one_scan_over_all_pixels_equals_a_scan_per_pixel(self):
        # Random objects and counts, some pixels without clicks; the joint
        # scan must reproduce each pixel's own scan bit for bit.
        rng = np.random.default_rng(12)
        for case in range(60):
            d = int(rng.integers(1, 9))
            kind = ("multipixel-zeno", "michelson-zeno")[case % 2]
            pattern = PixelPattern(tuple(rng.choice([0.0, 1.0, *rng.random(3)], size=d)))
            cfg = SchemeConfig(kind, pattern, int(rng.integers(1, 129)))
            clicks = {core.pol_detector_label(ell, pol): int(rng.integers(0, 50))
                      for ell in range(d) for pol in (core.POL_H, core.POL_V)
                      if rng.random() < 0.8}
            absorbed = int(rng.integers(1, 100))
            counts = counts_from(cfg, clicks, total=sum(clicks.values()) + absorbed)
            assert estimate_transmissions(counts, cfg) == per_pixel_estimates(counts, cfg), cfg

    def test_no_pixel_clicked(self):
        cfg = SchemeConfig("multipixel-zeno", PixelPattern((0.5, 1.0)), 20)
        image = estimate_transmissions(counts_from(cfg, {}, total=7), cfg)
        assert image == experiment.ReconstructedImage((UNKNOWN, UNKNOWN), (None, None),
                                                      (None, None))

    def test_package_imports_and_fits_without_scipy(self):
        # Blocking scipy makes any import of it fail, so this proves the
        # command line and the fit need only numpy.
        code = (
            "import sys; sys.modules['scipy'] = None\n"
            "import ifmsim.cli\n"
            "from ifmsim import PixelPattern, SchemeConfig, estimate_transmissions, sample_shots\n"
            "cfg = SchemeConfig('semitransparent-zeno', PixelPattern((0.0,)), 100)\n"
            "counts = sample_shots(cfg, 100_000, seed=42)\n"
            "assert 0.0 <= estimate_transmissions(counts, cfg).transmission[0] <= 0.05\n"
        )
        src = Path(experiment.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestStatisticalCheck:
    def test_matching_frequencies_give_small_z(self):
        dist = DetectionDistribution({"A": 0.25, "B": 0.25}, 0.5)
        counts = ClickCounts({"A": 250, "B": 250}, 500, 1000)
        check = statistical_check(counts, dist)
        assert all(abs(z) < 0.5 for z in check.z_scores.values())
        assert check.violations == ()

    def test_impossible_click_flagged(self):
        dist = DetectionDistribution({"A": 1.0, "B": 0.0}, 0.0)
        counts = ClickCounts({"A": 999, "B": 1}, 0, 1000)
        check = statistical_check(counts, dist)
        assert any("B" in v for v in check.violations)

    def test_probability_with_underflowing_variance_checked_as_impossible(self):
        # p (1 - p) / n underflows to 0, so no finite z-score exists.
        dist = DetectionDistribution({"A": 0.5, "B": 1e-321}, 0.5)
        check = statistical_check(ClickCounts({"A": 500}, 500, 1000), dist)
        assert set(check.z_scores) == {"A", "absorbed"}
        assert check.violations == ()
        check = statistical_check(ClickCounts({"A": 499, "B": 1}, 500, 1000), dist)
        assert check.violations == ("B: 1 clicks on an impossible outcome",)

    def test_ev_present_all_z_within_four_sigma(self):
        cfg = SchemeConfig("ev-single-pass", PixelPattern.from_bits("1"))
        dist = run_scheme(cfg).distribution
        counts = sample_shots(cfg, 100_000, seed=8)
        check = statistical_check(counts, dist)
        assert set(check.z_scores) == {"D0", "D1", "absorbed"}
        assert all(abs(z) <= 4.0 for z in check.z_scores.values())

    def test_requires_minimum_shots(self):
        dist = DetectionDistribution({"A": 1.0}, 0.0)
        with pytest.raises(ValueError):
            statistical_check(ClickCounts({"A": 10}, 0, 10), dist)
