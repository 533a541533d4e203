"""Self-check suites: structural identities and outcome-table reproductions.

A row of ``SUITES`` holds a suite's name, its measure (the worst case it
found, or, in a row with no bound, the pass flag and detail), the bound and
the detail's text.  Element constructors are looked up on the core module
when a suite runs, so the structural suites, which evaluate each element's
rule on all labels, catch a faulty element injected by a test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ifmsim import analytics, core, schemes
from ifmsim.core import POL_H, POL_V, PixelPattern
from ifmsim.schemes import KINDS, SchemeConfig


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_pattern(rng: np.random.Generator, d: int, binary: bool) -> PixelPattern:
    if binary:
        return PixelPattern.from_bits(rng.integers(0, 2, size=d))
    return PixelPattern(tuple(rng.random(d)))


def _unitarity() -> float:
    """Every unitary element preserves the squared norm on random states."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for d in (1, 2, 3, 5):
        n = core.space_dim(d)
        ops = [core.beam_splitter(d), core.polarising_beam_splitter(d),
               core.polarisation_rotator(0.37, d), core.oam_sorter(d),
               core.oam_sorter(d, inverse=True), core.oam_converter(d),
               core.oam_converter(d, inverse=True), core.pockels_flip(d),
               core.mirror_reflect("retro", d), core.mirror_reflect("plain", d),
               core.arm_mirrors(d)]
        for op in ops:
            for _ in range(100 // len(ops) + 1):
                v = rng.normal(size=n) + 1j * rng.normal(size=n)
                v /= np.linalg.norm(v)
                out = op.apply_flat(v)
                worst = max(worst, abs(float(np.vdot(out, out).real) - 1.0))
    return worst


def _attenuator_contraction() -> float:
    """Attenuators never increase the squared norm."""
    rng = np.random.default_rng(11)
    worst = -np.inf
    for d in (1, 2, 4):
        n = core.space_dim(d)
        for placement in ("pixel-paths", "oam-diagonal"):
            for _ in range(20):
                op = core.object_attenuator(_random_pattern(rng, d, binary=False), placement)
                v = rng.normal(size=n) + 1j * rng.normal(size=n)
                v /= np.linalg.norm(v)
                out = op.apply_flat(v)
                worst = max(worst, float(np.vdot(out, out).real) - 1.0)
    return worst


def _permutation_inverses() -> tuple[bool, str]:
    """Permutation elements composed with their inverses act as the identity."""
    rng = np.random.default_rng(13)
    ok, detail = True, "all permutation pairs are exact inverses"
    for d in (1, 2, 3, 6):
        n = core.space_dim(d)
        pairs = [(core.polarising_beam_splitter(d), core.polarising_beam_splitter(d)),
                 (core.pockels_flip(d), core.pockels_flip(d)),
                 (core.mirror_reflect("plain", d), core.mirror_reflect("plain", d)),
                 (core.oam_sorter(d), core.oam_sorter(d, inverse=True)),
                 (core.oam_converter(d), core.oam_converter(d, inverse=True))]
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        for op, inv in pairs:
            if not np.array_equal(inv.apply_flat(op.apply_flat(v)), v):
                ok, detail = False, f"{op.label} then {inv.label} is not an exact identity at d={d}"
    return ok, detail


def _swap_identity() -> float:
    """Sorter followed by converter swaps OAM and path on the input-path-0 subspace."""
    worst = 0.0
    for d in range(1, 7):
        composite = core.oam_converter(d).matrix @ core.oam_sorter(d).matrix
        for pol in (POL_H, POL_V):
            cols = [core.basis_index(d, pol, ell, 0) for ell in range(d)]
            target = np.zeros((core.space_dim(d), d), dtype=np.complex128)
            target[[core.basis_index(d, pol, 0, ell) for ell in range(d)], range(d)] = 1.0
            worst = max(worst, float(np.linalg.norm(composite[:, cols] - target, 2)))
    return worst


def _encoder_equivalence() -> float:
    """Each scheme's encoder gates act as the OAM-diagonal attenuator.

    Compared on random states supported on modes 0 and d, the only modes
    that carry amplitude outside the encoder.
    """
    rng = np.random.default_rng(17)
    worst = 0.0
    for d in range(1, 7):
        for kind in ("multipixel-single-pass", "multipixel-zeno", "michelson-zeno"):
            pattern = _random_pattern(rng, d, binary=False)
            gates = core.compose(schemes.encoder_elements(SchemeConfig(kind, pattern)))
            diagonal = core.object_attenuator(pattern, "oam-diagonal")
            v = np.zeros((2, d, d + 1), dtype=np.complex128)
            v[..., [0, d]] = rng.normal(size=(2, d, 2)) + 1j * rng.normal(size=(2, d, 2))
            gap = np.abs(gates.apply_flat(v.ravel()) - diagonal.apply_flat(v.ravel()))
            worst = max(worst, float(np.max(gap)))
    return worst


def _table_gap(configs: Iterable[SchemeConfig]) -> float:
    """Largest gap between a run of each config and its exact outcome table."""
    worst = 0.0
    for config in configs:
        report = analytics.exact_distribution(config)
        run = schemes.run_scheme(config).distribution
        gap = max(abs(run.probabilities[k] - v) for k, v in report.exact.items())
        worst = max(worst, gap, abs(run.p_abs - report.p_abs))
    return worst


def _ev_outcomes() -> float:
    """Single-pass single-pixel run reproduces the exact outcome table."""
    return _table_gap(SchemeConfig("ev-single-pass", PixelPattern.from_bits([f])) for f in (0, 1))


def _zeno_single_outcomes() -> float:
    """Single-pixel cycling run matches cos^2N(pi/2N) for several N."""
    return _table_gap(SchemeConfig("zeno-single-pixel", PixelPattern.from_bits([f]), n)
                      for n in (1, 2, 10, 100) for f in (0, 1))


def _single_pass_outcomes() -> float:
    """Parallel single-pass run reproduces the per-pixel outcome table."""
    rng = np.random.default_rng(19)
    return _table_gap(SchemeConfig("multipixel-single-pass", _random_pattern(rng, d, binary=True))
                      for d in (1, 2, 4, 8) for _ in range(5))


def _zeno_multipixel_outcomes() -> float:
    """Cycling multi-pixel run matches the exact block closed form."""
    rng = np.random.default_rng(23)
    return _table_gap(SchemeConfig("multipixel-zeno", _random_pattern(rng, d, binary=True), n)
                      for d in (1, 2, 4) for n in (1, 4, 16, 64))


def _oracle_equivalence() -> float:
    """Closed forms match full state-vector runs on random configurations."""
    rng = np.random.default_rng(29)

    def configs():
        for _ in range(60):
            kind, spec = sorted(KINDS.items())[rng.integers(0, len(KINDS))]
            d = int(rng.integers(1, 9)) if spec.per_pixel else 1
            pattern = _random_pattern(rng, d, binary=spec.single_pass)
            yield SchemeConfig(kind, pattern, int(rng.integers(1, 65)))
    return _table_gap(configs())


def _telescoping() -> float:
    """The simulator's per-cycle survival factors multiply to the closed-form survival."""
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(12):
        d = int(rng.integers(1, 9))
        cfg = SchemeConfig("multipixel-zeno", _random_pattern(rng, d, binary=True),
                           int(rng.integers(1, 65)))
        product = float(np.prod(1.0 - schemes.run_scheme(cfg).trace.p_abs_cycle))
        worst = max(worst, abs(product - (1.0 - analytics.exact_distribution(cfg).p_abs)))
    return worst


def _michelson_equivalence() -> float:
    """Folded runs equal cycling runs under the h/v label reversal."""
    rng = np.random.default_rng(37)
    worst = 0.0
    for d in (1, 2, 3, 4):
        for n in (1, 2, 8, 32, 64):
            pattern = _random_pattern(rng, d, binary=True)
            mz = schemes.run_scheme(SchemeConfig("multipixel-zeno", pattern, n)).distribution
            mich = schemes.run_scheme(SchemeConfig("michelson-zeno", pattern, n)).distribution
            mz_swapped = KINDS["michelson-zeno"].relabel(mz.probabilities)
            gap = max(abs(mich.probabilities[k] - mz_swapped[k]) for k in mich.probabilities)
            worst = max(worst, gap, abs(mich.p_abs - mz.p_abs))
    return worst


def _semitransparent_exact_vs_sim() -> float:
    """Block-power closed form agrees with the per-cycle state-vector run."""
    rng = np.random.default_rng(41)

    def configs():
        for _ in range(12):
            d, n = int(rng.integers(1, 5)), int(rng.integers(1, 201))
            yield SchemeConfig("multipixel-zeno", _random_pattern(rng, d, binary=False), n)
    return _table_gap(configs())


def _vanishing_absorption() -> tuple[bool, str]:
    """Absorption decreases with the cycle count for every transmission < 1.

    The tested grid stops at T = 0.95: closer to full transparency the
    absorption peaks near N ~ pi / (2 (1 - sqrt(T))), which moves above the
    first grid point and breaks monotonicity over this N range.
    """
    ok, detail = True, "p_abs decreasing over N = 1e2, 1e3, 1e4 for all tested T"
    for t in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95):
        cfgs = (SchemeConfig("multipixel-zeno", PixelPattern((t,)), n) for n in (100, 1000, 10000))
        values = [analytics.exact_distribution(cfg).p_abs for cfg in cfgs]
        if not (values[2] < values[1] < values[0]):
            ok, detail = False, f"p_abs not decreasing for T={t}: {values}"
    return ok, detail


SUITES = (
    ("unitarity", _unitarity, 1e-12, "max norm drift"),
    ("attenuator-contraction", _attenuator_contraction, 1e-12, "max norm excess"),
    ("permutation-inverses", _permutation_inverses, None, None),
    ("swap-identity", _swap_identity, 1e-12, "max operator-norm gap"),
    ("encoder-equivalence", _encoder_equivalence, 1e-12, "max amplitude gap"),
    ("ev-outcomes", _ev_outcomes, 1e-12, "max probability gap"),
    ("zeno-single-outcomes", _zeno_single_outcomes, 1e-12, "max probability gap"),
    ("single-pass-outcomes", _single_pass_outcomes, 1e-12, "max probability gap"),
    ("zeno-multipixel-outcomes", _zeno_multipixel_outcomes, 1e-10, "max probability gap"),
    ("oracle-equivalence", _oracle_equivalence, 1e-10, "max probability gap"),
    ("telescoping", _telescoping, 1e-12, "max product gap"),
    ("michelson-equivalence", _michelson_equivalence, 1e-10, "max probability gap"),
    ("semitransparent-exact-vs-sim", _semitransparent_exact_vs_sim, 1e-10, "max probability gap"),
    ("vanishing-absorption", _vanishing_absorption, None, None),
)


def run_all_checks() -> list[CheckResult]:
    """Run every suite; exceptions are reported as failures, not raised."""
    results = []
    for name, measure, bound, detail in SUITES:
        try:
            value = measure()
            passed, text = value if bound is None else (value <= bound, f"{detail} {value:.3e}")
        except Exception as exc:  # noqa: BLE001 - a crashing check is a failing check
            passed, text = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, text))
    return results
