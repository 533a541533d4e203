"""Self-check suites: structural identities and outcome-table reproductions.

Each check returns a named pass/fail result; the CLI ``verify`` command runs
them all and exits nonzero if any fail.  Element constructors are looked up
on the core module at call time so a faulty element injected by a test is
caught by the structural suites, which run each element's gather-form
action, the one the simulator applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ifmsim import analytics, core, schemes
from ifmsim.core import POL_H, POL_V, SCHEME_KINDS, SINGLE_PASS_KINDS, PixelPattern
from ifmsim.schemes import SINGLE_PIXEL_KINDS, SchemeConfig


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_pattern(rng: np.random.Generator, d: int, binary: bool) -> PixelPattern:
    if binary:
        return PixelPattern.from_bits(rng.integers(0, 2, size=d))
    return PixelPattern(tuple(rng.random(d)))


def _all_unitaries(d: int, theta: float) -> list[core.ElementOp]:
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


def check_unitarity(seed: int = 7) -> CheckResult:
    """Every unitary element preserves the squared norm on random states."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for d in (1, 2, 3, 5):
        n = core.space_dim(d)
        for op in _all_unitaries(d, theta=0.37):
            for _ in range(100 // len(_all_unitaries(d, 0.37)) + 1):
                v = rng.normal(size=n) + 1j * rng.normal(size=n)
                v /= np.linalg.norm(v)
                out = op.apply_flat(v)
                worst = max(worst, abs(float(np.vdot(out, out).real) - 1.0))
    return CheckResult("unitarity", worst <= 1e-12, f"max norm drift {worst:.3e}")


def check_attenuator_contraction(seed: int = 11) -> CheckResult:
    """Attenuators never increase the squared norm."""
    rng = np.random.default_rng(seed)
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
    return CheckResult("attenuator-contraction", worst <= 1e-12, f"max norm excess {worst:.3e}")


def check_permutation_inverses(seed: int = 13) -> CheckResult:
    """Permutation elements composed with their inverses act as the identity."""
    rng = np.random.default_rng(seed)
    ok = True
    detail = "all permutation pairs are exact inverses"
    for d in (1, 2, 3, 6):
        n = core.space_dim(d)
        pairs = [
            (core.polarising_beam_splitter(d), core.polarising_beam_splitter(d)),
            (core.pockels_flip(d), core.pockels_flip(d)),
            (core.mirror_reflect("plain", d), core.mirror_reflect("plain", d)),
            (core.oam_sorter(d), core.oam_sorter(d, inverse=True)),
            (core.oam_converter(d), core.oam_converter(d, inverse=True)),
        ]
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        for op, inv in pairs:
            back = inv.apply_flat(op.apply_flat(v))
            if not np.array_equal(back, v):
                ok = False
                detail = f"{op.label} then {inv.label} is not an exact identity at d={d}"
    return CheckResult("permutation-inverses", ok, detail)


def check_swap_identity() -> CheckResult:
    """Sorter followed by converter swaps OAM and path on the input-path-0 subspace."""
    worst = 0.0
    for d in range(1, 7):
        composite = core.oam_converter(d).matrix @ core.oam_sorter(d).matrix
        for pol in (POL_H, POL_V):
            cols = [core.basis_index(d, pol, ell, 0) for ell in range(d)]
            target = np.zeros((core.space_dim(d), d), dtype=np.complex128)
            for ell in range(d):
                target[core.basis_index(d, pol, 0, ell), ell] = 1.0
            diff = composite[:, cols] - target
            worst = max(worst, float(np.linalg.norm(diff, 2)))
    return CheckResult("swap-identity", worst <= 1e-12, f"max operator-norm gap {worst:.3e}")


def check_encoder_equivalence(seed: int = 17) -> CheckResult:
    """Each scheme's encoder gates act as the OAM-diagonal attenuator.

    Compared on random states supported on modes 0 and d, the only modes
    that carry amplitude outside the encoder.
    """
    rng = np.random.default_rng(seed)
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
    return CheckResult("encoder-equivalence", worst <= 1e-12, f"max amplitude gap {worst:.3e}")


def _table_gap(config: SchemeConfig) -> float:
    report = analytics.exact_distribution(config)
    run = schemes.run_scheme(config).distribution
    assert report.exact is not None
    gap = max(abs(run.probabilities[k] - v) for k, v in report.exact.items())
    return max(gap, abs(run.p_abs - report.p_abs))


def check_ev_outcomes() -> CheckResult:
    """Single-pass single-pixel run reproduces the exact outcome table."""
    worst = max(
        _table_gap(SchemeConfig("ev-single-pass", PixelPattern.from_bits([f]))) for f in (0, 1)
    )
    return CheckResult("ev-outcomes", worst <= 1e-12, f"max probability gap {worst:.3e}")


def check_zeno_single_outcomes() -> CheckResult:
    """Single-pixel cycling run matches cos^2N(pi/2N) for several N."""
    worst = 0.0
    for n in (1, 2, 10, 100):
        for f in (0, 1):
            cfg = SchemeConfig("zeno-single-pixel", PixelPattern.from_bits([f]), n)
            worst = max(worst, _table_gap(cfg))
    return CheckResult("zeno-single-outcomes", worst <= 1e-12, f"max probability gap {worst:.3e}")


def check_single_pass_outcomes(seed: int = 19) -> CheckResult:
    """Parallel single-pass run reproduces the per-pixel outcome table."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for d in (1, 2, 4, 8):
        for _ in range(5):
            cfg = SchemeConfig("multipixel-single-pass", _random_pattern(rng, d, binary=True))
            worst = max(worst, _table_gap(cfg))
    return CheckResult("single-pass-outcomes", worst <= 1e-12, f"max probability gap {worst:.3e}")


def check_zeno_multipixel_outcomes(seed: int = 23) -> CheckResult:
    """Cycling multi-pixel run matches the exact block closed form."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for d in (1, 2, 4):
        for n in (1, 4, 16, 64):
            cfg = SchemeConfig("multipixel-zeno", _random_pattern(rng, d, binary=True), n)
            worst = max(worst, _table_gap(cfg))
    return CheckResult("zeno-multipixel-outcomes", worst <= 1e-10, f"max probability gap {worst:.3e}")


def check_oracle_equivalence(seed: int = 29, n_configs: int = 60) -> CheckResult:
    """Closed forms match full state-vector runs on random configurations."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    kinds = sorted(SCHEME_KINDS)
    for _ in range(n_configs):
        kind = kinds[rng.integers(0, len(kinds))]
        d = 1 if kind in SINGLE_PIXEL_KINDS else int(rng.integers(1, 9))
        pattern = _random_pattern(rng, d, binary=kind in SINGLE_PASS_KINDS)
        n_cycles = int(rng.integers(1, 65))
        cfg = SchemeConfig(kind, pattern, n_cycles)
        worst = max(worst, _table_gap(cfg))
    return CheckResult("oracle-equivalence", worst <= 1e-10, f"max probability gap {worst:.3e}")


def check_telescoping(seed: int = 31) -> CheckResult:
    """Per-cycle survival factors multiply to the closed-form survival."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 9))
        n_abs = int(rng.integers(0, d + 1))
        n = int(rng.integers(1, 65))
        theta = np.pi / (2 * n)
        product = 1.0
        for k in range(n):
            product *= 1.0 - analytics.per_cycle_absorption(d, n_abs, k, theta)
        worst = max(worst, abs(product - analytics.multipixel_zeno_survival(d, n_abs, n, theta)))
    return CheckResult("telescoping", worst <= 1e-12, f"max product gap {worst:.3e}")


def check_michelson_equivalence(seed: int = 37) -> CheckResult:
    """Folded runs equal cycling runs under the h/v label reversal."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for d in (1, 2, 3, 4):
        for n in (1, 2, 8, 32, 64):
            pattern = _random_pattern(rng, d, binary=True)
            mz = schemes.run_scheme(SchemeConfig("multipixel-zeno", pattern, n)).distribution
            mich = schemes.run_scheme(SchemeConfig("michelson-zeno", pattern, n)).distribution
            mz_swapped = core.swap_hv_labels(mz.probabilities)
            gap = max(abs(mich.probabilities[k] - mz_swapped[k]) for k in mich.probabilities)
            worst = max(worst, gap, abs(mich.p_abs - mz.p_abs))
    return CheckResult("michelson-equivalence", worst <= 1e-10, f"max probability gap {worst:.3e}")


def check_semitransparent_exact_vs_sim(seed: int = 41) -> CheckResult:
    """Block-power closed form agrees with the per-cycle state-vector run."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(12):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 201))
        cfg = SchemeConfig("semitransparent-zeno", _random_pattern(rng, d, binary=False), n)
        worst = max(worst, _table_gap(cfg))
    return CheckResult("semitransparent-exact-vs-sim", worst <= 1e-10,
                       f"max probability gap {worst:.3e}")


def check_vanishing_absorption() -> CheckResult:
    """Absorption decreases with the cycle count for every transmission < 1.

    The tested grid stops at T = 0.95: closer to full transparency the
    absorption peaks near N ~ pi / (2 (1 - sqrt(T))), which moves above the
    first grid point and breaks monotonicity over this N range.
    """
    ok = True
    detail = "p_abs decreasing over N = 1e2, 1e3, 1e4 for all tested T"
    for t in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95):
        values = []
        for n in (100, 1000, 10000):
            report = analytics.semitransparent_exact(1, n, np.pi / (2 * n), (t,))
            values.append(report.p_abs)
        if not (values[2] < values[1] < values[0]):
            ok = False
            detail = f"p_abs not decreasing for T={t}: {values}"
    return CheckResult("vanishing-absorption", ok, detail)


ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_unitarity,
    check_attenuator_contraction,
    check_permutation_inverses,
    check_swap_identity,
    check_encoder_equivalence,
    check_ev_outcomes,
    check_zeno_single_outcomes,
    check_single_pass_outcomes,
    check_zeno_multipixel_outcomes,
    check_oracle_equivalence,
    check_telescoping,
    check_michelson_equivalence,
    check_semitransparent_exact_vs_sim,
    check_vanishing_absorption,
)


def run_all_checks() -> list[CheckResult]:
    """Run every suite; exceptions are reported as failures, not raised."""
    results = []
    for check in ALL_CHECKS:
        try:
            results.append(check())
        except Exception as exc:  # noqa: BLE001 - a crashing check is a failing check
            name = check.__name__.removeprefix("check_").replace("_", "-")
            results.append(CheckResult(name, False, f"raised {type(exc).__name__}: {exc}"))
    return results
