"""Single-pixel interaction-free detection, from one pass to many cycles.

A photon enters a balanced two-arm interferometer tuned for perfect
constructive interference on detector D0.  An opaque object in one arm
breaks the interference, so a D1 click reveals the object even though the
photon was never absorbed.  Cycling the photon through a weak polarisation
rotation instead pushes the revealing-click probability toward 1.
"""

import numpy as np

from ifmsim import PixelPattern, SchemeConfig, exact_distribution, run_scheme

print("Single pass, object absent:")
result = run_scheme(SchemeConfig("ev-single-pass", PixelPattern.from_bits("0")))
for label, p in result.distribution.probabilities.items():
    print(f"  {label}: {p:.4f}")
print(f"  absorbed: {result.distribution.p_abs:.4f}")

print("\nSingle pass, object present:")
result = run_scheme(SchemeConfig("ev-single-pass", PixelPattern.from_bits("1")))
for label, p in result.distribution.probabilities.items():
    print(f"  {label}: {p:.4f}")
print(f"  absorbed: {result.distribution.p_abs:.4f}")
print("  -> the revealing D1 click happens only 25% of the time.")

print("\nCycling interrogation of a present object (theta = pi/2N per cycle):")
print(f"  {'N':>6}  {'P(revealing click)':>19}  {'P(absorbed)':>12}")
for n in (1, 2, 5, 10, 100, 1000):
    cfg = SchemeConfig("zeno-single-pixel", PixelPattern.from_bits("1"), n)
    dist = run_scheme(cfg).distribution
    print(f"  {n:>6}  {dist.probabilities['Dh']:>19.6f}  {dist.p_abs:>12.6f}")
print("  -> absorption falls off like pi^2/4N; the closed form agrees:")
for n in (10, 1000):
    report = exact_distribution(SchemeConfig("zeno-single-pixel", PixelPattern.from_bits("1"), n))
    print(f"     N={n}: exact p_abs = {report.p_abs:.6f}, pi^2/4N = {np.pi**2/(4*n):.6f}")
