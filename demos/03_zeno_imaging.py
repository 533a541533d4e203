"""High-efficiency multi-pixel imaging through repeated weak interrogation.

Each cycle rotates the polarisation by pi/2N and lets only the small V
component touch the object.  Opaque pixels pin their OAM component to H
(and absorb a sliver of probability per cycle); transparent pixels rotate
freely to V.  After N cycles the detector D{ell}_h or D{ell}_v tells the
pixel's state with probability approaching 1/d each.
"""

import numpy as np

from ifmsim import PixelPattern, SchemeConfig, final_state_ideal, run_scheme

bits = "1001"
n_cycles = 200
cfg = SchemeConfig("multipixel-zeno", PixelPattern.from_bits(bits), n_cycles)
result = run_scheme(cfg)

print(f"Object pattern: {bits}, cycles: {n_cycles}")
print("\nDetector probabilities:")
for ell, f in enumerate(int(b) for b in bits):
    ph = result.distribution.probabilities[f"D{ell}_h"]
    pv = result.distribution.probabilities[f"D{ell}_v"]
    print(f"  pixel {ell} ({'opaque' if f else 'transparent'}):  "
          f"D{ell}_h = {ph:.5f}   D{ell}_v = {pv:.5f}")
print(f"  absorbed: {result.distribution.p_abs:.5f}")

print("\nSurvival during the first cycles (non-increasing):")
trace = result.trace
for cycle, (survival, loss) in enumerate(zip(trace.survival[:6], trace.p_abs_cycle[:6]), 1):
    print(f"  after cycle {cycle:>3}: survival {survival:.8f}, "
          f"conditional loss {loss:.2e}")

ideal = final_state_ideal(cfg)
fidelity = abs(ideal.overlap(result.state)) ** 2
print(f"\nOverlap with the ideal large-N target state: {fidelity:.6f}")
print(f"(deficit {1 - fidelity:.2e}, shrinking like pi^2/4N = {np.pi**2/(4*n_cycles):.2e})")
