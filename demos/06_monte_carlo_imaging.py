"""Click-by-click imaging: sampled detections to a reconstructed object.

Shots are i.i.d. draws from the exact detection distribution with a
counter-based random stream, so the run is reproducible from its seed.
Binary objects are read from h/v click majorities; semi-transparent pixels
get a per-pixel transmission fit against the single-block closed form.
"""

import numpy as np

from ifmsim import (
    PixelPattern,
    SchemeConfig,
    estimate_transmissions,
    reconstruct_pattern,
    sample_shots,
    statistical_check,
)
from ifmsim.schemes import run_scheme

rng = np.random.default_rng(6)
bits = "".join(str(b) for b in rng.integers(0, 2, size=8))
cfg = SchemeConfig("multipixel-zeno", PixelPattern.from_bits(bits), 100)
counts = sample_shots(cfg, 80_000, seed=11)

print(f"Hidden object: {bits}  (8 pixels, 100 cycles, 80000 photons, seed 11)")
print("\nClick counts:")
for label in sorted(counts.counts):
    if counts.counts[label]:
        print(f"  {label}: {counts.counts[label]}")
print(f"  absorbed: {counts.absorbed}")

image = reconstruct_pattern(counts, cfg)
recovered = "".join("1" if v == "opaque" else "0" if v == "transparent" else "?"
                    for v in image.verdicts)
print(f"\nReconstructed:  {recovered}")
print(f"Ground truth :  {bits}")
print(f"Match: {recovered == bits}")

check = statistical_check(counts, run_scheme(cfg).distribution)
worst = max(abs(z) for z in check.z_scores.values())
print(f"\nLargest |z| against the exact distribution: {worst:.2f} "
      f"({len(check.violations)} impossible-outcome violations)")

print("\nSemi-transparent object, two pixels with T = 0.1 and T = 0.9:")
semi = SchemeConfig("semitransparent-zeno", PixelPattern((0.1, 0.9)), 100)
semi_counts = sample_shots(semi, 100_000, seed=12)
estimate = estimate_transmissions(semi_counts, semi)
for ell, (t_hat, interval) in enumerate(zip(estimate.transmission, estimate.intervals)):
    print(f"  pixel {ell}: T_hat = {t_hat:.3f}, interval [{interval[0]:.3f}, {interval[1]:.3f}]")
