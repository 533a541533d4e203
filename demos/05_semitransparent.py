"""Semi-transparent pixels: exact block evolution and its large-N limits.

With transmission T per pixel, one cycle acts on the (H, V) amplitudes of
each OAM value through the 2x2 block
[[cos t, -sin t], [sqrt(T) sin t, sqrt(T) cos t]].  Raising the block to
the N-th power gives exact detector probabilities; for N >> 1 they approach
p_h ~ (1/d)(1 - (1+sqrt(T))/(1-sqrt(T)) pi^2/4N) with a v-detector leak
that scales as 1/N^2, and the absorption still vanishes for large N.
"""

from ifmsim import PixelPattern, SchemeConfig, asymptotic_distribution, exact_distribution, run_scheme


def one_pixel(t: float, n: int) -> SchemeConfig:
    return SchemeConfig("semitransparent-zeno", PixelPattern((t,)), n)


t_value = 0.25
print(f"One pixel with transmission T = {t_value}\n")

print("Exact (block power) vs the full state-vector run, N = 50:")
cfg = one_pixel(t_value, 50)
run = run_scheme(cfg).distribution
exact = exact_distribution(cfg)
for label in run.probabilities:
    print(f"  {label}: run {run.probabilities[label]:.10f}   "
          f"closed form {exact.exact[label]:.10f}")

print("\nApproach to the large-N expansion (coefficient (1+sqrt(T))/(1-sqrt(T)) = 3):")
print(f"  {'N':>6}  {'p_h exact':>12}  {'p_h large-N':>12}  {'p_v exact':>12}")
for n in (100, 1000, 10000):
    ex = exact_distribution(one_pixel(t_value, n))
    asym = asymptotic_distribution(one_pixel(t_value, n))
    print(f"  {n:>6}  {ex.exact['D0_h']:>12.8f}  {asym.asymptotic['D0_h']:>12.8f}  "
          f"{ex.exact['D0_v']:>12.3e}")
print("  -> p_v drops fourfold per doubling of N (1/N^2 scaling).")

print("\nAbsorption vanishes with N for any T < 1:")
print(f"  {'T':>5}  {'p_abs(N=100)':>13}  {'p_abs(N=1e3)':>13}  {'p_abs(N=1e4)':>13}")
for t in (0.0, 0.5, 0.9):
    row = [exact_distribution(one_pixel(t, n)).p_abs for n in (100, 1000, 10000)]
    print(f"  {t:>5.2f}  {row[0]:>13.6f}  {row[1]:>13.6f}  {row[2]:>13.6f}")
