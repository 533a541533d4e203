"""Measure the norm drift of unitary runs against the rounding budget.

Run it from anywhere in a checkout:

    python3 tools/rounding_budget.py

It runs transparent objects, where no amplitude is absorbed, through every
scheme kind: the four cycling kinds at d = 1..24 (d = 1 for the single-pixel
kind) and 15 cycle counts from 1 to 10^4, around the engine's block of
trace rows too, and the two single-pass kinds once each at d = 1..24.  It
prints the largest ratio |1 - survival| / (eps * element applications) of
every trace row before the clamp, counting the applications up to that
row, over all runs and over the cycling runs: the row's share of its
``BuiltScheme.rounding_budget()`` entry, times
``schemes.ROUNDING_ULPS_PER_APPLICATION``.  A run's readout takes the
survival of its last row (the switch-out only moves labels), so these
ratios cover the final states too.  ``schemes.ROUNDING_ULPS_PER_APPLICATION``
is set from them; the script exits 1 when either reaches it, and 0
otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ifmsim import core, schemes  # noqa: E402
from ifmsim.schemes import KINDS, SchemeConfig  # noqa: E402

CYCLES = (1, 2, 3, 4, 7, 16, 63, 255, 256, 257, 513, 1000, 2048, 4097, 10_000)
PIXELS = range(1, 25)


def configs():
    for kind, spec in sorted(KINDS.items()):
        for d in PIXELS if spec.per_pixel else (1,):
            for n in (1,) if spec.single_pass else CYCLES:
                yield SchemeConfig(kind, core.PixelPattern.transparent(d), n)


def main() -> int:
    runs = 0
    rows = {"all": (0.0, None), "cycling": (0.0, None)}
    for config in configs():
        runs += 1
        built = schemes.build_scheme(config)
        # Survival after each cycle as the engine computes it, before the clamp.
        trace = schemes._cycles(built)[1]
        row_ratios = (schemes.ROUNDING_ULPS_PER_APPLICATION * np.abs(1.0 - trace)
                      / built.rounding_budget())
        row = int(np.argmax(row_ratios))
        groups = ("all",) if config.spec.single_pass else ("all", "cycling")
        for group in groups:
            rows[group] = max(rows[group], (float(row_ratios[row]), (config, row + 1)),
                              key=lambda item: item[0])
    print(f"{runs} unitary runs")
    for group in ("all", "cycling"):
        ratio, (config, row) = rows[group]
        print(f"trace rows, {group}: largest ratio {ratio:.3g} "
              f"({config.kind}, d={config.d}, N={config.n_cycles}, cycle {row})")
    worst = max(ratio for ratio, _ in rows.values())
    if worst >= schemes.ROUNDING_ULPS_PER_APPLICATION:
        print(f"a ratio reaches the budget of {schemes.ROUNDING_ULPS_PER_APPLICATION} "
              "ulps per application", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
