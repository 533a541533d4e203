"""Seeded command streams for the benchmark workloads.

Each workload is an endless stream of ``ifmsim`` argv lists made from the
workload seed; the program sees only the argv lists.  Sizes (scheme kind,
d, N, shots, sweep length) follow a fixed Halton sequence, so every prefix
of the stream covers the size ranges evenly and every seed measures the
same mix of cheap and expensive commands: a run stops after a fixed time,
and with random sizes the median and p90 of about a hundred commands
moved by 10% from seed to seed.  The seed draws everything else: the
objects (densities, occupancy bits, transmissions), the sweep axis values
and the sampling seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

HALTON_BASES = (2, 3, 5, 7, 11)

# Pattern densities are drawn from this grid, endpoints included, so
# all-transparent and all-opaque objects occur.
DENSITIES = tuple(k / 10 for k in range(11))

CYCLING_KINDS = ("zeno-single-pixel", "multipixel-zeno", "michelson-zeno",
                 "semitransparent-zeno")
ALL_KINDS = ("ev-single-pass", "multipixel-single-pass") + CYCLING_KINDS
SINGLE_PIXEL_KINDS = ("ev-single-pass", "zeno-single-pixel")


def radical_inverse(index: int, base: int) -> float:
    """Van der Corput radical inverse of ``index`` in ``base``."""
    value, scale = 0.0, 1.0 / base
    while index:
        index, digit = divmod(index, base)
        value += digit * scale
        scale /= base
    return value


class Halton:
    """Points of the Halton sequence in [0, 1)^dims, from index 1 on."""

    def __init__(self, dims: int):
        self.dims = dims
        self.index = 0

    def next(self) -> list[float]:
        self.index += 1
        return [radical_inverse(self.index, b) for b in HALTON_BASES[:self.dims]]


def pick(u: float, options: tuple):
    return options[min(int(u * len(options)), len(options) - 1)]


def int_range(u: float, lo: int, hi: int) -> int:
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def log_int(u: float, lo: float, hi: float) -> int:
    return int(round(lo * (hi / lo) ** u))


def bits(rng: random.Random, d: int) -> str:
    rho = rng.choice(DENSITIES)
    return "".join("1" if rng.random() < rho else "0" for _ in range(d))


def transmissions(rng: random.Random, d: int) -> str:
    """Semi-transparent object: opaque, transparent or graded pixels."""
    rho = rng.choice(DENSITIES)
    values = []
    for _ in range(d):
        if rng.random() < rho:
            values.append("0")
        elif rng.random() < 1 / 3:
            values.append("1")
        else:
            values.append(f"{rng.uniform(0.05, 0.95):.4f}")
    return ",".join(values)


def object_flags(rng: random.Random, d: int, semi: bool) -> list[str]:
    if semi:
        return ["--transmissions", transmissions(rng, d)]
    return ["--pattern", bits(rng, d)]


def run_argv(kind: str, d: int, n: int, obj: list[str]) -> list[str]:
    return ["run", "--scheme", kind, "--d", str(d), "--N", str(n), *obj]


# ---------------------------------------------------------------------------
# exact-large-d
# ---------------------------------------------------------------------------

LARGE_D = {"kinds": ("multipixel-zeno", "michelson-zeno"), "d": (10, 16), "N": (32, 2048)}


def large_d_stream(seed: int) -> Iterator[list[str]]:
    rng = random.Random(seed)
    seq = Halton(3)
    p = LARGE_D
    while True:
        uk, ud, un = seq.next()
        d = int_range(ud, *p["d"])
        yield run_argv(pick(uk, p["kinds"]), d, log_int(un, *p["N"]), ["--pattern", bits(rng, d)])


# ---------------------------------------------------------------------------
# exact-many-small
# ---------------------------------------------------------------------------

MANY_SMALL = {
    "run": {"kinds": ALL_KINDS, "d": (1, 8), "N": (1, 256), "semi_fraction": 0.5},
    "long_run": {"every": 10, "slot": 4, "kinds": CYCLING_KINDS, "d": (1, 4), "N": (1000, 10000)},
    "sweep": {"every": 5, "slot": 2, "kinds": CYCLING_KINDS, "d": (1, 8), "N": (1, 256),
              "points": (3, 8)},
    "verify": {"every": 100, "slot": 99},
}


def _small_d(kind: str, u: float, lo: int, hi: int) -> int:
    return 1 if kind in SINGLE_PIXEL_KINDS else int_range(u, lo, hi)


def many_small_stream(seed: int) -> Iterator[list[str]]:
    rng = random.Random(seed)
    p = MANY_SMALL
    seqs = {"run": Halton(3), "long_run": Halton(3), "sweep": Halton(4)}
    index = 0
    while True:
        if index % p["verify"]["every"] == p["verify"]["slot"]:
            slot = "verify"
        elif index % p["long_run"]["every"] == p["long_run"]["slot"]:
            slot = "long_run"
        elif index % p["sweep"]["every"] == p["sweep"]["slot"]:
            slot = "sweep"
        else:
            slot = "run"
        index += 1
        q = p[slot]
        if slot == "verify":
            yield ["verify", "--format", "json"]
            continue
        if slot == "sweep":
            yield _sweep_argv(rng, q, seqs["sweep"].next())
            continue
        uk, ud, un = seqs[slot].next()
        kind = pick(uk, q["kinds"])
        d = _small_d(kind, ud, *q["d"])
        semi = kind != "zeno-single-pixel" and rng.random() < q.get("semi_fraction", 0.0)
        yield run_argv(kind, d, log_int(un, *q["N"]), object_flags(rng, d, semi))


def _sweep_argv(rng: random.Random, q: dict, u: list[float]) -> list[str]:
    uk, ud, un, ua = u
    points = int_range(un, *q["points"])
    if ua < 0.5:
        kind = pick(uk, q["kinds"])
        d = _small_d(kind, ud, *q["d"])
        # The single-pixel closed form needs a binary object.
        semi = kind != "zeno-single-pixel" and rng.random() < 0.5
        axis = sorted({log_int(rng.random(), *q["N"]) for _ in range(points)})
        return ["sweep", "--scheme", kind, "--d", str(d), *object_flags(rng, d, semi),
                "--sweep-N", ",".join(map(str, axis))]
    # Uniform transmissions other than 0 and 1 have no single-pixel closed form.
    kind = pick(uk, q["kinds"][1:])
    d = int_range(ud, *q["d"])
    n = log_int(rng.random(), *q["N"])
    axis = [f"{rng.random():.3f}" for _ in range(points - 2)] + ["0", "1"]
    rng.shuffle(axis)
    return ["sweep", "--scheme", kind, "--d", str(d), "--N", str(n), "--sweep-T", ",".join(axis)]


# ---------------------------------------------------------------------------
# shots-imaging
# ---------------------------------------------------------------------------

SHOTS = {
    "kinds": ("semitransparent-zeno", "multipixel-zeno", "michelson-zeno",
              "multipixel-single-pass"),
    "d": (2, 8), "N": (2, 128), "shots": (100_000, 4_000_000),
}


def shots_stream(seed: int) -> Iterator[list[str]]:
    rng = random.Random(seed)
    seq = Halton(4)
    p = SHOTS
    while True:
        uk, ud, un, us = seq.next()
        kind = pick(uk, p["kinds"])
        d = int_range(ud, *p["d"])
        obj = object_flags(rng, d, kind == "semitransparent-zeno")
        yield ["shots", "--scheme", kind, "--d", str(d), "--N", str(log_int(un, *p["N"])), *obj,
               "--shots", str(log_int(us, *p["shots"])), "--seed", str(rng.randrange(2**31))]


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    stream: Callable[[int], Iterator[list[str]]]
    # Untimed commands run first: the workload's largest sizes, so peak
    # memory is set by the stated size range and not by which sizes a
    # seed happens to reach, plus one command of every other type.
    warmup: tuple[tuple[str, ...], ...]


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "exact-large-d",
            LARGE_D, large_d_stream,
            warmup=(("run", "--scheme", "michelson-zeno", "--d", "16", "--N", "257",
                     "--pattern", "1010101010101010"),),
        ),
        Workload(
            "exact-many-small",
            MANY_SMALL, many_small_stream,
            warmup=(("run", "--scheme", "michelson-zeno", "--d", "4", "--N", "10000",
                     "--pattern", "1010"),
                    ("sweep", "--scheme", "multipixel-zeno", "--d", "8", "--N", "64",
                     "--sweep-T", "0,0.5,1"),
                    ("verify", "--format", "json")),
        ),
        Workload(
            "shots-imaging",
            SHOTS, shots_stream,
            warmup=(("shots", "--scheme", "semitransparent-zeno", "--d", "8", "--N", "128",
                     "--transmissions", "0,1,0.5,0.25,0.75,0.1,0.9,1",
                     "--shots", "4000000", "--seed", "1"),
                    ("shots", "--scheme", "multipixel-zeno", "--d", "8", "--N", "128",
                     "--pattern", "10110010", "--shots", "4000000", "--seed", "2")),
        ),
    )
}
