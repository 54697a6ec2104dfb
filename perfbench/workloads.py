"""Seeded request lists for the three benchmark workloads.

Every workload is a closed loop: one caller sends the next request only after
the previous one has returned, and a pass sends the whole list once.  The
seed is the only input; the package only ever receives the generated d lists
and argv lists below.

Each d list is stratified: it always holds both ends of its range plus one
value near the middle of each of n - 2 equal strata, and strata mirrored
about the middle take mirrored offsets.  The list thus follows the stated
distribution (log-uniform or uniform) on every seed, while its median, its
upper percentiles, its total work and its largest working set barely move.
The seed draws the offsets and the remaining parameters, whose ranges are
narrow for the same reason: across seeds the spread of a metric should
measure the code and the machine, not the draw.  The order of a pass is
fixed, because the peak RSS depends on the order of the allocations.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("closed-large-d", "oracle-check", "sweep-session")

# argv placeholder that the runner replaces with a fresh file in its scratch
# directory inside the checkout
OUT = "{out}"


def spread(rng, n: int, lo: float, hi: float, log: bool = False,
           jitter: float = 0.0) -> list:
    """n >= 2 integers covering [lo, hi]: both ends plus n - 2 stratum values.

    Each inner value sits within jitter/2 of a stratum width of its stratum's
    middle; mirrored strata take mirrored offsets.
    """
    inner = n - 2
    u = rng.uniform(-0.5, 0.5, size=(inner + 1) // 2)
    offsets = np.concatenate([u, -u[:inner // 2][::-1]])
    if inner % 2:
        offsets[inner // 2] = 0.0  # the middle stratum is its own mirror
    pos = np.concatenate([[0.0, 1.0], (np.arange(inner) + 0.5 + jitter * offsets) / inner])
    vals = lo * (hi / lo) ** pos if log else lo + (hi - lo) * pos
    return [int(v) for v in np.rint(vals)]


def closed_large_d(rng) -> list:
    # Why: the O(d) aggregated route at d up to 1e6.  specfun.cl2_array takes
    # about 81% of the time at d = 1e6, on arrays of up to 1e6 doubles, and
    # mahler_closed (grid_weight_sum, the weight_mass bound) the rest;
    # polynomials and mahler_oracle do nothing here.  Moves with Clausen
    # folding, chunking of cl2_array (peak_mem_mb: 114 MB at d = 1e6 against
    # 28 MB at d = 1e3) and any large-d precision change.  d = 1e6 is always
    # in the list, so the peak working set is the same on every seed.
    return [("closed", d) for d in spread(rng, 40, 1e3, 1e6, log=True, jitter=0.2)]


def oracle_check(rng) -> list:
    # Why: m_oracle with the default config; polynomials.aberth_roots_batch
    # is about 99% of its time (_polyval_batch Horner about 35%) while
    # specfun is nearly idle.  The primitive_check arcs use the same Aberth
    # layer another way: warm-started neighbouring slices off the unit
    # circle, then a per-point Python continuation loop.  An Aberth change
    # tuned to Gauss-node batches that hurts this use shows here.  Radii stay
    # in [0.85, 0.95] or [1.05, 1.15], away from the branch points on |x| = 1.
    # d takes no jitter: one step of d moves an oracle call by about 15%.
    reqs = [("oracle", d) for d in spread(rng, 12, 8, 30)]
    # 2000-3000 steps keep the arcs below d = 16, which sets the median
    for d, steps in zip(spread(rng, 3, 3, 8), spread(rng, 3, 2000, 3000)):
        side = 1.0 if rng.uniform() < 0.5 else -1.0
        radius = 1.0 + side * rng.uniform(0.05, 0.15)
        t0 = rng.uniform(0.0, 2.0 * np.pi)
        reqs.append(("arc", d, float(radius), float(t0),
                     float(t0 + rng.uniform(0.5, 1.5)), steps))
    return reqs


def sweep_session(rng) -> list:
    # Why: thousands of tiny calls, so per-call overhead dominates: argparse,
    # CSV formatting, the cli thread pool and cl2_array on short arrays, the
    # opposite regime to closed-large-d.  The O(d^2) routes also load
    # toric.enumerate_toric (0.44 s at d = 300) and volume.vol_array.  A
    # large-array speed-up that adds per-call cost shows here, and so does
    # removing the sweep's thread pool: sweep --from 1 --to 30
    # --oracle-up-to 30 took 5.6 s with the default 2 workers and 9.8 s with
    # MAHLER_THREADS=1 on a 2-core machine.
    n_to = int(rng.integers(2450, 2551))
    k_oracle = int(rng.integers(9, 12))
    script = [["sweep", "--from", "1", "--to", str(n_to),
               "--oracle-up-to", str(k_oracle), "--out", OUT]]
    # 14 small measures make the tiny calls the majority, so the median
    # request is one whose time is mostly per-call overhead
    for method, lo, hi, log, n in (("aggregated", 1, 100, True, 14),
                                   ("pointwise", 2, 300, False, 3),
                                   ("volsum", 2, 300, False, 3),
                                   ("aggregated", 1, 1e5, True, 3),
                                   ("oracle", 1, 15, False, 3)):
        for d in spread(rng, n, lo, hi, log, jitter=0.2):
            script.append(["measure", "--d", str(d), "--method", method])
    d_toric = int(rng.integers(30, 41))
    grid_n = int(rng.integers(120, 131))
    d_list = ",".join(map(str, spread(rng, 4, 10, 1e5, log=True, jitter=0.2)))
    n_list = ",".join(map(str, spread(rng, 4, 50, 2000, log=True, jitter=0.2)))
    script += [["report", "toric", "--d", str(d_toric), "--out", OUT],
               ["report", "limit", "--d", d_list, "--out", OUT],
               ["report", "riemann", "--n", n_list, "--out", OUT],
               ["report", "vol-integral", "--out", OUT],
               ["report", "vol-grid", "--grid-n", str(grid_n), "--out", OUT]]
    return script


def build(workload: str, seed: int) -> list:
    """The request list of one pass; the same seed gives the same list."""
    makers = {"closed-large-d": closed_large_d, "oracle-check": oracle_check,
              "sweep-session": sweep_session}
    return makers[workload](np.random.default_rng(seed))
