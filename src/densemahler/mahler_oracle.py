"""Ground-truth Mahler measure from the definition, and exactness checks.

The torus integral defining m(P_d) is reduced by Jensen's formula: for fixed
x = e^{i theta} the inner average of log|P_d(x, e^{i phi})| over phi equals
sum_j log max(1, |y_j|) over the roots y_j of the monic y-slice.  That turns
a singular 2-D integrand into a continuous 1-D one which is piecewise
analytic: its only kinks sit where a slice root crosses the unit circle,
i.e. exactly at the x-angles of the torus zeros.  Placing quadrature panel
breaks at all angles 2 pi k/(d+1) and 2 pi k/(d+2) restores spectral
accuracy for Gauss-Legendre inside each panel.  P_d has real coefficients,
so the slice at e^{-i theta} is the conjugate of the slice at e^{i theta}
and the integrand satisfies f(theta) = f(2 pi - theta): only the panels on
[0, pi] are integrated (the kinks below pi, then pi itself, which is always
a kink) and the result is scaled by 1/pi.  The reported error estimate is
read from the values the rule already has: on each panel they give the
Legendre coefficients of the integrand's interpolant, the decay rate of their
envelope is extrapolated to the degree 2n the n-node rule cannot integrate,
and a floor for the rounding of the panel's weighted sum is added.  The
per-panel estimates are summed; it is an empirical estimate, not a proven
bound, checked against mpmath and the closed route in the tests.

The slices are solved by Aberth iteration warm-started from nearby solved
roots: every _SEED_STRIDE-th angle is a seed, every seed starts from the
roots of one cold solve, and every angle then starts from the roots of its
nearest seed, at most _SEED_STRIDE/2 angles away.

primitive_check integrates the curve one-form

    eta = log|y| d arg(x) - log|x| d arg(y)

along a tracked branch y(t) over the arc x(t) = r e^{it} and compares with
the increment of the volume function V, whose differential eta is, taken from
volume.volume_v (valid off the unit torus).  Branch tracking solves every
fibre of the arc with the same warm-started batch solver as the quadrature,
starts from the root of least (real, imaginary) part and is plain
nearest-root continuation, followed in runs of one root index: a window of
fibres is matched against the previous fibres' roots at that index in one
array operation, and it is accepted up to the first fibre whose nearest root
sits at another index.  That is O(m d) work for m fibres of d roots, in a
handful of numpy calls per run.  An ambiguous match or a near-collision of
roots raises ContinuationError instead of guessing a branch.

vol_integral_quadrature evaluates the 2-D integral of vol over the triangle
T by nested Gauss-Legendre with panels geometrically graded toward the
edges, where vol has t*log(t) behavior; it must reproduce 6 pi zeta(3).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .polynomials import (_BLOCK_ELEMENTS, PdSpec, RootFindingError,
                          _require_order, aberth_roots_batch,
                          slice_coeff_matrix)
from .specfun import _CL2_BLOCK, TWO_PI
from .volume import vol_array, volume_v

_SEED_STRIDE = 12  # angles per warm-start seed: near enough for few sweeps
_GRADING_DEPTH = 8  # vol_integral_quadrature's refinement levels per edge
_VOL_NODES = 64  # vol_integral_quadrature's Gauss nodes per graded panel
_PANEL_NODES = 64  # m_oracle's default Gauss nodes per panel
# Largest d of m_oracle and eta_path_integral, whose time grows like d^3:
# 5 s at d = 120 (the README's timing table), nearly an hour at d = 1000.
MAX_ORACLE_D = 120
BRANCH_COLLISION_TOL = 1e-3


class OracleError(ArithmeticError):
    """Root finding failed inside the quadrature oracle; names the angle."""


class ContinuationError(ArithmeticError):
    """Branch tracking could not continue safely along the arc."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Gauss node count per panel; m_oracle places the panels at the kinks."""

    nodes_per_panel: int = _PANEL_NODES

    def __post_init__(self):
        # the error estimate fits a decay rate between the Legendre
        # coefficients (n - 1) // 2 and n - 1; with 2 nodes that starts at
        # a_0, the panel's mean, which says nothing about the decay
        if self.nodes_per_panel < 3:
            raise ValueError("need at least 3 nodes per panel")


def default_config(spec: PdSpec,
                   nodes_per_panel: int = _PANEL_NODES) -> QuadratureConfig:
    """The oracle's configuration; spec is not used, the panels depend on d."""
    return QuadratureConfig(nodes_per_panel)


def _require_oracle_d(d: int) -> None:
    if d > MAX_ORACLE_D:
        raise ValueError(f"oracle d = {d} exceeds MAX_ORACLE_D = {MAX_ORACLE_D}"
                         "; the oracle's time grows like d^3")


def _panel_breaks(d: int) -> list:
    # 0, the kinks 2 pi k/n in (0, pi) for n = d+1, d+2 (the x-angles of
    # the torus zeros, where slice roots cross the unit circle), then pi,
    # which is a kink too since d+1 or d+2 is even
    kinks = {TWO_PI * k / n
             for n in (d + 1, d + 2) for k in range(1, (n + 1) // 2)}
    return [0.0, *sorted(kinks), math.pi]


def _solve_blocks(spec: PdSpec, x0: np.ndarray, thetas: np.ndarray, start):
    # Aberth on the slices at x0 (angles thetas), at most _BLOCK_ELEMENTS
    # slice coefficients per call, each block started from start(lo, hi);
    # yields (lo, hi, roots) and a failure names the block's angle range
    rows = max(1, _BLOCK_ELEMENTS // (spec.d + 1))
    for lo in range(0, thetas.size, rows):
        hi = min(lo + rows, thetas.size)
        try:
            rts = aberth_roots_batch(slice_coeff_matrix(spec, x0[lo:hi]),
                                     initial=start(lo, hi))
        except RootFindingError as exc:
            raise OracleError(f"root finding failed in [{thetas[lo]:.6f}, "
                              f"{thetas[hi - 1]:.6f}]") from exc
        yield lo, hi, rts


def _slice_root_blocks(spec: PdSpec, x0: np.ndarray, thetas: np.ndarray):
    """Roots of the slices at x0 (taken at angles thetas), block by block.

    Yields (lo, hi, roots of slices lo..hi-1).  The first slice is solved
    cold; every _SEED_STRIDE-th slice is a seed started from its roots, and
    every slice then starts from the roots of its nearest seed.  Each block
    holds at most _BLOCK_ELEMENTS slice coefficients and builds only its
    own rows; a failure raises OracleError naming the block's angle range.
    The rows of an Aberth batch are independent and no block starts from
    another block's roots, so the block bound does not touch the bits.
    """
    _, _, cold = next(_solve_blocks(spec, x0[:1], thetas[:1],
                                    lambda lo, hi: None))
    seeds = np.concatenate([rts for _, _, rts in _solve_blocks(
        spec, x0[::_SEED_STRIDE], thetas[::_SEED_STRIDE],
        lambda lo, hi: cold[0])])
    nearest = np.minimum((np.arange(thetas.size) + _SEED_STRIDE // 2)
                         // _SEED_STRIDE, seeds.shape[0] - 1)
    yield from _solve_blocks(spec, x0, thetas,
                             lambda lo, hi: seeds[nearest[lo:hi]])


def _jensen_values(spec: PdSpec, thetas: np.ndarray) -> np.ndarray:
    """Vectorized Jensen integrand over many angles (batched Aberth)."""
    out = np.empty(thetas.size)
    for lo, hi, rts in _slice_root_blocks(spec, np.exp(1j * thetas), thetas):
        abs2 = rts.real ** 2 + rts.imag ** 2
        out[lo:hi] = 0.5 * np.sum(np.log(np.maximum(1.0, abs2)), axis=1)
    return out


@functools.cache
def _gauss_rule(n: int) -> tuple:
    """The n-node Gauss-Legendre rule on [-1, 1], built once per n.

    Returns read-only nodes x, weights w and _panel_error's matrix
    w_i P_k(x_i) (2k+1)/2, shape (n, n).  numpy.polynomial is imported here,
    at the first call, and not with the package: a module-level import of
    it slowed the oracle's benchmark by about 6%.
    """
    legendre = np.polynomial.legendre
    x, w = legendre.leggauss(n)
    weighted = w[:, None] * legendre.legvander(x, n - 1) * (np.arange(n) + 0.5)
    for a in (x, w, weighted):
        a.setflags(write=False)
    return x, w, weighted


def _panel_error(vals: np.ndarray) -> np.ndarray:
    """Error estimate of the n-node Gauss rule on each row of vals, on [-1, 1].

    A row holds f at the n nodes x_i of _gauss_rule(n), with weights w_i.
    The same weighted sums give the Legendre coefficients
    a_k = (2k+1)/2 sum_i w_i f(x_i) P_k(x_i), k < n, of the interpolant.
    Their envelope e_k = max_{j >= k} |a_j| decays like r^k, with r fitted
    between k = (n - 1) // 2 and n - 1.  The rule is exact to degree
    2n - 1, and its weights sum to 2 while |P_k| <= 1, so its error is
    about twice the coefficient of degree 2n: e_{n-1} is extrapolated n + 1
    degrees at the half rate sqrt(r), which also covers an envelope still
    steepening.  The floor 2 n eps max|f| bounds the rounding of the
    weighted sum.
    """
    n = vals.shape[1]
    # einsum's own loop, not a BLAS gemm: at these sizes it is as fast, and
    # gemm's packing buffers add about 1 MB of resident memory
    coeffs = np.einsum("pi,ik->pk", vals, _gauss_rule(n)[2])
    env = np.maximum.accumulate(np.abs(coeffs)[:, ::-1], axis=1)[:, ::-1]
    k_mid = (n - 1) // 2
    e_mid, e_last = env[:, k_mid], env[:, n - 1]
    # e_mid == 0 makes the envelope 0 from k_mid on, and so the rate
    rate = (e_last / np.maximum(e_mid, np.finfo(float).tiny)) ** (
        1.0 / (n - 1 - k_mid))
    tail = e_last * np.sqrt(rate) ** (n + 1)
    floor = n * np.finfo(float).eps * np.max(np.abs(vals), axis=1)
    return 2.0 * (tail + floor)


@dataclass(frozen=True)
class OracleResult:
    """m(P_d) from quadrature with its empirical error estimate.

    panels counts the panels integrated, those on [0, pi]; the integrand's
    mirror symmetry accounts for [pi, 2 pi].  error_estimate sums the
    panels' error estimates, each from the Legendre-coefficient tail of the
    panel's own values plus a rounding floor (_panel_error), scaled like
    value, by 1/pi.
    """

    value: float
    panels: int
    error_estimate: float


def _gauss_panels(breaks, nodes: np.ndarray) -> tuple:
    # Legendre nodes on [-1, 1] mapped onto each panel between consecutive
    # breaks: the points, shape (panels, nodes), and the panels' half-widths
    breaks = np.asarray(breaks)
    lo, hi = breaks[:-1], breaks[1:]
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi))[:, None] + half[:, None] * nodes, half


def m_oracle(spec: PdSpec, cfg: QuadratureConfig | None = None) -> OracleResult:
    """(1/pi) integral over [0, pi] of the Jensen integrand, panel by panel.

    The integrand is even about pi, so this is the (1/2pi) integral over
    [0, 2 pi].  The panels break at every kink 2 pi k/(d+1) and
    2 pi k/(d+2) below pi and end at pi, each with cfg.nodes_per_panel
    Gauss-Legendre nodes (default_config when cfg is None).  The integrand
    is evaluated once, at those nodes, and the error estimate is read from
    the same values, panel by panel (_panel_error; reported, not proven).
    The weighted sums are numpy's pairwise sums, not a BLAS product, whose
    kernel, and so whose rounding, depends on the CPU.
    d > MAX_ORACLE_D raises a ValueError.
    """
    _require_oracle_d(spec.d)
    if cfg is None:
        cfg = default_config(spec)
    x, w, _ = _gauss_rule(cfg.nodes_per_panel)
    thetas, half = _gauss_panels(_panel_breaks(spec.d), x)
    vals = _jensen_values(spec, thetas.ravel()).reshape(thetas.shape)
    return OracleResult(
        value=float(np.sum(half * np.sum(vals * w, axis=1))) / math.pi,
        panels=half.size,
        error_estimate=float(np.sum(half * _panel_error(vals)
                                    / math.pi)),
    )


@dataclass(frozen=True)
class CurveArc:
    """Arc x(t) = radius * e^{it}, t in [t_start, t_end], off the unit circle."""

    radius: float
    t_start: float
    t_end: float
    steps: int = 10_000

    def __post_init__(self):
        if not (0.8 < self.radius < 1.25) or self.radius == 1.0:
            raise ValueError("radius must lie in (0.8, 1.25) and differ from 1")
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ValueError("arc ends must be finite")
        if self.t_end == self.t_start:
            raise ValueError("arc must have nonzero extent")
        _require_order(self.steps, 8, "steps")


def _branch_columns(fibres: np.ndarray) -> np.ndarray:
    # the root index of the nearest-root chain in every row of fibres, from
    # the root of least (real, imaginary) part of row 0.  A window of rows
    # is matched assuming the index p of the row before it; the window is
    # taken up to its first row whose nearest root is not at p, which then
    # switches p.  Windows double while p holds, up to a block of values.
    m, d = fibres.shape
    cols = np.empty(m, dtype=np.intp)
    row = fibres[0]
    p = cols[0] = min(range(d), key=lambda j: (row[j].real, row[j].imag))
    i, width, cap = 1, 1, max(1, _BLOCK_ELEMENTS // d)
    while i < m:
        hi = min(i + width, m)
        near = np.abs(fibres[i:hi] - fibres[i - 1:hi - 1, p, None]).argmin(1)
        k = int(np.argmax(near != p))  # the first row that moves, else 0
        if near[k] == p:
            cols[i:hi] = p
            i, width = hi, min(2 * width, cap)
        else:
            cols[i:i + k] = p
            p = cols[i + k] = near[k]
            i, width = i + k + 1, 1
    return cols


def _follow_branch(fibres: np.ndarray) -> np.ndarray:
    """Nearest-root continuation through the rows of fibres, checked.

    Starts from the root of least (real, imaginary) part of row 0 and takes
    the nearest root of each next row.  Raises ContinuationError at the first
    row whose match is ambiguous (the two nearest roots within 1e-12 of each
    other in distance) or whose chosen root has another root closer than
    BRANCH_COLLISION_TOL, the margin checked first.  A single root per row
    is never checked.
    """
    m, d = fibres.shape
    cols = _branch_columns(fibres)
    y = fibres[np.arange(m), cols]
    if d == 1:
        return y
    rows = max(1, _BLOCK_ELEMENTS // d)
    for lo in range(1, m, rows):
        hi = min(lo + rows, m)
        block = fibres[lo:hi]
        nearest_two = np.partition(np.abs(block - y[lo - 1:hi - 1, None]), 1,
                                   axis=1)
        margin = nearest_two[:, 1] - nearest_two[:, 0]
        others = np.abs(block - y[lo:hi, None])
        others[np.arange(hi - lo), cols[lo:hi]] = np.inf
        gap = others.min(axis=1)
        ambiguous = margin < 1e-12
        bad = ambiguous | (gap < BRANCH_COLLISION_TOL)
        if np.any(bad):
            r = int(np.argmax(bad))
            if ambiguous[r]:
                raise ContinuationError(
                    f"ambiguous branch match (margin {margin[r]:.3e})")
            raise ContinuationError(
                f"branch collision: nearest other root at distance "
                f"{gap[r]:.3e} < {BRANCH_COLLISION_TOL}")
    return y


def _track_branch(spec: PdSpec, arc: CurveArc) -> np.ndarray:
    """Roots along the fine grid (endpoints plus midpoints) on one branch.

    Returns the branch values over 2*steps + 1 points (_follow_branch through
    their fibres).  Every fibre comes from one _slice_root_blocks pass; an
    ambiguous match or a near-collision of roots raises ContinuationError
    (take more steps or move the arc).
    """
    m = 2 * arc.steps + 1
    t = np.linspace(arc.t_start, arc.t_end, m)
    fibres = np.empty((m, spec.d), dtype=complex)
    for lo, hi, rts in _slice_root_blocks(spec, arc.radius * np.exp(1j * t), t):
        fibres[lo:hi] = rts
    return _follow_branch(fibres)


def eta_path_integral(spec: PdSpec, arc: CurveArc) -> dict:
    """Integral of eta along the tracked branch, with endpoint data.

    The d arg(x) part is a composite midpoint rule in t (arg x(t) = t); the
    d arg(y) part telescopes exactly as the accumulated argument increments
    of the tracked branch, so its only error is in the branch samples.
    d > MAX_ORACLE_D raises a ValueError.
    """
    _require_oracle_d(spec.d)
    y = _track_branch(spec, arc)
    h = (arc.t_end - arc.t_start) / arc.steps
    log_abs_mid = np.log(np.abs(y[1::2]))
    part_x = float(np.sum(log_abs_mid)) * h
    winding = float(np.sum(np.angle(y[1:] / y[:-1])))
    part_y = math.log(arc.radius) * winding
    x_start = arc.radius * cmath.exp(1j * arc.t_start)
    x_end = arc.radius * cmath.exp(1j * arc.t_end)
    return {
        "eta": part_x - part_y,
        "v_start": volume_v(spec, x_start, complex(y[0])),
        "v_end": volume_v(spec, x_end, complex(y[-1])),
        "y_start": complex(y[0]),
        "y_end": complex(y[-1]),
    }


def primitive_check(spec: PdSpec, arc: CurveArc) -> float:
    """|integral of eta along the arc minus (V(end) - V(start))|."""
    data = eta_path_integral(spec, arc)
    return abs(data["eta"] - (data["v_end"] - data["v_start"]))


def _graded_unit_rule(nodes: int, depth: int) -> tuple:
    # composite Gauss-Legendre on [0, 1] with panels geometrically refined
    # toward both endpoints, where the integrands behave like t*log(t)
    breaks = [0.0] + [2.0 ** -q for q in range(depth, 0, -1)]
    x, w, _ = _gauss_rule(nodes)
    pts, half = _gauss_panels(breaks, x)
    pts, wts = pts.ravel(), (half[:, None] * w).ravel()
    return (np.concatenate([pts, 1.0 - pts[::-1]]),
            np.concatenate([wts, wts[::-1]]))


def vol_integral_quadrature() -> float:
    """2-D integral of vol over the triangle; must match 6 pi zeta(3).

    Outer integral in alpha over [0, 2*pi], inner in theta over
    [0, 2*pi - alpha], both with the graded composite Gauss rule of
    _VOL_NODES nodes per panel.  The tensor grid is evaluated and reduced
    a block of alpha rows at a time, at most one Clausen kernel block of
    points (32 of 1024 rows), so memory stays O(block).  Every weighted sum
    is numpy's pairwise sum, not a BLAS product, whose kernel, and so whose
    rounding, depends on the CPU; vol_array works elementwise and each row
    is summed alone, so the value has the bits of the whole grid in one
    pass.
    """
    u, wu = _graded_unit_rule(_VOL_NODES, _GRADING_DEPTH)
    alpha = TWO_PI * u
    w_alpha = TWO_PI * wu
    length = TWO_PI - alpha
    inner = np.empty(u.size)
    rows = max(1, _CL2_BLOCK // u.size)
    for lo in range(0, u.size, rows):
        block = slice(lo, lo + rows)
        theta = length[block, None] * u
        inner[block] = np.sum(vol_array(theta, alpha[block, None]) * wu,
                              axis=1)
    inner *= length
    return float(np.sum(w_alpha * inner))
