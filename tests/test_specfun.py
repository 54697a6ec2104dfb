"""Clausen evaluator against the defining series, plus the zeta constants.

The frozen digits below were produced by the independent slow oracle
clausen_series (the defining sine series, Kahan/fsum summed to 1e7 terms
with a 1/N tail bound) and agree with the classical values of Catalan's
constant and the maximum of Cl2.
"""

import math
import tracemalloc

import numpy as np
import pytest

from densemahler import specfun
from densemahler.limits import INTEGRAL, LIMIT
from densemahler.specfun import (CL2_ERROR_BOUND, ZETA3, bloch_wigner, cl2,
                                 cl2_array)

TWO_PI = 2.0 * math.pi

# oracle-derived reference digits (series to 1e7 terms, tail < 1e-7, then
# refined by the same series at Richardson-free special angles; they match
# the long-known decimal expansions)
CATALAN = 0.915965594177219
CL2_MAX = 1.0149416064096536  # Cl2(pi/3), the maximum over [0, 2*pi)


def clausen_series(theta: float, n_terms: int = 1_000_000) -> float:
    """Slow reference: the defining series truncated at n_terms.

    The dropped tail is bounded by 1/n_terms in absolute value.  Used only as
    an independent oracle for testing the fast evaluator.
    """
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    chunk = 1_000_000
    partials = []
    start = 1
    while start <= n_terms:
        stop = min(start + chunk - 1, n_terms)
        n = np.arange(start, stop + 1, dtype=float)
        partials.append(float(np.sum(np.sin(n * theta) / (n * n))))
        start = stop + 1
    return math.fsum(partials)


def test_trivial_angles():
    assert cl2(0.0) == 0.0
    assert abs(cl2(math.pi)) <= 1e-12
    assert abs(cl2(TWO_PI)) <= 1e-12


def test_catalan_at_half_pi():
    assert abs(cl2(math.pi / 2) - CATALAN) <= 1e-12
    assert CL2_ERROR_BOUND <= 1e-12


def test_paper_value_two_thirds_pi():
    # 3 * Cl2(2*pi/3) is approximately 2.03
    assert abs(3.0 * cl2(2.0 * math.pi / 3.0) - 2.03) < 5e-3


def test_bloch_wigner_alias():
    # D(e^{i theta}) = Cl2(theta); the complex D is checked against cl2 in
    # test_bloch_wigner_complex_identities
    assert abs(cl2(math.pi / 3) - CL2_MAX) <= 1e-12
    # conjugation: D at 4*pi/3 is minus D at 2*pi/3
    assert abs(cl2(4 * math.pi / 3) + cl2(2 * math.pi / 3)) <= 2e-12
    assert abs(cl2(TWO_PI)) <= 1e-12


def test_zeta3_value_and_tail():
    z = ZETA3
    assert abs(z - 1.202056903159594) <= 1e-14
    # cross-check against the raw partial sum to 1e6 with its leading tail
    n = np.arange(1, 1_000_001, dtype=float)
    partial = float(np.sum(1.0 / n ** 3))
    gap = z - partial
    assert 0.0 < gap < 1e-12  # tail of sum 1/n^3 beyond 1e6 is ~5e-13


def test_zeta3_derived_constants():
    assert abs(LIMIT - 0.548) < 1e-3
    assert abs(INTEGRAL - 22.65823881697847) < 1e-10


def test_antisymmetry_periodicity_duplication(rng):
    thetas = rng.uniform(0.0, TWO_PI, 1000)
    for t in thetas:
        assert abs(cl2(t) + cl2(TWO_PI - t)) <= 2e-12
        assert abs(cl2(t) - cl2(t + TWO_PI)) <= 2e-12
        assert abs(cl2(2 * t) - 2 * cl2(t) + 2 * cl2(math.pi - t)) <= 1e-11


def test_series_oracle_agreement(rng):
    n_terms = 1_000_000
    tol = 1e-6 + 1.0 / n_terms
    for t in rng.uniform(0.0, TWO_PI, 100):
        assert abs(cl2(t) - clausen_series(t, n_terms)) <= tol


def test_maximum_location():
    grid = np.arange(0.0, math.pi, 1e-4)
    vals = cl2_array(grid)
    argmax = grid[int(np.argmax(vals))]
    assert abs(argmax - math.pi / 3.0) <= 1e-4
    # and no value exceeds the maximum beyond the error budget
    assert np.max(np.abs(vals)) <= CL2_MAX + CL2_ERROR_BOUND


def test_angle_reduction():
    # cl2_array reduces every finite angle mod 2*pi itself
    for raw in (-1.0, 7.0, 123456.789, -9876.5, 1e8, TWO_PI, 0.0):
        assert abs(cl2(raw) - cl2(raw % TWO_PI)) <= CL2_ERROR_BOUND
    # a tiny negative angle reduces to 2*pi after rounding, where Cl2 is 0
    assert cl2(-1e-300) == 0.0
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            cl2(bad)


def test_reduction_touches_only_out_of_range_angles(monkeypatch, rng):
    # only angles outside (0, 2*pi) go through np.mod, which returns the
    # others unchanged, so the values are the bits of reducing every angle;
    # blocks of 7 mix in-range and out-of-range angles
    edges = np.array([-0.0, 5e-324, -5e-324, -1e-300, -1e-13,
                      np.nextafter(TWO_PI, 0.0), TWO_PI, math.pi,
                      np.nextafter(math.pi, 4.0), 1e15, -1e15])
    mixed = rng.uniform(-40.0, 40.0, 200)
    monkeypatch.setattr(specfun, "_CL2_BLOCK", 7)
    for th in (mixed, edges, np.concatenate([mixed[:30], edges, mixed[30:]])):
        assert np.array_equal(cl2_array(th).view(np.uint64),
                              cl2_array(np.mod(th, TWO_PI)).view(np.uint64))
    for t in edges:
        got = cl2_array(np.float64(t))
        assert np.shape(got) == ()
        assert got.view(np.uint64) == cl2_array(np.mod(t, TWO_PI)).view(np.uint64)
    # -0.0 and -1e-300 (which reduces to 2*pi) give +0.0, not -0.0
    for t in (-0.0, -1e-300):
        assert cl2(t) == 0.0 and math.copysign(1.0, cl2(t)) == 1.0


def test_kernel_is_exactly_odd(monkeypatch, rng):
    # for t in (pi, 2*pi), u = 2*pi - t is exact and the kernel evaluates t
    # as -u, so Cl2(t) = -Cl2(u) holds bit for bit, on the grid angles of the
    # closed route, on random angles, on 0-d input and through blocks of 7
    grid = np.concatenate([TWO_PI * np.arange(n) / n
                           for n in (3, 4, 5, 7, 100, 1001, 4099)])
    for t in (grid, rng.uniform(0.0, TWO_PI, 20_000)):
        t = t[(t > math.pi) & (t < TWO_PI)]
        u = TWO_PI - t
        assert np.array_equal(TWO_PI - u, t)
        want = (-cl2_array(u)).view(np.uint64)
        assert np.array_equal(cl2_array(t).view(np.uint64), want)
        assert all(cl2_array(a).view(np.uint64) == b
                   for a, b in zip(t[:200], want))
        monkeypatch.setattr(specfun, "_CL2_BLOCK", 7)
        assert np.array_equal(cl2_array(t).view(np.uint64), want)
        monkeypatch.undo()


def test_array_matches_scalar(rng):
    # about 1 angle in 7000 tells a rounding difference between the 0-d and
    # the array path apart (x ** 2 on a numpy scalar against x * x)
    thetas = rng.uniform(-40.0, 40.0, 50_000)
    scalar = np.array([cl2(t) for t in thetas])
    assert np.array_equal(cl2_array(thetas), scalar)


def test_blocks_give_the_one_pass_bits(monkeypatch, rng):
    # with blocks of 7 angles every input is split, unevenly and across the
    # rows of a 2-D array; the values must be the unblocked kernel's bits in
    # the input's shape
    grid = rng.uniform(-40.0, 40.0, (6, 9))
    inputs = [np.float64(2.5), np.empty(0), grid, grid.T]
    inputs += [rng.uniform(-40.0, 40.0, n) for n in (1, 7, 8, 50)]
    expected = [cl2_array(th) for th in inputs]
    sizes = []
    block = specfun._cl2_block

    def counting_block(th):
        sizes.append(np.size(th))
        return block(th)

    monkeypatch.setattr(specfun, "_CL2_BLOCK", 7)
    monkeypatch.setattr(specfun, "_cl2_block", counting_block)
    for th, want in zip(inputs, expected):
        sizes.clear()
        got = cl2_array(th)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(np.asarray(got).view(np.uint64),
                              np.asarray(want).view(np.uint64))
        assert max(sizes) <= 7 and sum(sizes) == np.size(th)


def test_kernel_memory_stays_near_the_output():
    # blocked, the series' temporaries are a few blocks, so the peak is the
    # 8 MiB output plus change; one pass over 2^20 angles holds about 59 MB
    theta = np.linspace(-10.0, 10.0, 1 << 20)
    tracemalloc.start()
    try:
        cl2_array(theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * theta.nbytes


def test_bloch_wigner_complex_identities(rng):
    # D is odd under conjugation, inversion, and reflection z -> 1-z, and
    # restricts to the Clausen function on the unit circle
    for _ in range(200):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z) < 1e-3 or abs(z.imag) < 1e-9 or abs(z - 1) < 1e-3:
            continue
        d = bloch_wigner(z)
        assert abs(d + bloch_wigner(z.conjugate())) <= 1e-10
        assert abs(d + bloch_wigner(1.0 / z)) <= 1e-10
        assert abs(d + bloch_wigner(1.0 - z)) <= 1e-10
    for t in rng.uniform(0.05, TWO_PI - 0.05, 50):
        z = complex(math.cos(t), math.sin(t))
        assert abs(bloch_wigner(z) - cl2(t)) <= 1e-10
    assert bloch_wigner(0.5) == 0.0  # vanishes on the real axis
