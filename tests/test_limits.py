"""Riemann sums, the sandwich bounds, the blue region, and the limit table."""

import math
import tracemalloc

import numpy as np
import pytest

from densemahler import limits, mahler_closed
from densemahler.limits import (INTEGRAL, LIMIT, blue_area_formula,
                                blue_integral, error_E, in_blue, limit_report,
                                max_vol_on_blue, partition_report, riemann_sum,
                                triangular_partition)
from densemahler.volume import vol, vol_array

TWO_PI = 2.0 * math.pi


def test_riemann_sum_examples():
    assert riemann_sum(2) == 0.0
    expect = (4.0 * math.pi ** 2 / 9.0) * vol(TWO_PI / 3.0, TWO_PI / 3.0)
    assert abs(riemann_sum(3) - expect) <= 1e-12
    # large n approaches the integral
    assert abs(riemann_sum(1600) - INTEGRAL) < 1e-3
    with pytest.raises(ValueError):
        riemann_sum(1)


def test_error_E_trend():
    assert error_E(101) < error_E(11)
    seq = [n * error_E(n) for n in (50, 100, 200, 400, 800)]
    assert all(a > b for a, b in zip(seq, seq[1:]))
    assert all(e >= 0.0 for e in (error_E(3), error_E(10), error_E(500)))


def test_sandwich():
    ref = INTEGRAL
    for n in (5, 10, 20):
        s = riemann_sum(n)
        eps = blue_integral(n)
        assert s <= ref
        assert ref <= s + eps + 1e-9


def test_square_centers_inside_triangle():
    # the squares of blue_integral are centered on the pair grid
    for n in (5, 12):
        centers = np.column_stack(mahler_closed._pair_grid(n))
        assert centers.shape[0] == (n - 1) * (n - 2) // 2
        half = math.pi / n
        # every square fits in T, touching the hypotenuse at worst
        assert np.all(centers - half >= -1e-12)
        assert np.all(centers.sum(axis=1) + 2 * half <= TWO_PI + 1e-12)


def test_blue_area_against_indicator_grid():
    for n in (8, 16):  # the subpartitions for d = 7 and d = 15
        m = 4000
        pitch = TWO_PI / m
        g = (np.arange(m) + 0.5) * pitch
        th, al = np.meshgrid(g, g, indexing="ij")
        keep = th + al <= TWO_PI
        numeric = float(np.sum(in_blue(th[keep], al[keep], n))) * pitch ** 2
        formula = blue_area_formula(n)
        assert abs(numeric - formula) <= 0.02 * formula


def test_partition_report_bound():
    for n in (5, 10, 20, 40):
        rep = partition_report(n)
        assert rep.error_E >= 0.0
        assert rep.error_E <= rep.max_vol_on_blue * rep.blue_area + 1e-9
        assert rep.max_vol_on_blue <= vol(TWO_PI / 3, TWO_PI / 3) + 1e-9


def test_max_vol_on_blue_shrinks():
    assert max_vol_on_blue(80) < max_vol_on_blue(10)


def test_triangular_partition_tiles_and_counts():
    for n in (3, 6, 11):
        lower, upper = triangular_partition(n)
        assert len(lower) == n * (n + 1) // 2
        assert len(upper) == n * (n - 1) // 2
        h = TWO_PI / n
        area = (len(lower) + len(upper)) * h * h / 2.0
        assert abs(area - 2.0 * math.pi ** 2) <= 1e-9
        # every interior lattice point is shared by exactly six triangles
        counts = {}
        for tri in lower + upper:
            for v in tri:
                counts[v] = counts.get(v, 0) + 1
        for (i, j), c in counts.items():
            if i > 0 and j > 0 and i + j < n:
                assert c == 6


def test_interpolant_identity_matches_riemann_sum():
    # summing the linear interpolant over all triangles collapses, via the
    # six-fold vertex count and boundary vanishing, to exactly S_n
    for n in (4, 9):
        lower, upper = triangular_partition(n)
        h = TWO_PI / n
        total = 0.0
        for tri in lower + upper:
            total += sum(vol(v[0] * h, v[1] * h) for v in tri)
        assert abs((h * h / 6.0) * total - riemann_sum(n)) <= 1e-9


def test_limit_report():
    rows = limit_report([10, 100, 1000])
    assert [r.d for r in rows] == [10, 100, 1000]
    for row in rows:
        assert row.gap == abs(row.m_value - LIMIT)
        assert row.reconstruction_residual <= 1e-8
    gaps = [r.gap for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]
    assert rows[-1].gap < 0.01
    with pytest.raises(ValueError):
        limit_report([])


def test_limit_report_computes_each_weight_sum_once(monkeypatch):
    # a row needs W(d+1) and W(d+2) once each: m(P_d), E(d+1) and E(d+2)
    # are all taken from them
    ds = [1, 10, 1000]
    expected = limit_report(ds)
    calls = []
    original = mahler_closed.grid_weight_sum

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(mahler_closed, "grid_weight_sum", counting)
    monkeypatch.setattr(limits, "grid_weight_sum", counting)
    assert limit_report(ds) == expected
    assert calls == [n for d in ds for n in (d + 1, d + 2)]


def test_partition_report_computes_the_weight_sum_once(monkeypatch):
    # S_n and E(n) both come from one W(n)
    expected = partition_report(50)
    calls = []
    original = limits.grid_weight_sum

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(limits, "grid_weight_sum", counting)
    assert partition_report(50) == expected
    assert calls == [50]


def _unblocked_blue_integral(n):
    # every square's tensor Gauss-Legendre terms at once, summed exactly
    theta_c, alpha_c = mahler_closed._pair_grid(n)
    x, w = np.polynomial.legendre.leggauss(limits._SQUARE_NODES)
    half = math.pi / n
    theta = theta_c[:, None, None] + half * x[None, :, None]
    alpha = alpha_c[:, None, None] + half * x[None, None, :]
    ww = half * w
    terms = ww[:, None] * ww * vol_array(theta, alpha)
    return INTEGRAL - math.fsum(terms.ravel().tolist())


def _unblocked_max_vol_on_blue(n):
    # the whole (4n)^2 grid at once
    m = 4 * n
    grid = (np.arange(m) + 0.5) * (TWO_PI / m)
    th, al = np.meshgrid(grid, grid, indexing="ij")
    keep = th + al <= TWO_PI
    th, al = th[keep], al[keep]
    blue = in_blue(th, al, n)
    return float(np.max(vol_array(th[blue], al[blue])))


def test_blocked_diagnostics_match_one_pass():
    # a max does not depend on which points are read, as long as every blue
    # one is, so max_vol_on_blue keeps its bits; the regrouped sums of the
    # squares are rounded sums, so blue_integral sits a few ulps of I from
    # the exact sum of the same terms
    for n in (1, 2, 3, 4, 5, 10, 17, 40):
        assert max_vol_on_blue(n) == _unblocked_max_vol_on_blue(n)
        assert (abs(blue_integral(n) - _unblocked_blue_integral(n))
                <= 8 * math.ulp(INTEGRAL))


def test_blocked_diagnostics_memory():
    # holding every point at once would take 72 MiB for blue_integral(150)
    # and 34 MiB for max_vol_on_blue(300), growing like n^2
    for f, n, limit in ((blue_integral, 150, 16), (max_vol_on_blue, 300, 8)):
        tracemalloc.start()
        try:
            f(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit * 2**20, (f.__name__, peak)


def test_sandwich_diagnostics_cost_is_linear(monkeypatch):
    # blue_integral reads O(n) Clausen angles and max_vol_on_blue classifies
    # O(n) midpoints; a scan of all squares or of the (4n)^2 grid would pass
    # 11 M points and classify 0.7 M at n = 300
    n = 300
    counts = {"points": 0, "classified": 0}

    def counting(name, key, f):
        def wrapped(*args, **kwargs):
            counts[key] += np.broadcast(*map(np.asarray, args[:2])).size
            return f(*args, **kwargs)
        monkeypatch.setattr(limits, name, wrapped, raising=False)

    counting("cl2_array", "points", getattr(limits, "cl2_array", None))
    counting("vol_array", "points", limits.vol_array)
    counting("in_blue", "classified", limits.in_blue)
    blue_integral(n)
    assert 0 < counts["points"] <= 300 * n
    max_vol_on_blue(n)
    assert 0 < counts["classified"] <= 40 * n


def test_sandwich_functions_refuse_bad_orders(monkeypatch):
    # n must be an integer >= 1, as d is for PdSpec, checked before any work
    def never(*args):
        raise AssertionError("evaluated vol")

    monkeypatch.setattr(limits, "vol_array", never)
    monkeypatch.setattr(limits, "cl2_array", never, raising=False)
    for f in (blue_area_formula, blue_integral, max_vol_on_blue,
              triangular_partition):
        for n in (0, -3, 2.5, True):
            with pytest.raises(ValueError, match=f"n must be .*{n!r}"):
                f(n)


def test_quadratic_diagnostics_refuse_large_n(monkeypatch):
    # their time or memory grows like n^2, so above MAX_QUADRATIC_D they
    # raise before any work
    from densemahler.toric import MAX_QUADRATIC_D

    def never(*args):
        raise AssertionError("evaluated vol")

    monkeypatch.setattr(limits, "vol_array", never)
    n = MAX_QUADRATIC_D + 1
    for f in (blue_integral, max_vol_on_blue, triangular_partition):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"n = {n} exceeds"):
                f(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (f.__name__, peak)
