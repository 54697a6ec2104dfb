"""Riemann sums, the sandwich bounds, the blue region, and the limit table."""

import math

import numpy as np
import pytest

from densemahler import limits, mahler_closed
from densemahler.limits import (INTEGRAL, LIMIT, blue_integral, error_E,
                                limit_report, riemann_sum)
from densemahler.mahler_closed import grid_weight_sum
from densemahler.specfun import ZETA3
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
    # S_n <= I <= S_n + eps(n), the paper's lemma, with the exact eps(n)
    for n in (3, 5, 10, 20, 1000, 10**4, 10**5, 10**6):
        s = riemann_sum(n)
        assert s <= INTEGRAL <= s + blue_integral(n)


def test_blue_integral_rate():
    # eps(n) = pi^3 ((10/3) log n + 49/9 - 2 log pi - (4/3) log 2 pi)/n^2
    # - 3 pi zeta(3)/n^3 + O(log n / n^4), so n eps(n) -> 0
    for n in (100, 1000, 10**4, 10**5, 10**6):
        lead = (10.0 / 3.0 * math.log(n) + 49.0 / 9.0 - 2.0 * math.log(math.pi)
                - 4.0 / 3.0 * math.log(TWO_PI))
        rate = math.pi ** 3 * lead / n ** 2 - 3.0 * math.pi * ZETA3 / n ** 3
        assert abs(blue_integral(n) - rate) <= 0.05 / n ** 2 * rate


def test_square_centers_inside_triangle():
    # the squares of blue_integral are centered on the pair grid
    for n in (5, 12):
        centers = np.column_stack(mahler_closed._pair_grid(n))
        assert centers.shape[0] == (n - 1) * (n - 2) // 2
        half = math.pi / n
        # every square fits in T, touching the hypotenuse at worst
        assert np.all(centers - half >= -1e-12)
        assert np.all(centers.sum(axis=1) + 2 * half <= TWO_PI + 1e-12)


def test_limit_report():
    rows = limit_report([10, 100, 1000])
    assert [r.d for r in rows] == [10, 100, 1000]
    for row in rows:
        assert row.gap == LIMIT - row.m_value
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


def _gauss_blue_integral(n, nodes=16):
    # I minus the exact sum of every square's tensor Gauss-Legendre terms
    theta_c, alpha_c = mahler_closed._pair_grid(n)
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = math.pi / n
    theta = theta_c[:, None, None] + half * x[None, :, None]
    alpha = alpha_c[:, None, None] + half * x[None, None, :]
    ww = half * w
    terms = ww[:, None] * ww * vol_array(theta, alpha)
    return INTEGRAL - math.fsum(terms.ravel().tolist())


def test_blue_integral_matches_gauss_squares():
    # the definition: I minus the squares' integrals, each by a 16 x 16
    # Gauss rule, which the log singularity of Cl2(theta + alpha) at the
    # hypotenuse limits to about 1e-8 (relative)
    for n in (1, 2, 3, 4, 5, 10, 17, 40):
        ref = _gauss_blue_integral(n)
        assert abs(blue_integral(n) - ref) <= 2e-8 * ref


def test_sandwich_functions_refuse_bad_orders(monkeypatch):
    # n must be an integer >= 1, as d is for PdSpec, checked before any work
    def never(*args):
        raise AssertionError("evaluated the series")

    monkeypatch.setattr(limits, "_cl2_integrals", never)
    for n in (0, -3, 2.5, True):
        with pytest.raises(ValueError, match=f"n must be .*{n!r}"):
            blue_integral(n)


def test_grid_orders_refuse_bad_orders(monkeypatch):
    # a grid order is an integer >= 2, checked before any Clausen value
    def never(*args):
        raise AssertionError("evaluated Cl2")

    monkeypatch.setattr(mahler_closed, "cl2_array", never)
    for f in (grid_weight_sum, riemann_sum, error_E):
        for n in (0, 1, 2.5, 7.0, True):
            with pytest.raises(ValueError, match=f"n must be .*>= 2.*{n!r}"):
                f(n)
