"""The three closed routes to m(P_d) and their mutual agreement."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from densemahler import mahler_closed
from densemahler.limits import LIMIT
from densemahler.mahler_closed import (grid_weight_sum, m_closed,
                                       m_closed_aggregated,
                                       m_closed_pointwise, m_closed_volsum)
from densemahler.polynomials import PdSpec
from densemahler.specfun import CL2_ERROR_BOUND, cl2, cl2_array
from densemahler.toric import toric_indices
from densemahler.volume import vol

TWO_PI = 2.0 * math.pi


def test_known_value_d1():
    est = m_closed_pointwise(PdSpec(1))
    assert abs(est.value - cl2(math.pi / 3) / math.pi) <= 1e-11
    assert abs(est.value - 0.32) < 5e-3
    assert f"{est.value:.12f}" == "0.323065947219"
    assert est.value >= -est.error_bound


def test_known_value_d2():
    est = m_closed_pointwise(PdSpec(2))
    target = (4.0 * cl2(math.pi / 2) - 1.5 * cl2(2 * math.pi / 3)) / TWO_PI
    assert abs(est.value - target) <= 1e-11
    assert abs(est.value - 0.421) < 1e-3


def test_grid_weight_sum_matches_pair_sum():
    # W(n) against the definition as a literal double loop
    for n in (3, 4, 7, 12):
        direct = 0.0
        for k in range(1, n):
            for kp in range(k + 1, n):
                direct += vol(TWO_PI * k / n, TWO_PI * (kp - k) / n)
        assert abs(grid_weight_sum(n) - direct) <= 1e-11
    with pytest.raises(ValueError):
        grid_weight_sum(1)


def test_route_equivalence():
    for d in list(range(1, 51)) + [100, 200]:
        spec = PdSpec(d)
        a = m_closed_pointwise(spec).value
        b = m_closed_volsum(spec).value
        c = m_closed_aggregated(spec).value
        assert abs(a - b) <= 1e-9
        assert abs(b - c) <= 1e-9
        assert abs(a - c) <= 1e-9


def test_aggregated_validated_against_naive_sum():
    # the multiplicity count (n-1-j, n-1-j, j-1) is exact, so the regrouping
    # reproduces the naive pair sum at every d; this checks it up to 200
    for d in range(1, 201):
        spec = PdSpec(d)
        naive = m_closed_volsum(spec).value
        fast = m_closed_aggregated(spec).value
        tol = 1e-12 if d <= 3 else 1e-10
        assert abs(naive - fast) <= tol


def test_large_d_values_and_runtime():
    lim = LIMIT
    vals = {}
    for d in (10, 50, 100, 500, 1000):
        start = time.perf_counter()
        vals[d] = m_closed_aggregated(PdSpec(d)).value
        assert time.perf_counter() - start < 2.0
        assert 0.4 < vals[d] < 0.56
    assert abs(vals[1000] - lim) < abs(vals[100] - lim)
    # the quadratic-cost route still lands near the limit at d = 1000
    assert abs(m_closed_volsum(PdSpec(1000)).value - lim) < 0.01


def test_method_dispatch():
    spec = PdSpec(3)
    assert m_closed(spec, "pointwise") == m_closed_pointwise(spec)
    assert m_closed(spec, "volsum") == m_closed_volsum(spec)
    assert m_closed(spec, "aggregated") == m_closed_aggregated(spec)
    with pytest.raises(ValueError):
        m_closed(PdSpec(3), "nonsense")


def test_error_bounds_positive_and_small():
    for d in (1, 2, 17):
        for route in (m_closed_pointwise, m_closed_volsum, m_closed_aggregated):
            est = route(PdSpec(d))
            assert 0.0 < est.error_bound < 1e-6


def test_pointwise_bound_is_the_per_call_propagation():
    # each V takes 3 Clausen values over d+2 (on U_{d+1}) or over d+1 (on
    # U_{d+2}), and |eps| = 1, so the sum over the N torus zeros carries at
    # most N times the larger budget, divided by 2 pi
    for d in range(1, 7):
        n_points = toric_indices(PdSpec(d))[0].size
        per_v = max(3.0 / (d + 2), 3.0 / (d + 1))
        propagated = n_points * per_v * CL2_ERROR_BOUND / TWO_PI
        bound = m_closed_pointwise(PdSpec(d)).error_bound
        assert propagated * (1 - 1e-12) <= bound <= propagated * (1 + 1e-12)


def test_grid_weight_sum_chunks(monkeypatch):
    # W(n) is summed over chunks of the angles: every cl2_array call stays
    # within the chunk, and the value is the one-call value up to rounding
    sizes = []

    def counting_cl2(theta):
        sizes.append(np.size(theta))
        return cl2_array(theta)

    one_call = {n: grid_weight_sum(n) for n in (2, 3, 50, 1001)}
    monkeypatch.setattr(mahler_closed, "cl2_array", counting_cl2)
    monkeypatch.setattr(mahler_closed, "_GRID_CHUNK", 7)
    for n, value in one_call.items():
        sizes.clear()
        assert abs(grid_weight_sum(n) - value) <= 1e-12 * max(1.0, abs(value))
        assert max(sizes) <= 7 and sum(sizes) == n - 1


def test_weight_mass_closed_form():
    for n in range(2, 2001):
        j = np.arange(1, n)
        assert mahler_closed._weight_mass(n) == int(np.abs(2 * n - 3 * j - 1).sum())


def test_grid_weight_sum_bits_and_memory():
    # the grid is built in place, rounded step by step as the plain
    # expressions are: W(n) is bitwise the fsum of the chunk sums of
    # weights * Cl2 written out, for n on both sides of _GRID_CHUNK
    chunk = mahler_closed._GRID_CHUNK
    for n in (2, 3, 1001, 1 << 15, (1 << 15) + 1, (1 << 15) + 2,
              1 << 20, (1 << 20) + 1, (1 << 20) + 2):
        parts = []
        for lo in range(1, n, chunk):
            j = np.arange(lo, min(lo + chunk, n), dtype=float)
            parts.append(float(np.sum((2.0 * n - 3.0 * j - 1.0)
                                      * cl2_array(TWO_PI * j / n))))
        assert grid_weight_sum(n).hex() == math.fsum(parts).hex()
    # a chunk is one kernel block: the buffers of j and the angles, the
    # kernel's two scratch blocks and a chunk of Clausen values (256 KiB
    # each) plus its masks, whatever n is
    tracemalloc.start()
    try:
        grid_weight_sum((1 << 20) + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_grid_weight_sum_folds_by_oddness():
    # the fold of the module docstring: W(n) = sum_{1<=a<n/2} 3 (n - 2a)
    # Cl2(2 pi a / n), half the Clausen values, every weight positive
    for n in (3, 4, 7, 100, 32769, 32770, 100001):
        a = np.arange(1, (n + 1) // 2)
        folded = math.fsum(3.0 * (n - 2 * a) * cl2_array(TWO_PI * a / n))
        w = grid_weight_sum(n)
        assert abs(folded - w) <= 1e-15 * abs(w)
