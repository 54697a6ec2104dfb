"""Torus-zero enumeration, signs, and regularity."""

import cmath
import math
import re

import numpy as np
import pytest

from densemahler import toric
from densemahler.mahler_closed import m_closed_pointwise, m_closed_volsum
from densemahler.polynomials import PdSpec, eval_pd_array
from densemahler.toric import (RegularityError, check_regularity,
                               diagonal_sign, enumerate_toric, toric_indices)

# sign table for d = 2 (both families), keyed by (k, k_prime, modulus)
D2_EPSILON = {
    (1, 2, 3): -1, (2, 1, 3): +1,
    (1, 2, 4): +1, (2, 1, 4): -1,
    (1, 3, 4): +1, (3, 1, 4): -1,
    (2, 3, 4): +1, (3, 2, 4): -1,
}


def _points(d):
    """The toric points of P_d as (k, k', n) int tuples."""
    n, k, kp = toric_indices(PdSpec(d))
    return list(zip(k.tolist(), kp.tolist(), n.tolist()))


def test_counts_small():
    assert _points(1) == [(1, 2, 3), (2, 1, 3)]
    assert len(_points(2)) == 8
    assert sum(n == 3 for _, _, n in _points(2)) == 2
    assert len(_points(3)) == 18


def test_count_formula_up_to_50():
    for d in range(1, 51):
        assert toric_indices(PdSpec(d))[0].size == d * (d - 1) + (d + 1) * d


def test_enumerate_toric_lists_the_index_arrays():
    for d in (1, 2, 7):
        spec = PdSpec(d)
        assert enumerate_toric(spec) == list(
            zip(*(a.tolist() for a in toric_indices(spec))))


def test_residual_invariant(rng):
    # plain evaluation vanishes at every enumerated point (moderate d)
    for d in (1, 2, 5, 13, 30, 50):
        spec = PdSpec(d)
        n, k, kp = toric_indices(spec)
        take = rng.choice(n.size, size=min(n.size, 120), replace=False)
        for i in take:
            x = cmath.exp(2j * math.pi * k[i] / n[i])
            y = cmath.exp(2j * math.pi * kp[i] / n[i])
            assert abs(eval_pd_array(spec, x, y)) <= 1e-10


def test_brute_force_equivalence_small_d():
    for d in range(1, 7):
        spec = PdSpec(d)
        expected = set(_points(d))
        found = set()
        for n in (d + 1, d + 2):
            for k in range(n):
                for kp in range(n):
                    x = cmath.exp(2j * math.pi * k / n)
                    y = cmath.exp(2j * math.pi * kp / n)
                    if abs(eval_pd_array(spec, x, y)) <= 1e-10:
                        found.add((k, kp, n))
        assert found == expected


def test_no_symmetric_point():
    for d in (1, 2, 3, 10, 25):
        n, k, kp = toric_indices(PdSpec(d))
        assert np.all(k != kp)


def test_epsilon_d2_table():
    for (k, kp, n), want in D2_EPSILON.items():
        assert diagonal_sign(2, n, k, kp) == want


def test_epsilon_d1():
    # for d = 1 the modulus-3 family is the d+2 one, so k < k' gives +1
    assert diagonal_sign(1, 3, 1, 2) == +1
    assert diagonal_sign(1, 3, 2, 1) == -1


def test_epsilon_antisymmetry():
    for d in (1, 2, 3, 7, 12):
        n, k, kp = toric_indices(PdSpec(d))
        eps = diagonal_sign(d, n, k, kp)
        assert np.array_equal(diagonal_sign(d, n, kp, k), -eps)
        # on the index arrays as on Python ints, point by point
        assert eps.tolist() == [diagonal_sign(d, *p)
                                for p in zip(n.tolist(), k.tolist(),
                                             kp.tolist())]


def test_zero_set_check_names_point(monkeypatch):
    # each slip the integer check exists for, planted mid-array at d = 5:
    # k = 0, k = k', k = n and a modulus other than d+1 and d+2
    d = 5
    named = r"\(n, k, k'\) = \((\d+), (\d+), (\d+)\)"
    for slip in ((d + 1, 0, 2), (d + 2, 3, 3), (d + 1, d + 1, 1),
                 (d + 3, 1, 2)):
        rows = [a.copy() for a in toric_indices(PdSpec(d))]
        for a, v in zip(rows, slip):
            a[17] = v
        with pytest.raises(AssertionError, match=named) as info:
            toric._check_zero_set(d, *rows)
        got = tuple(map(int, re.search(named, str(info.value)).groups()))
        assert got == slip
    # an off-by-one in k: the enumeration and the pointwise route both raise
    check = toric._check_zero_set
    monkeypatch.setattr(toric, "_check_zero_set",
                        lambda d, n, k, kp: check(d, n, k - 1, kp))
    for route in (toric_indices, m_closed_pointwise):
        with pytest.raises(AssertionError, match=r"= \(3, 0, 2\)"):
            route(PdSpec(2))


def test_quadratic_routes_refuse_large_d():
    spec = PdSpec(toric.MAX_QUADRATIC_D + 1)
    for route in (toric_indices, check_regularity, m_closed_pointwise,
                  m_closed_volsum):
        with pytest.raises(ValueError, match="exceeds"):
            route(spec)


def test_check_regularity():
    for d, count in ((1, 2), (2, 8), (10, 200)):
        report = check_regularity(PdSpec(d))
        assert report.point_count == count
        assert report.min_abs_im_gamma > 1e-8
    # the d = 2 minimum is 1/2, attained on the modulus-4 family
    assert abs(check_regularity(PdSpec(2)).min_abs_im_gamma - 0.5) <= 1e-12


def test_regularity_threshold_violation(monkeypatch):
    # with a threshold above every |Im gamma| the first point fails
    monkeypatch.setattr(toric, "REGULARITY_MIN_IM", 10.0)
    with pytest.raises(RegularityError, match=r"at \(n, k, k'\) = \(3, 1, 2\)"):
        check_regularity(PdSpec(2))
