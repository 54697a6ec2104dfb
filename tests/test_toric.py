"""Torus-zero enumeration, signs, and regularity."""

import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest

from densemahler import toric
from densemahler.cli import main
from densemahler.mahler_closed import (m_closed_pointwise, m_closed_volsum,
                                       torus_volume_v)
from densemahler.polynomials import PdSpec, eval_pd_array, gauss_map
from densemahler.toric import (MAX_QUADRATIC_D, RegularityError,
                               check_regularity, diagonal_sign,
                               enumerate_toric, toric_blocks, toric_indices)

# sign table for d = 2 (both families), keyed by (k, k_prime, modulus)
D2_EPSILON = {
    (1, 2, 3): -1, (2, 1, 3): +1,
    (1, 2, 4): +1, (2, 1, 4): -1,
    (1, 3, 4): +1, (3, 1, 4): -1,
    (2, 3, 4): +1, (3, 2, 4): -1,
}


def _checked(spec):
    """check_regularity's blocks, concatenated column by column."""
    return tuple(map(np.concatenate, zip(*check_regularity(spec))))


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


def test_index_arrays_in_sort_order_and_memory():
    # the rows are U_{d+1} then U_{d+2}, each sorted by (k, k'), and the
    # arrays are built in place: the peak stays near the 48 MB of output
    for d in (1, 2, 3, 10, 57):
        want = [(n, k, kp) for n in (d + 1, d + 2) for k in range(1, n)
                for kp in range(1, n) if kp != k]
        assert list(zip(*(a.tolist() for a in toric_indices(PdSpec(d))))) == want
    tracemalloc.start()
    try:
        toric_indices(PdSpec(toric.MAX_QUADRATIC_D))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60e6


def test_blocks_concatenate_to_the_index_arrays(monkeypatch):
    # one enumeration: toric_indices is its blocks end to end, with the
    # kernel's block size (one block up to d = 127) and with blocks of a few
    # rows (at d = 13 a block holds the last row of U_14 and the first two
    # of U_15; one row at d = 57, where a row is longer than the block)
    for block in (None, 50):
        if block is not None:
            monkeypatch.setattr(toric, "_CL2_BLOCK", block)
        for d in (1, 2, 3, 10, 13, 57):
            blocks = list(toric_blocks(PdSpec(d)))
            assert all(b[0].size <= max(toric._CL2_BLOCK, d) for b in blocks)
            for a, parts in zip(toric_indices(PdSpec(d)), zip(*blocks)):
                assert np.array_equal(a, np.concatenate(parts)), (block, d)


def test_pointwise_route_memory_at_max_quadratic_d():
    # the route sums block by block: a few MiB where the whole arrays of
    # its 2 million points took 92 MiB
    m_closed_pointwise(PdSpec(3))  # the kernel's scratch blocks, kept
    tracemalloc.start()
    try:
        m_closed_pointwise(PdSpec(MAX_QUADRATIC_D))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


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
        table = _checked(PdSpec(d))
        assert [a.size for a in table] == [count] * 5
        assert np.min(np.abs(table[4])) > 1e-8
    # the d = 2 minimum is 1/2, attained on the modulus-4 family
    im = _checked(PdSpec(2))[4]
    assert abs(np.min(np.abs(im)) - 0.5) <= 1e-12


def test_min_im_gamma_in_closed_form(monkeypatch):
    # tan(pi/(d+2))/2 is the scanned minimum of |Im gamma| over every torus
    # zero, attained at (d+2, 2, 1), and it is the bound check_regularity
    # compares: a threshold 4 ulp below the scanned minimum passes, 4 ulp
    # above fails
    for d in (*range(1, 101), MAX_QUADRATIC_D):
        spec = PdSpec(d)
        n, k, kp = toric_indices(spec)
        im = np.abs(toric.toric_im_gamma(spec, n, k, kp))
        least = np.min(im)
        low = math.tan(math.pi / (d + 2)) / 2
        assert abs(least - low) <= 2 * np.spacing(low), d
        at = np.flatnonzero((n == d + 2) & (k == 2) & (kp == 1))
        assert im[at].tolist() == [least], d
        monkeypatch.setattr(toric, "REGULARITY_MIN_IM",
                            least - 4 * np.spacing(least))
        check_regularity(spec)
        monkeypatch.setattr(toric, "REGULARITY_MIN_IM",
                            least + 4 * np.spacing(least))
        with pytest.raises(RegularityError, match=rf"= \({d + 2}, 2, 1\)"):
            check_regularity(spec)
    assert least > 1e-3


def test_sign_times_v_is_constant_on_symmetry_orbits():
    # (k, k') -> (k', k), (-k, k' - k) and (-k, -k') mod n generate the
    # order-12 group of P_d's Newton triangle with conjugation; eps V is
    # invariant under it, a check of the sign table apart from W(n)
    for d in (1, 2, 3, 7, 30, 101):
        n, k, kp = toric_indices(PdSpec(d))
        ev = torus_volume_v(d, n, k, kp) * diagonal_sign(d, n, k, kp)
        key = (n * (d + 3) + k) * (d + 3) + kp  # sorted, as toric_indices
        images = []
        for k2, kp2 in ((kp, k), (-k, kp - k), (-k, -kp)):
            k2, kp2 = k2 % n, kp2 % n
            at = np.searchsorted(key, (n * (d + 3) + k2) * (d + 3) + kp2)
            assert np.array_equal(k[at], k2) and np.array_equal(kp[at], kp2)
            images.append(at)
        # label each point with the least index of its orbit
        orbit = np.arange(n.size)
        while True:
            least = np.minimum.reduce([orbit, *(orbit[at] for at in images)])
            if np.array_equal(least, orbit):
                break
            orbit = least
        high = np.full(n.size, -np.inf)
        low = np.full(n.size, np.inf)
        np.maximum.at(high, orbit, ev)
        np.minimum.at(low, orbit, ev)
        spread = (high - low)[np.unique(orbit)]
        assert np.max(spread) <= 4e-16, d


def test_toric_gamma_is_the_gauss_map_of_pd():
    # toric_im_gamma is a closed form, so the sign table is checked against
    # P_d itself only through this link: Horner's Gauss map at every torus
    # point
    for d in (*range(1, 41), 100):
        spec = PdSpec(d)
        n, k, kp = toric_indices(spec)
        im = toric.toric_im_gamma(spec, n, k, kp)
        horner = gauss_map(spec, np.exp(1j * (2 * np.pi * k / n)),
                           np.exp(1j * (2 * np.pi * kp / n)))
        err = np.abs(im - horner.imag) / np.maximum(1.0, np.abs(horner))
        assert np.max(err) <= 1e-12, d


def test_im_gamma_takes_its_sign_from_the_table(monkeypatch):
    # diagonal_sign is the one copy of the sign rule: a table flipped at one
    # point flips Im gamma there, and only there, against Horner's Gauss map
    d, at = 3, 5
    table = toric.diagonal_sign

    def one_flipped(d, n, k, kp):
        eps = table(d, n, k, kp)
        eps[at] = -eps[at]
        return eps

    monkeypatch.setattr(toric, "diagonal_sign", one_flipped)
    spec = PdSpec(d)
    n, k, kp = toric_indices(spec)
    im = toric.toric_im_gamma(spec, n, k, kp)
    horner = gauss_map(spec, np.exp(1j * (2 * np.pi * k / n)),
                       np.exp(1j * (2 * np.pi * kp / n))).imag
    off = np.abs(im - horner) > 1e-12 * np.maximum(1.0, np.abs(horner))
    assert np.flatnonzero(off).tolist() == [at]
    assert im[at] == pytest.approx(-horner[at], rel=1e-12)


def test_mirror_points_print_the_same_im_gamma(capsys):
    # sin(pi - t) = sin(t): the points (n, k, k') and (n, k, (k - k') mod n)
    # have the sines of k' and k' - k in swapped order, so Im gamma has the
    # same bits at both, and report toric prints the same value
    for d in (*range(1, 41), 200):
        spec = PdSpec(d)
        n, k, kp = toric_indices(spec)
        im = toric.toric_im_gamma(spec, n, k, kp)
        row = (n * (d + 3) + k) * (d + 3)  # toric_indices is sorted by key
        mirror = row + (k - kp) % n
        at = np.searchsorted(row + kp, mirror)
        assert np.array_equal(row[at] + kp[at], mirror)
        assert np.array_equal(im[at].view(np.uint64), im.view(np.uint64)), d
    assert main(["report", "toric", "--d", "30"]) == 0
    printed = {tuple(line.split(",")[:3]): line.split(",")[4]
               for line in capsys.readouterr().out.splitlines()[1:]}
    assert printed["31", "1", "13"] == printed["31", "1", "19"]


def test_regularity_threshold_violation(monkeypatch):
    # with a threshold above every |Im gamma| the check fails at the call,
    # naming the point of the smallest one
    monkeypatch.setattr(toric, "REGULARITY_MIN_IM", 10.0)
    with pytest.raises(RegularityError, match=r"at \(n, k, k'\) = \(4, 2, 1\)"):
        check_regularity(PdSpec(2))


def test_check_regularity_returns_the_checked_table():
    # report toric prints this table, so it must be the one built from the
    # index arrays, the sign table and gamma, bit for bit (d = 128 spans two
    # blocks)
    for d in (1, 2, 10, 57, 128):
        spec = PdSpec(d)
        n, k, kp = toric_indices(spec)
        want = (n, k, kp, diagonal_sign(d, n, k, kp),
                toric.toric_im_gamma(spec, n, k, kp))
        got = _checked(spec)
        assert len(got) == 5
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
