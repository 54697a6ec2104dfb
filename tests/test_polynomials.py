"""Family evaluation, slices, partials, Gauss map, and the root finder."""

import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import same_bits
from densemahler import polynomials
from densemahler.polynomials import (PdSpec, RootFindingError,
                                     SingularPointError,
                                     aberth_roots_batch, eval_partials,
                                     eval_pd_array, eval_pd_rational,
                                     gauss_map, roots, slice_coeff_matrix)
from densemahler.toric import toric_indices
from reference_aberth import aberth_reference


def test_eval_examples():
    assert eval_pd_array(PdSpec(1), 1.0, 1.0) == 3.0
    w = cmath.exp(2j * math.pi / 3)
    assert abs(eval_pd_array(PdSpec(2), w, w ** 2)) <= 1e-12
    assert eval_pd_array(PdSpec(3), 2.0, 0.0) == 15.0


def test_monomial_count_and_validation():
    with pytest.raises(ValueError):
        PdSpec(0)
    with pytest.raises(ValueError):
        PdSpec(-3)


def test_rational_form_identity(rng):
    checked = 0
    while checked < 500:
        d = int(rng.integers(1, 21))
        x = complex(rng.normal(), rng.normal())
        y = complex(rng.normal(), rng.normal())
        if min(abs(x - 1), abs(y - 1), abs(x - y)) <= 0.1:
            continue
        direct = eval_pd_array(PdSpec(d), x, y)
        closed = eval_pd_rational(PdSpec(d), x, y)
        assert abs(direct - closed) <= 1e-10 * max(1.0, abs(closed))
        checked += 1


def test_rational_form_refuses_excluded_locus():
    with pytest.raises(ValueError):
        eval_pd_rational(PdSpec(3), 1.05, 0.5)


def test_symmetry(rng):
    for _ in range(500):
        d = int(rng.integers(1, 11))
        x = complex(rng.normal(), rng.normal())
        y = complex(rng.normal(), rng.normal())
        a = eval_pd_array(PdSpec(d), x, y)
        b = eval_pd_array(PdSpec(d), y, x)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_array_eval_matches_scalar(rng):
    d = 7
    x = rng.normal(size=40) + 1j * rng.normal(size=40)
    y = rng.normal(size=40) + 1j * rng.normal(size=40)
    vals = eval_pd_array(PdSpec(d), x, y)
    px, py = eval_partials(PdSpec(d), x, y)
    # the defining double sums, independent of the Horner scheme
    terms = [(a, b) for a in range(d + 1) for b in range(d + 1 - a)]
    for i in range(40):
        xi, yi = complex(x[i]), complex(y[i])
        ref = sum(xi ** a * yi ** b for a, b in terms)
        for got in (vals[i], eval_pd_array(PdSpec(d), x[i], y[i])):
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
        ref_x = sum(a * xi ** (a - 1) * yi ** b for a, b in terms if a)
        ref_y = sum(b * xi ** a * yi ** (b - 1) for a, b in terms if b)
        for got, ref in ((px[i], ref_x), (py[i], ref_y)):
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def test_partials_examples():
    assert eval_partials(PdSpec(1), 0.3 + 0.1j, -2.0) == (1.0, 1.0)
    assert eval_partials(PdSpec(2), 1.0, 1.0) == (4.0, 4.0)
    assert eval_partials(PdSpec(2), 0.0, 0.0) == (1.0, 1.0)


def test_partials_match_finite_differences(rng):
    h = 1e-6
    for _ in range(60):
        d = int(rng.integers(1, 11))
        x = complex(rng.normal(), rng.normal())
        y = complex(rng.normal(), rng.normal())
        px, py = eval_partials(PdSpec(d), x, y)
        p = PdSpec(d)
        fx = (eval_pd_array(p, x + h, y) - eval_pd_array(p, x - h, y)) / (2 * h)
        fy = (eval_pd_array(p, x, y + h) - eval_pd_array(p, x, y - h)) / (2 * h)
        assert abs(px - fx) <= 1e-6 * max(1.0, abs(px))
        assert abs(py - fy) <= 1e-6 * max(1.0, abs(py))


def test_gauss_map_signs_for_d2():
    spec = PdSpec(2)
    w3 = cmath.exp(2j * math.pi / 3)
    assert gauss_map(spec, w3, w3 ** 2).imag > 0
    assert gauss_map(spec, 1j, -1.0 + 0j).imag < 0
    assert gauss_map(spec, -1.0 + 0j, 1j).imag > 0


def test_gauss_map_simplifications_at_toric_points():
    # on U_{d+1} the map equals -x(1-y)/(y(1-x)); on U_{d+2} it is -(1-y)/(1-x)
    for d in range(1, 31):
        spec = PdSpec(d)
        n, k, kp = toric_indices(spec)
        x = np.exp(1j * (2 * math.pi * k / n))
        y = np.exp(1j * (2 * math.pi * kp / n))
        simple = np.where(n == d + 1, -x * (1 - y) / (y * (1 - x)),
                          -(1 - y) / (1 - x))
        assert np.max(np.abs(gauss_map(spec, x, y) - simple)) <= 1e-10


def test_gauss_map_singular():
    with pytest.raises(SingularPointError):
        gauss_map(PdSpec(1), 0.5 + 0j, 0.0 + 0j)  # y * dP/dy = y = 0


def test_slice_examples():
    assert slice_coeff_matrix(PdSpec(2), 0.0)[0].tolist() == [1, 1, 1]
    assert slice_coeff_matrix(PdSpec(1), -1.0)[0].tolist() == [0, 1]
    assert slice_coeff_matrix(PdSpec(2), 1.0)[0].tolist() == [3, 2, 1]


def test_slice_shape(rng):
    for d in (1, 5, 12):
        x0 = complex(rng.normal(), rng.normal())
        sl = slice_coeff_matrix(PdSpec(d), x0)[0]
        assert sl.shape == (d + 1,)
        assert sl[-1] == 1.0


def test_roots_cyclotomic():
    got = sorted(roots(slice_coeff_matrix(PdSpec(2), 0.0)[0]),
                 key=lambda z: z.imag)
    w = cmath.exp(2j * math.pi / 3)
    assert abs(got[0] - w ** 2) <= 1e-12
    assert abs(got[1] - w) <= 1e-12


def test_roots_zero_root():
    assert roots(slice_coeff_matrix(PdSpec(1), -1.0)[0]) == [0.0]


def test_roots_contains_toric_partner():
    # (w^2, w^4) with w = e^{2 pi i/6} is a torus zero for d = 5, so the
    # slice through x0 = w^2 must vanish at w^4
    w = cmath.exp(2j * math.pi / 6)
    rts = roots(slice_coeff_matrix(PdSpec(5), w ** 2)[0])
    assert min(abs(r - w ** 4) for r in rts) <= 1e-8


def test_root_completeness(rng):
    for d in (2, 5, 9, 15):
        coeffs = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
        coeffs[-1] = 1.0
        rts = roots(coeffs)
        assert len(rts) == d
        poly = np.array([1.0 + 0j])
        for r in rts:
            poly = np.convolve(poly, np.array([-r, 1.0]))
        scale = 1.0 + float(np.max(np.abs(coeffs)))
        assert np.max(np.abs(poly - coeffs)) <= 1e-8 * scale


def test_roots_rejects_constant():
    for coeffs in ([1.0], [], [[1.0, 1.0], [1.0, 1.0]]):
        with pytest.raises(ValueError, match="degree >= 1"):
            roots(coeffs)
    # a zero leading coefficient, the zero polynomial included, is refused
    # whether or not the zero-root split would reach the solver
    for coeffs in ([0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0], [0.0, 1.0, 0.0]):
        with pytest.raises(ValueError, match="leading coefficients"):
            roots(coeffs)


def test_root_residuals_and_determinism(rng):
    sl = slice_coeff_matrix(PdSpec(11), cmath.exp(0.83j))[0]
    first = roots(sl)
    again = roots(sl)
    assert first == again  # deterministic for identical input
    scale = 1.0 + max(abs(c) for c in sl)
    for r in first:
        val = 0j
        for c in reversed(sl.tolist()):
            val = val * r + c
        assert abs(val) <= 1e-10 * scale


def test_aberth_batch_shapes_and_warm_start(rng):
    x0 = np.exp(1j * rng.uniform(0, 2 * np.pi, 32))
    cm = slice_coeff_matrix(PdSpec(6), x0)
    cold = aberth_roots_batch(cm)
    warm = aberth_roots_batch(cm, initial=cold[0])
    assert cold.shape == (32, 6)
    for i in range(32):
        a = np.sort_complex(cold[i])
        b = np.sort_complex(warm[i])
        assert np.max(np.abs(a - b)) <= 1e-10


def test_aberth_blocks_give_the_one_pass_bits(monkeypatch, rng):
    # the pairwise sums go a block of rows at a time: blocks of 1 row and of
    # 3 rows (uneven on 11 slices, and again as rows converge) must give the
    # bits of one block over the whole batch, cold and warm
    for d in (1, 2, 7, 30):
        x0 = 0.9 * np.exp(1j * rng.uniform(0.0, 2 * np.pi, 11))
        coeffs = slice_coeff_matrix(PdSpec(d), x0)
        nearby = slice_coeff_matrix(PdSpec(d), 1.01 * x0)
        solved = []
        for rows in (11, 1, 3):
            monkeypatch.setattr(polynomials, "_BLOCK_ELEMENTS", rows * d * d)
            cold = aberth_roots_batch(coeffs)
            solved.append((cold, aberth_roots_batch(nearby, initial=cold)))
        for cold, warm in solved[1:]:
            assert same_bits(cold, solved[0][0]), d
            assert same_bits(warm, solved[0][1]), d


def test_aberth_memory_is_bounded_in_d():
    # one call on _slice_root_blocks' 96 slices at d = 120 holds its
    # (slices, d) arrays and one block of pairwise differences; the whole
    # (96, 120, 120) array and its reciprocal would take 42 MB
    coeffs = slice_coeff_matrix(PdSpec(120),
                                np.exp(1j * np.linspace(0.1, 0.15, 96)))
    warm = aberth_roots_batch(coeffs[:1])[0]
    tracemalloc.start()
    try:
        found = aberth_roots_batch(coeffs, initial=warm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert found.shape == (96, 120) and np.all(np.isfinite(found))


def test_evaluators_in_blocks_bits_and_memory(monkeypatch, rng):
    # the points go in blocks of slice rows: blocks of 1 and of 3 points
    # (uneven on 10) give the bits of one block over all points
    for d in (1, 7, 30):
        spec = PdSpec(d)
        x, y = rng.normal(size=(2, 10)) + 1j * rng.normal(size=(2, 10))
        values = []
        for points in (10, 1, 3):
            monkeypatch.setattr(polynomials, "_BLOCK_ELEMENTS",
                                points * (d + 1))
            values.append((eval_pd_array(spec, x, y),
                           *eval_partials(spec, x, y), gauss_map(spec, x, y)))
        for got in values[1:]:
            assert all(same_bits(a, b) for a, b in zip(got, values[0])), d
    monkeypatch.undo()
    # the 20 000 torus zeros of d = 100: their slice rows at once take 62 MB
    spec = PdSpec(100)
    n, k, kp = toric_indices(spec)
    x = np.exp(1j * (2 * np.pi * k / n))
    y = np.exp(1j * (2 * np.pi * kp / n))
    tracemalloc.start()
    try:
        gauss_map(spec, x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.size == 20_000 and peak <= 8 * 2**20


def _solve_both(coeffs, initial=None):
    # each solver's roots, or its RootFindingError's message and residual
    found = []
    for solve in (aberth_roots_batch, aberth_reference):
        try:
            found.append(solve(coeffs, initial=initial))
        except RootFindingError as exc:
            found.append((str(exc), exc.worst_residual))
    return found


def _same_outcome(got, want) -> bool:
    if isinstance(want, tuple):
        return (isinstance(got, tuple) and got[0] == want[0]
                and same_bits(got[1], np.float64(want[1])))
    return isinstance(got, np.ndarray) and same_bits(got, want)


def test_aberth_has_the_reference_bits(rng):
    # the in-place sweep runs the textbook sweep's operations in order:
    # cold and warm starts at degrees 1 to 31, and random polynomials
    for deg in range(1, 32):
        x0 = rng.uniform(0.5, 1.5, 40) * np.exp(1j * rng.uniform(0, 7, 40))
        coeffs = slice_coeff_matrix(PdSpec(deg), x0)
        cold, want = _solve_both(coeffs)
        assert same_bits(cold, want), deg
        for initial in (cold[0], cold[::-1]):
            got, want = _solve_both(1.01 * coeffs, initial)
            assert same_bits(got, want), deg
        noisy = rng.normal(size=(24, deg + 1)) + 1j * rng.normal(
            size=(24, deg + 1))
        assert _same_outcome(*_solve_both(noisy)), deg


def test_aberth_reference_bits_across_blocks_and_convergence(monkeypatch,
                                                              rng):
    # rows started 1e-12 to 1e-1 away from their roots converge on different
    # sweeps: after two sweeps some but not all are still running, and at
    # every sweep cap both solvers agree on the roots or on the failure,
    # with pairwise blocks of 1 and 3 rows and the default, the whole batch
    d = 12
    x0 = 0.9 * np.exp(1j * rng.uniform(0.0, 2 * np.pi, 11))
    coeffs = slice_coeff_matrix(PdSpec(d), x0)
    solved = aberth_roots_batch(coeffs)
    initial = solved + np.logspace(-12, -1, 11)[:, None] * np.exp(
        1j * rng.uniform(0.0, 2 * np.pi, (11, d)))
    monkeypatch.setattr(polynomials, "ABERTH_MAX_ITER", 2)
    message = _solve_both(coeffs, initial)[1][0]
    assert re.search(r"for ([2-9]|10) polynomial", message)
    for rows in (1, 3, 2**15 // d ** 2):
        monkeypatch.setattr(polynomials, "_BLOCK_ELEMENTS", rows * d * d)
        for cap in (1, 2, 3, 5, 200):
            monkeypatch.setattr(polynomials, "ABERTH_MAX_ITER", cap)
            assert _same_outcome(*_solve_both(coeffs, initial)), (rows, cap)


def test_aberth_stalled_denominator_has_the_reference_bits(monkeypatch, rng):
    # (y - 1)^2 (y + 1) vanishes with its derivative at y = 1 exactly, so a
    # root started there has a zero denominator and stalls on every sweep,
    # while the other rows of the batch take the update
    stalled = np.array([1.0, -1.0, -1.0, 1.0], dtype=complex)
    assert stalled.sum() == 0 and (stalled[1:] * [1, 2, 3]).sum() == 0
    coeffs = np.vstack([stalled, rng.normal(size=(4, 4))]).astype(complex)
    initial = np.array([1.0, 0.5j, -2.0]) + np.vstack(
        [np.zeros(3), rng.normal(size=(4, 3))])
    for cap in (1, 2, 3, 200):
        monkeypatch.setattr(polynomials, "ABERTH_MAX_ITER", cap)
        got, want = _solve_both(coeffs, initial)
        assert _same_outcome(got, want), cap
    assert got[0, 0] == 1.0 and abs(got[0, 1] - 1.0) < 1e-8
    # at 0 and -1, y^2 + y + 1 is 1 and its derivative p * sum 1/(z_i - z_j)
    # exactly: both denominators vanish with p != 0, so neither root moves
    # and a correction of 0 counts as converged
    got, want = _solve_both(np.array([[1.0, 1.0, 1.0]], dtype=complex),
                            np.array([0.0, -1.0]))
    assert _same_outcome(got, want) and same_bits([[0.0, -1.0]], got)


def test_aberth_warm_solve_memory():
    # a warm solve of the oracle's batch at d = 30 holds its buffers once:
    # no sweep gathers the active rows or allocates batch-sized temporaries
    coeffs = slice_coeff_matrix(PdSpec(30),
                                np.exp(1j * np.linspace(0.1, 0.5, 1536)))
    warm = aberth_roots_batch(coeffs[:1])[0]
    tracemalloc.start()
    try:
        found = aberth_roots_batch(coeffs, initial=warm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert coeffs.shape == (1536, 31) and peak <= 8 * 2**20
    assert np.all(np.isfinite(found))


def test_aberth_rejects_degenerate(monkeypatch):
    with pytest.raises(ValueError):
        aberth_roots_batch(np.array([[1.0 + 0j]]))
    with pytest.raises(ValueError):
        aberth_roots_batch(np.array([[1.0, 0.0]], dtype=complex))
    # the sweep cap is read at call time
    monkeypatch.setattr(polynomials, "ABERTH_MAX_ITER", 1)
    with pytest.raises(RootFindingError, match="within 1 sweeps"):
        aberth_roots_batch(np.array([[1.0, 1.0, 1.0]], dtype=complex))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 complex(0.0, math.nan)])
def test_root_finders_refuse_non_finite_input(bad):
    # a NaN correction compares False against the tolerance, so without the
    # check the solver would return NaN roots as converged
    for coeffs in ([bad, 1.0], [1.0, bad, 1.0], [0.0, bad], [1.0, 2.0, bad]):
        with pytest.raises(ValueError, match="must be finite"):
            roots(coeffs)
        with pytest.raises(ValueError, match="must be finite"):
            aberth_roots_batch(np.array([coeffs], dtype=complex))
    with pytest.raises(ValueError, match="must be finite"):
        aberth_roots_batch(np.array([[1.0, 1.0, 1.0]], dtype=complex),
                           initial=np.array([bad, 1.0]))
