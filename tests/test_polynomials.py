"""Family evaluation, slices, partials, Gauss map, and the root finder."""

import cmath
import math

import numpy as np
import pytest

from densemahler import polynomials
from densemahler.polynomials import (PdSpec, RootFindingError,
                                     SingularPointError,
                                     aberth_roots_batch, eval_partials,
                                     eval_pd_array, eval_pd_rational,
                                     gauss_map, roots, slice_coeff_matrix)
from densemahler.toric import toric_indices


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
    for i in range(40):
        # the defining double sum, independent of the Horner scheme
        ref = sum(complex(x[i]) ** a * complex(y[i]) ** b
                  for a in range(d + 1) for b in range(d + 1 - a))
        for got in (vals[i], eval_pd_array(PdSpec(d), x[i], y[i])):
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
