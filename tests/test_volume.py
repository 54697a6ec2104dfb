"""The two-angle function on the triangle and the curve volume function."""

import cmath
import math

import numpy as np
import pytest

from conftest import interior_triangle_points
from densemahler.mahler_closed import torus_volume_v
from densemahler.polynomials import PdSpec
from densemahler.specfun import bloch_wigner, cl2
from densemahler.toric import toric_indices
from densemahler.volume import (Hessian2, in_triangle, vol, vol_array,
                                vol_gradient, vol_hessian, volume_v)

TWO_PI = 2.0 * math.pi


def test_vol_examples():
    assert vol(0.0, 1.234) == 0.0
    peak = vol(TWO_PI / 3, TWO_PI / 3)
    assert abs(peak - 3.0 * cl2(TWO_PI / 3)) <= 1e-12
    assert abs(peak - 2.03) < 5e-3
    for t in (0.3, 1.7, 5.2):
        assert abs(vol(t, TWO_PI - t)) <= 1e-12


def test_vol_domain():
    assert in_triangle(1.0, 2.0)
    assert not in_triangle(-0.5, 1.0)
    with pytest.raises(ValueError):
        vol(-0.5, 1.0)
    with pytest.raises(ValueError):
        vol(4.0, 4.0)
    with pytest.raises(ValueError):
        vol_array(np.array([1.0, 4.0]), np.array([1.0, 4.0]))


def test_boundary_vanishing(rng):
    # 1000 samples spread over the three edges
    s = rng.uniform(0.0, TWO_PI, 334)
    worst = max(
        np.max(np.abs(vol_array(np.zeros_like(s), s))),
        np.max(np.abs(vol_array(s, np.zeros_like(s)))),
        np.max(np.abs(vol_array(s, TWO_PI - s))),
    )
    assert worst <= 1e-11


def test_interior_positivity():
    grid = np.linspace(0.0, TWO_PI, 302)[1:-1]
    th, al = np.meshgrid(grid, grid, indexing="ij")
    keep = th + al < TWO_PI
    assert float(np.min(vol_array(th[keep], al[keep]))) >= -1e-12


def test_gradient_examples():
    g = vol_gradient(TWO_PI / 3, TWO_PI / 3)
    assert abs(g[0]) <= 1e-12 and abs(g[1]) <= 1e-12  # the critical point
    g = vol_gradient(math.pi, math.pi / 2)
    assert abs(g[0] - (math.log(math.sqrt(2.0)) - math.log(2.0))) <= 1e-12
    a, b = vol_gradient(1.1, 2.3)
    b2, a2 = vol_gradient(2.3, 1.1)
    assert a == a2 and b == b2  # symmetry under swapping the angles


def test_gradient_rejects_boundary():
    with pytest.raises(ValueError):
        vol_gradient(0.0, 1.0)
    with pytest.raises(ValueError):
        vol_gradient(1.0, TWO_PI - 1.0)
    with pytest.raises(ValueError):
        vol_hessian(1.0, 0.0)


def test_gradient_matches_finite_differences(rng):
    h = 1e-6
    for t, a in interior_triangle_points(rng, 200, 0.1):
        gt, ga = vol_gradient(t, a)
        ft = (vol(t + h, a) - vol(t - h, a)) / (2 * h)
        fa = (vol(t, a + h) - vol(t, a - h)) / (2 * h)
        assert abs(gt - ft) <= 1e-5
        assert abs(ga - fa) <= 1e-5


def test_hessian_closed_form(rng):
    H = vol_hessian(TWO_PI / 3, TWO_PI / 3)
    assert abs(H.h12 - (-1.0 / (2.0 * math.sqrt(3.0)))) <= 1e-12
    for t, a in interior_triangle_points(rng, 100, 0.1):
        H = vol_hessian(t, a)
        assert H.h11 < 0.0
        # the cotangent addition law makes the determinant exactly 1/4,
        # cross-checked by finite differences below
        assert abs(H.determinant() - 0.25) <= 1e-12


def test_hessian_matches_finite_differences(rng):
    h = 1e-4
    for t, a in interior_triangle_points(rng, 60, 0.15):
        H = vol_hessian(t, a)
        f11 = (vol(t + h, a) - 2 * vol(t, a) + vol(t - h, a)) / h ** 2
        f22 = (vol(t, a + h) - 2 * vol(t, a) + vol(t, a - h)) / h ** 2
        f12 = (vol(t + h, a + h) - vol(t + h, a - h)
               - vol(t - h, a + h) + vol(t - h, a - h)) / (4 * h ** 2)
        assert abs(H.h11 - f11) <= 1e-4
        assert abs(H.h22 - f22) <= 1e-4
        assert abs(H.h12 - f12) <= 1e-4
        # finite differences confirm the determinant value 1/4
        assert abs(f11 * f22 - f12 ** 2 - 0.25) <= 2e-3


def test_concavity_midpoints(rng):
    pts = interior_triangle_points(rng, 400, 0.05)
    for (t1, a1), (t2, a2) in zip(pts[:200], pts[200:]):
        mid = vol(0.5 * (t1 + t2), 0.5 * (a1 + a2))
        assert mid >= 0.5 * (vol(t1, a1) + vol(t2, a2)) - 1e-10


def test_volume_v_simplifies_at_toric_points():
    # on U_{d+1} the first bracket dies; on U_{d+2} it folds into the second
    spec = PdSpec(2)
    for n, k, kp in zip(*(a.tolist() for a in toric_indices(spec))):
        tx, ty = TWO_PI * k / n, TWO_PI * kp / n
        simple = cl2(tx) - cl2(ty) - cl2(tx - ty)
        factor = 4.0 if n == 3 else 3.0
        v = volume_v(spec, cmath.exp(1j * tx), cmath.exp(1j * ty))
        assert abs(v - simple / factor) <= 1e-12


def test_volume_v_diagonal_vanishes(rng):
    for t in rng.uniform(0.0, TWO_PI, 20):
        z = cmath.exp(1j * t)
        assert abs(volume_v(PdSpec(4), z, z)) <= 1e-12


def test_volume_bridge_to_vol(rng):
    # V = vol(2k pi/n, 2(k'-k) pi/n) / factor for k < k', negated under swap,
    # at 20 torus zeros per d
    for d in range(2, 21):
        spec = PdSpec(d)
        n, k, kp = toric_indices(spec)
        below = k < kp
        n, k, kp = n[below], k[below], kp[below]
        factor = np.where(n == d + 1, d + 2, d + 1)
        bridged = vol_array(TWO_PI * k / n, TWO_PI * (kp - k) / n) / factor
        tx, ty = TWO_PI * k / n, TWO_PI * kp / n
        for i in rng.choice(n.size, min(20, n.size), replace=False):
            x, y = cmath.exp(1j * tx[i]), cmath.exp(1j * ty[i])
            scalar = volume_v(spec, x, y)
            assert abs(scalar - bridged[i]) <= 1e-10
            assert abs(volume_v(spec, y, x) + scalar) <= 1e-10


def test_volume_v_domain():
    # defined off the torus, not at x = 0 or y = 0
    assert math.isfinite(volume_v(PdSpec(2), 1.5, 1.0 + 0.5j))
    for x, y in ((0.0, 1.0), (1.0j, 0.0)):
        with pytest.raises(ValueError):
            volume_v(PdSpec(2), x, y)


def test_volume_v_matches_torus_kernel(rng):
    # two independent evaluators of V: three Clausen values per D against
    # the pointwise route's torus form; every torus zero for d <= 12,
    # 200 of them at d = 40, 100, 300
    for d in list(range(1, 13)) + [40, 100, 300]:
        spec = PdSpec(d)
        n, k, kp = toric_indices(spec)
        if n.size > 200:
            keep = rng.choice(n.size, 200, replace=False)
            n, k, kp = n[keep], k[keep], kp[keep]
        kernel = torus_volume_v(d, n, k, kp)
        tx, ty = TWO_PI * k / n, TWO_PI * kp / n
        for a, b, v in zip(tx, ty, kernel):
            scalar = volume_v(spec, cmath.exp(1j * a), cmath.exp(1j * b))
            assert abs(scalar - v) <= 1e-14, (d, a, b)


def test_volume_v_d1_is_classical_primitive(rng):
    # on the d = 1 curve 1 + x + y = 0 the general V is -D(-x)
    log_r = rng.uniform(0.1, 1.0, 40) * rng.choice([-1.0, 1.0], 40)
    for x in np.exp(log_r + 1j * rng.uniform(0.0, TWO_PI, 40)):
        x = complex(x)
        assert abs(volume_v(PdSpec(1), x, -1.0 - x) + bloch_wigner(-x)) <= 1e-12
    w = cmath.exp(2j * math.pi / 3)
    assert abs(volume_v(PdSpec(1), w, w * w) - cl2(math.pi / 3)) <= 1e-12


def test_hessian_dataclass():
    H = Hessian2(-1.0, 0.5, -1.0)
    assert H.determinant() == 0.75
