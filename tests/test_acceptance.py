"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with `pytest -v -s tests/test_acceptance.py` to see one PASS/FAIL line
per criterion.  Criterion 6 asserts the Hessian determinant value 1/4: with
A = cot(theta/2), B = cot(alpha/2), C = cot((theta+alpha)/2) the Hessian of
vol is [[C-A, C]; [C, C-B]]/2, so 4 det = AB - C(A+B), and the cotangent
addition law C(A+B) = AB - 1 makes the determinant exactly 1/4 at every
interior point (the finite differences of criterion 6 confirm the entries).
"""

import math
import time

import numpy as np

from conftest import interior_triangle_points
from densemahler.limits import INTEGRAL, LIMIT, error_E
from densemahler.mahler_closed import (m_closed_aggregated,
                                       m_closed_pointwise, m_closed_volsum)
from densemahler.mahler_oracle import (CurveArc, eta_path_integral, m_oracle,
                                       primitive_check,
                                       vol_integral_quadrature)
from densemahler.polynomials import PdSpec, eval_pd_array, gauss_map
from densemahler.specfun import cl2
from densemahler.toric import check_regularity, diagonal_sign, toric_indices
from densemahler.volume import vol, vol_array, vol_hessian

TWO_PI = 2.0 * math.pi


def _verdict(number, label, ok):
    print(f"ACCEPTANCE {number} [{label}]: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_m_p1():
    start = time.perf_counter()
    value = m_closed_pointwise(PdSpec(1)).value
    elapsed = time.perf_counter() - start
    ok = (abs(value - cl2(math.pi / 3) / math.pi) <= 1e-10
          and abs(value - 0.3230659) <= 1e-6
          and elapsed < 1.0)
    assert _verdict(1, "m(P_1) = Cl2(pi/3)/pi within 1e-10, <1s", ok)


def test_criterion_2_m_p2():
    start = time.perf_counter()
    value = m_closed_pointwise(PdSpec(2)).value
    elapsed = time.perf_counter() - start
    target = (4.0 * cl2(math.pi / 2) - 1.5 * cl2(2 * math.pi / 3)) / TWO_PI
    ok = (abs(value - target) <= 1e-10
          and abs(value - 0.421) <= 1e-3
          and elapsed < 1.0)
    assert _verdict(2, "m(P_2) closed combination within 1e-10, <1s", ok)


def test_criterion_3_oracle_agreement():
    start = time.perf_counter()
    ok = True
    for d in range(1, 31):
        spec = PdSpec(d)
        diff = abs(m_oracle(spec).value - m_closed_volsum(spec).value)
        tol = 1e-6 if d <= 10 else 1e-4
        if diff > tol:
            ok = False
            print(f"  d={d}: |oracle - closed| = {diff:.3e} > {tol}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    assert _verdict(3, "oracle agreement d=1..10 @1e-6, 11..30 @1e-4, <2min",
                    ok), f"elapsed {elapsed:.1f}s"


def test_criterion_4_limit():
    start = time.perf_counter()
    lim = LIMIT
    gaps = {d: abs(m_closed_aggregated(PdSpec(d)).value - lim)
            for d in (10, 100, 1000)}
    elapsed = time.perf_counter() - start
    ok = (gaps[1000] < 0.01
          and gaps[10] > gaps[100] > gaps[1000]
          and elapsed < 30.0)
    assert _verdict(4, "m(P_1000) within 0.01 of 9 zeta(3)/(2 pi^2), "
                       "gaps decrease, <30s", ok)


def test_criterion_5_integral_identity():
    start = time.perf_counter()
    quad = vol_integral_quadrature()
    elapsed = time.perf_counter() - start
    diff = abs(quad - INTEGRAL)
    ok = diff <= 1e-6 and elapsed < 10.0
    assert _verdict(5, "2-D quadrature of vol = 6 pi zeta(3) within 1e-6, "
                       "<10s", ok), f"diff {diff:.3e}"


def test_criterion_6_concavity_hessian():
    rng = np.random.default_rng(61)
    pts = interior_triangle_points(rng, 100, 0.1)
    h = 1e-4
    h11_ok = True
    fd_ok = True
    worst_det = 0.0
    for t, a in pts:
        hess = vol_hessian(t, a)
        h11_ok &= hess.h11 < 0.0
        worst_det = max(worst_det, abs(hess.determinant() - 0.25))
        f11 = (vol(t + h, a) - 2 * vol(t, a) + vol(t - h, a)) / h ** 2
        f22 = (vol(t, a + h) - 2 * vol(t, a) + vol(t, a - h)) / h ** 2
        f12 = (vol(t + h, a + h) - vol(t + h, a - h)
               - vol(t - h, a + h) + vol(t - h, a - h)) / (4 * h ** 2)
        fd_ok &= (abs(hess.h11 - f11) <= 1e-4 and abs(hess.h22 - f22) <= 1e-4
                  and abs(hess.h12 - f12) <= 1e-4)
    det_ok = worst_det <= 1e-12
    _verdict(6, "Hessian: h11 < 0", h11_ok)
    _verdict(6, "Hessian: finite differences match within 1e-4", fd_ok)
    _verdict(6, "Hessian: determinant = 1/4 within 1e-12", det_ok)
    assert h11_ok and fd_ok
    assert det_ok, (
        "closed-form determinant should be exactly 1/4 (4 det = AB - C(A+B) "
        "with A, B, C the half-angle cotangents, and the cotangent addition "
        "law C(A+B) = AB - 1); "
        f"observed max |det - 1/4| = {worst_det:.3e} over 100 points")


def test_criterion_7_vol_boundary_positivity():
    rng = np.random.default_rng(71)
    s = rng.uniform(0.0, TWO_PI, 334)
    boundary_max = max(
        float(np.max(np.abs(vol_array(np.zeros_like(s), s)))),
        float(np.max(np.abs(vol_array(s, np.zeros_like(s))))),
        float(np.max(np.abs(vol_array(s, TWO_PI - s)))),
    )
    grid = np.linspace(0.0, TWO_PI, 302)[1:-1]
    th, al = np.meshgrid(grid, grid, indexing="ij")
    keep = th + al < TWO_PI
    interior_min = float(np.min(vol_array(th[keep], al[keep])))
    ok = boundary_max <= 1e-11 and interior_min >= -1e-12
    assert _verdict(7, "vol boundary max <= 1e-11, 300x300 interior min >= "
                       "-1e-12", ok)


def test_criterion_8_toric_structure():
    import cmath
    brute_ok = True
    for d in range(1, 7):
        spec = PdSpec(d)
        n, k, kp = toric_indices(spec)
        expected = set(zip(k.tolist(), kp.tolist(), n.tolist()))
        found = set()
        for n in (d + 1, d + 2):
            for k in range(n):
                for kp in range(n):
                    x = cmath.exp(2j * math.pi * k / n)
                    y = cmath.exp(2j * math.pi * kp / n)
                    if abs(eval_pd_array(spec, x, y)) <= 1e-10:
                        found.add((k, kp, n))
        brute_ok &= found == expected
    count_ok = all(
        toric_indices(PdSpec(d))[0].size
        == d * (d - 1) + (d + 1) * d
        for d in range(1, 51))
    min_im = math.inf
    sign_ok = True
    for d in range(1, 31):
        for block in check_regularity(PdSpec(d)):
            min_im = min(min_im, float(np.min(np.abs(block[4]))))
    table = {(1, 2, 3): -1, (2, 1, 3): +1, (1, 2, 4): +1, (2, 1, 4): -1,
             (1, 3, 4): +1, (3, 1, 4): -1, (2, 3, 4): +1, (3, 2, 4): -1}
    spec2 = PdSpec(2)
    for n, k, kp in zip(*(a.tolist() for a in toric_indices(spec2))):
        want = table[(k, kp, n)]
        got = diagonal_sign(2, n, k, kp)
        x = cmath.exp(2j * math.pi * k / n)
        y = cmath.exp(2j * math.pi * kp / n)
        sign_ok &= got == want
        sign_ok &= got == (-1 if gauss_map(spec2, x, y).imag > 0 else 1)
    ok = brute_ok and count_ok and sign_ok and min_im > 1e-8
    assert _verdict(8, "toric: brute-force d<=6, counts d<=50, signs d<=30, "
                       "|Im gamma| > 1e-8", ok)


def test_criterion_9_exactness():
    ok = True
    for d in (2, 3, 5):
        residual = primitive_check(PdSpec(d), CurveArc(0.9, 0.2, 1.0))
        if residual > 1e-6:
            ok = False
            print(f"  d={d}: arc residual {residual:.3e}")
    loop = eta_path_integral(PdSpec(2), CurveArc(0.9, 0.0, TWO_PI))
    ok = ok and abs(loop["eta"]) <= 2e-6
    assert _verdict(9, "exactness: arc residuals <= 1e-6 (d=2,3,5), closed "
                       "loop <= 2e-6", ok)


def test_criterion_10_error_decay():
    start = time.perf_counter()
    seq = [n * error_E(n) for n in (50, 100, 200, 400, 800, 1600)]
    elapsed = time.perf_counter() - start
    ok = all(a > b for a, b in zip(seq, seq[1:])) and elapsed < 20.0
    assert _verdict(10, "n*E(n) strictly decreasing over 50..1600, <20s", ok)
