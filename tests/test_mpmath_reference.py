"""The Clausen kernel and the toric Gauss map against mpmath references.

mpmath is a test dependency only.  Cl2 is compared with mpmath's clsin(2, .)
at the exact double angles, on a grid over |theta| <= 50 plus angles close
to 0, pi and 2 pi, where the reduction and the logarithm are most delicate;
there and on the grid angles 2 pi j/n the largest error is also pinned near
rounding, and the kernel's economized polynomial is checked against the
32-term series it economizes, at 40 digits.
The Im gamma that report toric prints is compared with the imaginary part
of the Gauss map's simplified closed form on both families of torus zeros,
evaluated at 30 digits (every zero up to d = 40, 300 zeros of the largest
d), and P_d vanishes at the torus zeros of the largest d at 40 digits.  The
three closed routes must each lie within their printed error bound of
m(P_d) summed from clsin at 30 digits, up to d = 1000 (the pointwise route
also within 1.2e-14 at those d up to 300), and bloch_wigner must match
Im Li2(z) + arg(1 - z) log|z| from mpmath's polylog.  The blue-region
integral eps(n) is compared at 40 digits with its closed form in clcos(3, .)
and clsin(4, .), from n = 1 to n = 1e12.
"""

import math

import mpmath
import numpy as np

from densemahler import specfun
from densemahler.limits import blue_integral
from densemahler.mahler_closed import (m_closed_aggregated,
                                       m_closed_pointwise, m_closed_volsum)
from densemahler.polynomials import PdSpec
from densemahler.specfun import CL2_ERROR_BOUND, bloch_wigner, cl2_array
from densemahler.toric import MAX_QUADRATIC_D, toric_im_gamma, toric_indices


def _cl2_grid() -> np.ndarray:
    offsets = 10.0 ** -np.arange(1, 17)
    centres = [c * math.pi for c in (-2, -1, 0, 1, 2)]
    near = [c + s * h for c in centres for s in (-1.0, 1.0) for h in offsets]
    return np.concatenate([np.linspace(-50.0, 50.0, 501), near,
                           centres, [-50.0, 50.0, 5e-324, -5e-324]])


def test_cl2_against_mpmath():
    theta = _cl2_grid()
    got = cl2_array(theta)
    with mpmath.workdps(30):
        want = [mpmath.clsin(2, mpmath.mpf(float(t))) for t in theta]
    err = np.array([abs(mpmath.mpf(float(g)) - w) for g, w in zip(got, want)],
                   dtype=float)
    worst = int(np.argmax(err))
    print(f"largest |cl2_array - clsin| = {err[worst]:.3e} "
          f"at theta = {theta[worst]!r}")
    assert err[worst] <= CL2_ERROR_BOUND


def test_cl2_error_is_pinned_near_rounding():
    # the loose bound above would pass a series cut too short (degree 10 in
    # z errs by 6.5e-15 on the grid angles); here the largest error is
    # pinned on the grid above, 1.09e-14 at theta = -1e-13, where reducing
    # mod 2 pi rounds t by 4e-16, and on the closed route's grid angles
    # 2 pi j/n, 1.59e-15
    grid = _cl2_grid()
    theta = np.concatenate([grid] + [2.0 * math.pi * np.arange(n) / n
                                     for n in (7, 1000, 4099)])
    got = cl2_array(theta)
    with mpmath.workdps(20):
        err = np.array([abs(mpmath.mpf(float(g))
                            - mpmath.clsin(2, mpmath.mpf(float(t))))
                        for g, t in zip(got, theta)], dtype=float)
    for lo, hi, bound in ((0, grid.size, 2e-14),
                          (grid.size, theta.size, 2e-15)):
        worst = lo + int(np.argmax(err[lo:hi]))
        print(f"largest |cl2_array - clsin| = {err[worst]:.3e} "
              f"at theta = {theta[worst]!r}")
        assert err[worst] <= bound


def test_cl2_economized_series():
    # the kernel's polynomial in z = 8x - 1 is the 32-term series
    # sum c_n x^n on x in [0, 1/4] within 1e-17 (recentred elsewhere it is
    # far off, one degree lower it errs by 1.8e-17), and the Chebyshev tail
    # it drops sums below _CL2_CHEB_TOL while the last kept term does not
    poly = [mpmath.mpf(a) for a in reversed(specfun._CL2_POLY)]
    taylor = [mpmath.mpf(c) for c in reversed(specfun._CL2_COEFFS)]
    n_nodes = 48
    with mpmath.workdps(40):
        worst = max(abs(mpmath.polyval(poly, 8 * x - 1)
                        - x * mpmath.polyval(taylor, x))
                    for x in map(mpmath.mpf, np.linspace(0.0, 0.25, 1000)))
        # Chebyshev coefficients of the series in z from its values at the
        # Chebyshev nodes, exact for its degree 32 < n_nodes (cheb[0] is
        # twice the constant term, and is not used)
        nodes = [mpmath.pi * (j + 0.5) / n_nodes for j in range(n_nodes)]
        vals = [(1 + mpmath.cos(u)) / 8 for u in nodes]
        vals = [x * mpmath.polyval(taylor, x) for x in vals]
        cheb = [2 * mpmath.fsum(v * mpmath.cos(k * u)
                                for v, u in zip(vals, nodes)) / n_nodes
                for k in range(n_nodes)]
    deg = len(poly) - 1
    tail = float(mpmath.fsum(abs(b) for b in cheb[deg + 1:]))
    print(f"degree {deg}, |poly - taylor| <= {float(worst):.3e}, "
          f"dropped tail {tail:.3e}, last kept {float(abs(cheb[deg])):.3e}")
    assert worst <= 1e-17
    assert tail < specfun._CL2_CHEB_TOL <= tail + float(abs(cheb[deg]))


def test_toric_gamma_matches_closed_form(rng):
    # Im of -x(1-y)/(y(1-x)) on U_{d+1} and -(1-y)/(1-x) on U_{d+2}, at
    # every zero up to d = 40 and at 300 zeros of the largest d, where the
    # angles come closest to 0 and 2 pi
    worst = 0.0
    with mpmath.workdps(30):
        unit = {n: [mpmath.expjpi(mpmath.mpf(2 * j) / n) for j in range(n)]
                for n in (*range(2, 43), MAX_QUADRATIC_D + 1,
                          MAX_QUADRATIC_D + 2)}
        for d in (*range(1, 41), MAX_QUADRATIC_D):
            spec = PdSpec(d)
            n, k, kp = toric_indices(spec)
            if d == MAX_QUADRATIC_D:
                i = rng.choice(n.size, size=300, replace=False)
                n, k, kp = n[i], k[i], kp[i]
            im = toric_im_gamma(spec, n, k, kp)
            for ni, ki, kpi, g in zip(n.tolist(), k.tolist(), kp.tolist(),
                                      im.tolist()):
                x, y = unit[ni][ki], unit[ni][kpi]
                if ni == d + 1:
                    want = mpmath.im(-x * (1 - y) / (y * (1 - x)))
                else:
                    want = mpmath.im(-(1 - y) / (1 - x))
                worst = max(worst, float(abs(g - want) / max(1, abs(want))))
    print(f"largest relative Im gamma error: {worst:.3e}")
    assert worst <= 1e-12


def test_zero_set_at_max_quadratic_d(rng):
    # toric_indices only checks its rows against the definition of U_n, so
    # P_d itself is evaluated here, from the rational form at 40 digits
    d = MAX_QUADRATIC_D
    n, k, kp = toric_indices(PdSpec(d))
    assert n.size == d * (d - 1) + (d + 1) * d
    # strictly increasing in (n, k, k'), so the rows are distinct
    assert np.all(np.diff((n * (d + 3) + k) * (d + 3) + kp) > 0)
    worst = mpmath.mpf(0)
    with mpmath.workdps(40):
        for i in rng.choice(n.size, size=100, replace=False).tolist():
            x = mpmath.expjpi(mpmath.mpf(2 * int(k[i])) / int(n[i]))
            y = mpmath.expjpi(mpmath.mpf(2 * int(kp[i])) / int(n[i]))
            num = (x ** (d + 2) - 1) * (y - 1) - (y ** (d + 2) - 1) * (x - 1)
            worst = max(worst, abs(num / ((x - 1) * (y - 1) * (x - y))))
    print(f"largest |P_{d}| at 100 toric points: {float(worst):.3e}")
    assert worst < 1e-25


def _weight_sum_mp(n: int):
    # W(n) = sum_{j<n} (2n - 3j - 1) Cl2(2 pi j/n); Cl2(2 pi (n-j)/n) is
    # -Cl2(2 pi j/n) and Cl2(pi) = 0, so W(n) folds to
    # sum_{j<n/2} 3(n - 2j) Cl2(2 pi j/n)
    return mpmath.fsum(3 * (n - 2 * j) * mpmath.clsin(2, 2 * mpmath.pi * j / n)
                       for j in range(1, (n + 1) // 2))


def test_closed_routes_within_their_bounds():
    # up to MAX_QUADRATIC_D, the largest d of the pointwise and vol-sum routes;
    # at these d up to 300 the pointwise route, three Clausen values per
    # torus zero, also stays within 1.2e-14; at d = 291 an error of 2.5e-14
    # rounds the 12th printed decimal the wrong way
    ds = (1, 2, 7, 30, 100, 200, 291, MAX_QUADRATIC_D)
    with mpmath.workdps(30):
        w = {n: _weight_sum_mp(n) for d in ds for n in (d + 1, d + 2)}
        for d in ds:
            exact = ((-2 * w[d + 1] / (d + 2) + 2 * w[d + 2] / (d + 1))
                     / (2 * mpmath.pi))
            for route in (m_closed_pointwise, m_closed_volsum,
                          m_closed_aggregated):
                est = route(PdSpec(d))
                err = float(abs(mpmath.mpf(est.value) - exact))
                print(f"d = {d:4d} {route.__name__:19s} error {err:.2e}, "
                      f"bound/error {est.error_bound / max(err, 1e-300):.1e}")
                assert err <= est.error_bound, (d, route.__name__)
                if route is m_closed_pointwise and d <= 300:
                    assert err <= 1.2e-14, d


def _blue_integral_mp(n: int):
    # eps(n) = I - 4 pi Sl3(pi/n) - 3 pi zeta(3)/n^3 - n Cl4(2 pi/n)
    z3 = mpmath.zeta(3)
    return (6 * mpmath.pi * z3 - 4 * mpmath.pi * mpmath.clcos(3, mpmath.pi / n)
            - 3 * mpmath.pi * z3 / mpmath.mpf(n) ** 3
            - n * mpmath.clsin(4, 2 * mpmath.pi / n))


def test_blue_integral_against_mpmath():
    # O(1) at any n: at n = 1e12 any work per square or grid angle would
    # not finish
    ns = [*range(1, 61), 100, 300, 1000, 10**4, 10**6, 10**9, 10**12]
    worst = 0.0
    with mpmath.workdps(40):
        for n in ns:
            want = _blue_integral_mp(n)
            rel = float(abs((mpmath.mpf(blue_integral(n)) - want) / want))
            worst = max(worst, rel)
            assert rel <= 1e-15, n
    print(f"largest relative |blue_integral - eps| = {worst:.2e}")


def test_bloch_wigner_against_polylog(rng):
    radius = np.exp(rng.uniform(-3.0, 3.0, 50))
    zs = radius * np.exp(1j * rng.uniform(-math.pi, math.pi, 50))
    worst = 0.0
    with mpmath.workdps(30):
        for z in zs.tolist():
            zm = mpmath.mpc(z)
            want = (mpmath.im(mpmath.polylog(2, zm))
                    + mpmath.arg(1 - zm) * mpmath.log(abs(zm)))
            worst = max(worst, float(abs(bloch_wigner(z) - want)))
    print(f"largest |bloch_wigner - D| over 50 points = {worst:.3e}")
    assert worst <= 1.5 * CL2_ERROR_BOUND
