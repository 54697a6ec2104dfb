"""The Clausen kernel and the toric Gauss map against mpmath references.

mpmath is a test dependency only.  Cl2 is compared with mpmath's clsin(2, .)
at the exact double angles, on a grid over |theta| <= 50 plus angles close
to 0, pi and 2 pi, where the reduction and the logarithm are most delicate.
The Gauss map that report toric prints is compared with its simplified
closed form on both families of torus zeros, evaluated at 30 digits.
"""

import math

import mpmath
import numpy as np

from densemahler.polynomials import PdSpec
from densemahler.specfun import CL2_ERROR_BOUND, cl2_array
from densemahler.toric import toric_gamma, toric_indices


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


def test_toric_gamma_matches_closed_form():
    # -x(1-y)/(y(1-x)) on U_{d+1} and -(1-y)/(1-x) on U_{d+2}
    worst = 0.0
    with mpmath.workdps(30):
        unit = {n: [mpmath.expjpi(mpmath.mpf(2 * j) / n) for j in range(n)]
                for n in range(2, 43)}
        for d in range(1, 41):
            spec = PdSpec(d)
            n, k, kp = toric_indices(spec)
            gamma = toric_gamma(spec, n, k, kp)
            for ni, ki, kpi, g in zip(n.tolist(), k.tolist(), kp.tolist(),
                                      gamma.tolist()):
                x, y = unit[ni][ki], unit[ni][kpi]
                if ni == d + 1:
                    want = -x * (1 - y) / (y * (1 - x))
                else:
                    want = -(1 - y) / (1 - x)
                worst = max(worst, float(abs(g - want) / max(1, abs(want))))
    print(f"largest relative gamma error for d <= 40: {worst:.3e}")
    assert worst <= 1e-12
