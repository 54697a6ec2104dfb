"""Property tests: scalar entry points against their array kernels, the
symmetries of Cl2, the Bloch-Wigner D and vol, the two forms of P_d, and the
residuals of roots.

Each scalar function (cl2, vol, eval_partials, gauss_map) runs the array
kernel on one point, so it must return exactly the bits of the matching
element of an array call.  The examples are derandomized, so the suite is
deterministic.
"""

import cmath

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import same_bits
from densemahler.polynomials import (RATIONAL_FORM_EXCLUSION, PdSpec,
                                     SingularPointError, eval_partials,
                                     eval_pd_array, eval_pd_rational,
                                     gauss_map, roots)
from densemahler.specfun import (CL2_ERROR_BOUND, TWO_PI, bloch_wigner, cl2,
                                 cl2_array)
from densemahler.volume import vol, vol_array

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)

angles = st.floats(-1e4, 1e4)
coords = st.floats(-2.0, 2.0)


@st.composite
def triangle_points(draw):
    theta = draw(st.floats(0.0, TWO_PI))
    return theta, draw(st.floats(0.0, TWO_PI - theta))


@PROPERTY
@given(st.lists(angles, min_size=1, max_size=40))
def test_scalar_cl2_is_array_element(thetas):
    assert same_bits([cl2(t) for t in thetas], cl2_array(thetas))


@PROPERTY
@given(st.lists(triangle_points(), min_size=1, max_size=40))
def test_scalar_vol_is_array_element(points):
    theta, alpha = np.array(points).T
    assert same_bits([vol(t, a) for t, a in points], vol_array(theta, alpha))


@PROPERTY
@given(st.integers(1, 12),
       st.lists(st.tuples(coords, coords, coords, coords), min_size=1,
                max_size=20))
def test_scalar_partials_and_gauss_map_are_array_elements(d, rows):
    spec = PdSpec(d)
    x = np.array([complex(a, b) for a, b, _, _ in rows])
    y = np.array([complex(c, e) for _, _, c, e in rows])
    px, py = eval_partials(spec, x, y)
    pairs = [eval_partials(spec, xi, yi) for xi, yi in zip(x, y)]
    assert same_bits([p[0] for p in pairs], px)
    assert same_bits([p[1] for p in pairs], py)
    try:
        gamma = gauss_map(spec, x, y)
    except SingularPointError:
        assume(False)
    assert same_bits([gauss_map(spec, xi, yi) for xi, yi in zip(x, y)], gamma)


@PROPERTY
@given(st.floats(-100.0, 100.0))
def test_cl2_odd_and_periodic(theta):
    # rounding of -theta and theta + 2 pi moves the reduced angle by a few
    # ulps of 2 pi, which moves Cl2 by far less than the slack below
    tol = 2.0 * CL2_ERROR_BOUND + 1e-12
    assert abs(cl2(-theta) + cl2(theta)) <= tol
    assert abs(cl2(theta + TWO_PI) - cl2(theta)) <= tol


@PROPERTY
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_bloch_wigner_inversion_and_reflection(re, im):
    z = complex(re, im)
    assume(abs(z) >= 1e-3 and abs(1.0 - z) >= 1e-3)
    d = bloch_wigner(z)
    assert abs(bloch_wigner(1.0 / z) + d) <= 1e-10
    assert abs(bloch_wigner(1.0 - z) + d) <= 1e-10


@PROPERTY
@given(triangle_points())
def test_vol_nonnegative_on_triangle(point):
    # vol vanishes on the boundary, so only the three Clausen errors can
    # take it below zero
    assert vol(*point) >= -3.0 * CL2_ERROR_BOUND


@PROPERTY
@given(st.integers(1, 20), coords, coords, coords, coords)
def test_horner_matches_rational_form_off_the_excluded_locus(d, a, b, c, e):
    x, y = complex(a, b), complex(c, e)
    assume(min(abs(x - 1.0), abs(y - 1.0), abs(x - y))
           >= RATIONAL_FORM_EXCLUSION)
    den = abs((x - 1.0) * (y - 1.0) * (x - y))
    r = max(1.0, abs(x), abs(y))
    # the rational form rounds terms up to 4 r^(d+3) before dividing by den;
    # Horner adds (d+1)(d+2)/2 monomials of size up to r^d
    tol = 8.0 * np.finfo(float).eps * (4.0 * r ** (d + 3) / den
                                       + (d + 1) * (d + 2) * r ** d)
    spec = PdSpec(d)
    assert abs(eval_pd_array(spec, x, y) - eval_pd_rational(spec, x, y)) <= tol


@PROPERTY
@given(st.integers(0, 3),
       st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                min_size=1, max_size=8),
       st.floats(0.5, 2.0), st.floats(0.0, TWO_PI))
def test_roots_residuals_within_documented_bound(zeros, pairs, lead, arg):
    # zeros vanishing low-order coefficients, split off exactly by roots;
    # |lead| >= 1/2 keeps every root within 1 + 2 sqrt(2) of the origin
    c = ([0j] * zeros + [complex(a, b) for a, b in pairs]
         + [cmath.rect(lead, arg)])
    found = roots(c)
    assert len(found) == len(c) - 1
    scale = 1.0 + max(abs(v) for v in c)
    for z in found:
        value = 0j
        for coeff in reversed(c):
            value = value * z + coeff
        assert abs(value) <= 1e-10 * scale
