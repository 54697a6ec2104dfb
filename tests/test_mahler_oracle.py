"""Jensen quadrature oracle, exactness along arcs, and the 2-D vol integral."""

import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import same_bits
from densemahler import mahler_oracle, polynomials
from densemahler.limits import INTEGRAL
from densemahler.mahler_closed import m_closed_aggregated, m_closed_volsum
from densemahler.mahler_oracle import (ContinuationError, CurveArc,
                                       OracleError, QuadratureConfig,
                                       default_config,
                                       eta_path_integral, m_oracle,
                                       primitive_check,
                                       vol_integral_quadrature)
from densemahler.polynomials import (PdSpec, aberth_roots_batch, roots,
                                     slice_coeff_matrix)
from densemahler.toric import toric_indices
from densemahler.volume import vol, vol_array
from reference_aberth import aberth_reference

TWO_PI = 2.0 * math.pi


def _jensen(d, *thetas):
    return mahler_oracle._jensen_values(PdSpec(d), np.array(thetas))


def test_jensen_examples():
    at_0, at_pi = _jensen(1, 0.0, math.pi)
    assert abs(at_0 - math.log(2.0)) <= 1e-12
    assert at_pi == 0.0
    # x = -1 gives the slice y^2 + 1 with both roots on the circle
    assert abs(_jensen(2, math.pi)[0]) <= 1e-12


def test_jensen_nonnegative(rng):
    for d in (1, 3, 6):
        assert np.all(_jensen(d, *rng.uniform(0.0, TWO_PI, 25)) >= 0.0)


def test_oracle_values():
    r1 = m_oracle(PdSpec(1))
    assert abs(r1.value - 0.3230659472194505) <= 1e-9
    r2 = m_oracle(PdSpec(2))
    assert abs(r2.value - 0.4215888344519122) <= 1e-9
    r5 = m_oracle(PdSpec(5))
    assert abs(r5.value - m_closed_volsum(PdSpec(5)).value) <= 1e-6


def test_oracle_agreement_sample():
    for d in (3, 7, 10):
        diff = abs(m_oracle(PdSpec(d)).value - m_closed_volsum(PdSpec(d)).value)
        assert diff <= 1e-6


def test_oracle_error_estimate_behaviour():
    # with few nodes the Legendre tail of each panel shows real truncation,
    # which must shrink as nodes double, and must dominate the actual change
    for d in (2, 5):
        spec = PdSpec(d)
        r8 = m_oracle(spec, default_config(spec, 8))
        r16 = m_oracle(spec, default_config(spec, 16))
        assert r16.error_estimate < r8.error_estimate
        assert abs(r16.value - r8.value) <= r8.error_estimate
        assert r8.error_estimate >= 0.0


def test_jensen_integrand_mirror_symmetry(rng):
    # real coefficients: the slice at e^{-it} is the conjugate of the one at
    # e^{it}, so the integrand is even about pi and [0, pi] suffices.  The
    # angles -t give exact conjugates; 2 pi - t would be rounded, and the
    # integrand's slope near its kinks turns that into gaps of 1e-13 at d = 30.
    for d in (1, 2, 9, 30):
        t = np.sort(rng.uniform(0.0, math.pi, 200))
        t = t[t > 0.0]
        spec = PdSpec(d)
        lower = mahler_oracle._jensen_values(spec, t)
        upper = mahler_oracle._jensen_values(spec, -t)
        assert np.max(np.abs(lower - upper)) <= d * 1e-14


def test_panel_layout():
    # one panel between consecutive kinks below pi, the torus-zero angles
    # 2 pi k/n with 2k < n, and a last one ending at pi: d + 1 panels.  At
    # d = 20, 21, 28, 29 the kink 2 pi (n/2)/n rounds one ulp below pi and
    # must not leave a 1-ulp panel.
    for d in (1, 3, 5, 20, 21, 28, 29):
        spec = PdSpec(d)
        breaks = mahler_oracle._panel_breaks(d)
        n, k, _ = toric_indices(spec)
        kinks = set((TWO_PI * k / n)[2 * k < n].tolist())
        assert breaks == [0.0, *sorted(kinks), math.pi]
        assert all(b1 < b2 for b1, b2 in zip(breaks, breaks[1:]))
        assert m_oracle(spec).panels == d + 1


def _mpmath_m(mpmath, d):
    # 2 pi m(P_d) = -2/(d+2) W(d+1) + 2/(d+1) W(d+2) with
    # W(n) = sum_{j=1}^{n-1} (2n - 3j - 1) Cl2(2 pi j/n), all at 30 digits
    def w(n):
        return mpmath.fsum((2 * n - 3 * j - 1)
                           * mpmath.clsin(2, 2 * mpmath.pi * j / n)
                           for j in range(1, n))

    total = (-mpmath.mpf(2) / (d + 2) * w(d + 1)
             + mpmath.mpf(2) / (d + 1) * w(d + 2))
    return total / (2 * mpmath.pi)


def test_oracle_within_estimate_of_mpmath():
    # the estimate is at least the real error at every node count, and at
    # 64 nodes, where the rule is resolved, within 100x of it
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for d in list(range(1, 13)) + [20, 30]:
            ref = float(_mpmath_m(mpmath, d))
            for nodes in (8, 16, 32, 64):
                res = m_oracle(PdSpec(d), QuadratureConfig(nodes))
                err = abs(res.value - ref)
                assert err <= res.error_estimate, (d, nodes)
                if nodes == 64:
                    assert res.error_estimate <= 100 * max(err, 1e-16), d


def test_oracle_within_estimate_of_closed_route():
    # beyond the mpmath range: d = 60 against the aggregated closed sum
    spec = PdSpec(60)
    res = m_oracle(spec)
    assert abs(res.value - m_closed_aggregated(spec).value) <= res.error_estimate


@pytest.mark.parametrize("nodes", [8, 64])
def test_oracle_evaluates_one_rule(monkeypatch, nodes):
    # the error estimate reuses the rule's own values: one integrand call,
    # on exactly panels x nodes angles
    real = mahler_oracle._jensen_values
    sizes = []

    def counted(spec, thetas):
        sizes.append(thetas.size)
        return real(spec, thetas)

    monkeypatch.setattr(mahler_oracle, "_jensen_values", counted)
    res = m_oracle(PdSpec(7), QuadratureConfig(nodes))
    assert sizes == [res.panels * nodes]


@pytest.mark.parametrize("good_calls", [0, 1, 2])
def test_oracle_error_names_angle_range(monkeypatch, good_calls):
    # after good_calls solves (cold seed, seed block, slice block) every
    # Aberth call gets one sweep and fails; the error names angles in [0, pi]
    calls = {"n": 0}

    def one_sweep(coeffs, **kwargs):
        calls["n"] += 1
        if calls["n"] > good_calls:
            monkeypatch.setattr(polynomials, "ABERTH_MAX_ITER", 1)
        return aberth_roots_batch(coeffs, **kwargs)

    monkeypatch.setattr(mahler_oracle, "aberth_roots_batch", one_sweep)
    with pytest.raises(OracleError) as info:
        m_oracle(PdSpec(6))
    lo, hi = map(float, re.search(r"\[([\d.]+), ([\d.]+)\]",
                                  str(info.value)).groups())
    assert 0.0 <= lo <= hi <= round(math.pi, 6)


def test_seeded_blocks_match_cold_solves():
    # more angles than one block of seeds, so both the seed pass and the
    # slice pass cross block boundaries; radius 0.9 keeps roots apart
    n = mahler_oracle._SEED_STRIDE * mahler_oracle._BATCH_LIMIT + 7
    spec = PdSpec(4)
    t = np.linspace(0.0, TWO_PI, n)
    x0 = 0.9 * np.exp(1j * t)
    seeded = np.full((n, spec.d), np.nan, dtype=complex)
    for lo, hi, rts in mahler_oracle._slice_root_blocks(spec, x0, t):
        seeded[lo:hi] = rts
    cold = aberth_roots_batch(slice_coeff_matrix(spec, x0))
    # the roots are at least 0.3 apart, so a root of each solve within
    # 1e-10 of one of the other, both ways, is the same set of roots
    dist = np.abs(seeded[:, :, None] - cold[:, None, :])
    assert np.max(np.min(dist, axis=2)) <= 1e-10
    assert np.max(np.min(dist, axis=1)) <= 1e-10


def test_oracle_has_the_reference_solver_bits(monkeypatch):
    # the in-place Aberth sweep gives m_oracle the bits it has on the
    # textbook sweep: value, panels and error estimate, d = 1 to 30
    fast = [m_oracle(PdSpec(d)) for d in range(1, 31)]
    monkeypatch.setattr(mahler_oracle, "aberth_roots_batch", aberth_reference)
    for d, got in enumerate(fast, start=1):
        want = m_oracle(PdSpec(d))
        assert got.panels == want.panels, d
        assert same_bits([got.value, got.error_estimate],
                         np.array([want.value, want.error_estimate])), d


def test_oracle_memory_stays_bounded_in_d():
    # Aberth sums its pairwise differences in blocks of _BLOCK_ELEMENTS
    # values, so the peak is a block of slices' rows and roots, about 7 MB
    # at d = 60; one (rows, d, d) array and its reciprocal would take 46 MB
    tracemalloc.start()
    try:
        res = m_oracle(PdSpec(60))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
    assert abs(res.value - m_closed_aggregated(PdSpec(60)).value) <= 1e-9


def test_slice_coefficients_built_block_by_block(monkeypatch):
    # each Aberth block builds only its own rows of slice coefficients, so
    # no call holds every angle's d + 1 coefficients at once: one cold row,
    # then the seeds and the angles, at most one block per call
    spec = PdSpec(40)
    block = mahler_oracle._BATCH_LIMIT * 900 // spec.d ** 2  # 864 rows
    original = mahler_oracle.slice_coeff_matrix
    rows = []

    def counting(spec, x0):
        rows.append(np.size(x0))
        return original(spec, x0)

    monkeypatch.setattr(mahler_oracle, "slice_coeff_matrix", counting)
    res = m_oracle(spec)
    angles = res.panels * default_config(spec).nodes_per_panel
    seeds = -(-angles // mahler_oracle._SEED_STRIDE)
    assert angles > block > seeds
    assert rows[0] == 1
    assert max(rows) <= block
    assert sum(rows) == 1 + seeds + angles
    assert abs(res.value - m_closed_aggregated(spec).value) <= 1e-9


def test_oracle_refuses_d_above_its_limit(monkeypatch):
    # the oracle's time grows like d^3; above MAX_ORACLE_D both entry points
    # raise before they solve or allocate anything
    def never(*args, **kwargs):
        raise AssertionError("solved a slice")

    monkeypatch.setattr(mahler_oracle, "aberth_roots_batch", never)
    limit = mahler_oracle.MAX_ORACLE_D
    spec = PdSpec(limit + 1)
    message = f"oracle d = {limit + 1} exceeds MAX_ORACLE_D = {limit}"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            m_oracle(spec)
        with pytest.raises(ValueError, match=message):
            primitive_check(spec, CurveArc(0.9, 0.2, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(1)
    with pytest.raises(ValueError):
        QuadratureConfig(2)  # the decay rate would be fitted from a_0 on


def test_singularity_placement_small_d():
    # slice roots touch the unit circle exactly at the toric x-angles
    for d in (2, 4, 6):
        spec = PdSpec(d)
        n, k, _ = toric_indices(spec)
        toric_angles = sorted(set((TWO_PI * k / n).tolist()))
        for a in toric_angles:
            rts = roots(slice_coeff_matrix(spec, cmath.exp(1j * a))[0])
            assert min(abs(abs(r) - 1.0) for r in rts) <= 1e-8
        for t in np.linspace(0.0, TWO_PI, 401):
            if min(abs(t - a) for a in toric_angles) > 0.05:
                rts = roots(slice_coeff_matrix(spec, cmath.exp(1j * t))[0])
                assert min(abs(abs(r) - 1.0) for r in rts) > 1e-3


def test_primitive_check_arcs():
    for d in (1, 2, 3, 5):
        arc = CurveArc(radius=0.9, t_start=0.2, t_end=1.0)
        data = eta_path_integral(PdSpec(d), arc)
        dv = data["v_end"] - data["v_start"]
        assert primitive_check(PdSpec(d), arc) <= 1e-6 * (1.0 + abs(dv))


def test_primitive_check_closed_loop():
    loop = CurveArc(radius=0.9, t_start=0.0, t_end=TWO_PI)
    data = eta_path_integral(PdSpec(2), loop)
    # no discriminant point lies inside |x| < 0.9, so the branch closes
    assert abs(data["y_end"] - data["y_start"]) <= 1e-9
    assert abs(data["eta"]) <= 2e-6


def test_reversed_arc_negates_integral():
    fwd = eta_path_integral(PdSpec(3), CurveArc(0.9, 0.2, 1.0))
    rev = eta_path_integral(PdSpec(3), CurveArc(0.9, 1.0, 0.2))
    assert abs(fwd["eta"] + rev["eta"]) <= 2e-12


def test_branch_collision_detected():
    # radius 1 + 1e-7 passes within ~1e-4 of a branch point of the d = 2
    # curve (the discriminant roots sit on |x| = 1), so tracking must refuse
    ang = math.atan2(math.sqrt(8.0), -1.0)  # angle of the branch point
    arc = CurveArc(radius=1.0 + 1e-7, t_start=ang - 0.05, t_end=ang + 0.05,
                   steps=2000)
    with pytest.raises(ContinuationError):
        primitive_check(PdSpec(2), arc)


def _step_loop(fibres):
    # the branch tracker as one nearest-root match per row, kept as the
    # reference the array version must reproduce bit for bit, errors included
    def match(prev, fibre):
        dist = np.abs(fibre - prev)
        order = np.argsort(dist)
        best = fibre[order[0]]
        if order.size > 1:
            margin = dist[order[1]] - dist[order[0]]
            if margin < 1e-12:
                raise ContinuationError(
                    f"ambiguous branch match (margin {margin:.3e})")
            others = np.abs(fibre[order[1:]] - best)
            if np.min(others) < mahler_oracle.BRANCH_COLLISION_TOL:
                raise ContinuationError(
                    f"branch collision: nearest other root at distance "
                    f"{np.min(others):.3e} < "
                    f"{mahler_oracle.BRANCH_COLLISION_TOL}")
        return complex(best)

    y = np.empty(fibres.shape[0], dtype=complex)
    y[0] = min(fibres[0], key=lambda r: (r.real, r.imag))
    for i in range(1, y.size):
        y[i] = match(y[i - 1], fibres[i])
    return y


def _same_bits(a, b):
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("d, arc", [
    *((d, CurveArc(0.9, 0.2, 1.0)) for d in (1, 2, 3, 5)),
    (30, CurveArc(1.1, 0.3, 1.3, steps=2000)),  # 12 root-index switches
], ids=["d1", "d2", "d3", "d5", "d30"])
def test_branch_tracking_matches_the_step_loop(monkeypatch, d, arc):
    # the arcs of test_primitive_check_arcs and one with many index switches
    seen = []
    follow = mahler_oracle._follow_branch

    def spy(fibres):
        y = follow(fibres)
        seen.append((fibres, y))
        return y

    monkeypatch.setattr(mahler_oracle, "_follow_branch", spy)
    y = mahler_oracle._track_branch(PdSpec(d), arc)
    (fibres, tracked), = seen
    assert tracked is y and fibres.shape == (2 * arc.steps + 1, d)
    assert _same_bits(y, _step_loop(fibres))
    if d == 30:
        assert np.count_nonzero(np.diff(mahler_oracle._branch_columns(fibres)))


def test_branch_index_switching_on_every_row():
    # row i is row 0 rolled by i: the branch keeps its value while its root
    # index moves on every row, so every window ends after one row
    row = np.array([0.5 + 0.2j, 1.0, -1.0 + 0.5j, 0.3 - 1.0j, -0.2 - 0.7j])
    fibres = np.array([np.roll(row, i) for i in range(4001)])
    tracemalloc.start()
    try:
        y = mahler_oracle._follow_branch(fibres)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cols = mahler_oracle._branch_columns(fibres)
    assert np.all(y == -1.0 + 0.5j)
    assert np.array_equal(cols, (2 + np.arange(fibres.shape[0])) % row.size)
    assert _same_bits(y, _step_loop(fibres))
    assert peak <= 3 * fibres.nbytes


def _forced_rows(monkeypatch, rows):
    # overwrite fibres of the arc by rows {index: roots} as they leave the
    # solver, and count the Aberth solves
    solve = mahler_oracle.aberth_roots_batch
    blocks = mahler_oracle._slice_root_blocks
    calls = {"solve": 0}

    def counted(*args, **kwargs):
        calls["solve"] += 1
        return solve(*args, **kwargs)

    def forced(spec, x0, thetas):
        for lo, hi, rts in blocks(spec, x0, thetas):
            for i, roots_i in rows.items():
                if lo <= i < hi:
                    rts[i - lo] = roots_i
            yield lo, hi, rts

    monkeypatch.setattr(mahler_oracle, "aberth_roots_batch", counted)
    monkeypatch.setattr(mahler_oracle, "_slice_root_blocks", forced)
    return calls


_SHORT_ARC = CurveArc(0.9, 0.2, 1.0, steps=8)


def test_ambiguous_match_stops_tracking(monkeypatch):
    # an equidistant fibre cannot pick a branch: a plain error
    fibres = np.array([[0.0, 5.0], [1.0, -1.0]], dtype=complex)
    with pytest.raises(ContinuationError, match="ambiguous branch match"):
        mahler_oracle._follow_branch(fibres)
    # an ambiguous fibre mid-arc ends the tracking, ahead of a colliding
    # fibre after it; nothing re-solves the step
    rows = {}
    calls = _forced_rows(monkeypatch, rows)
    y4 = mahler_oracle._track_branch(PdSpec(3), _SHORT_ARC)[4]
    unforced = calls["solve"]
    rows[5] = [y4 + 1.0, y4 - 1.0, y4 + 5.0]
    rows[7] = [y4 + 10.0, y4 + 10.0002, y4 + 10.0004]
    with pytest.raises(ContinuationError, match="ambiguous branch match"):
        mahler_oracle._track_branch(PdSpec(3), _SHORT_ARC)
    assert calls["solve"] == 2 * unforced


def test_collision_is_not_refined(monkeypatch):
    # two roots closer than the collision tolerance: a plain error
    fibres = np.array([[0.0, 5.0, 6.0], [1.0, 1.0005, 5.0]], dtype=complex)
    with pytest.raises(ContinuationError) as info:
        mahler_oracle._follow_branch(fibres)
    assert type(info.value) is ContinuationError
    assert "collision" in str(info.value)
    # a colliding fibre mid-arc ends the tracking at its own distance, not
    # at a later one; nothing re-solves the step
    rows = {}
    calls = _forced_rows(monkeypatch, rows)
    y4 = mahler_oracle._track_branch(PdSpec(3), _SHORT_ARC)[4]
    unforced = calls["solve"]
    rows[5] = [y4, y4 + 5e-4, y4 + 5.0]
    rows[7] = [y4, y4 + 2e-4, y4 + 5.0]
    with pytest.raises(ContinuationError, match="collision.* 5.000e-04 <"):
        mahler_oracle._track_branch(PdSpec(3), _SHORT_ARC)
    assert calls["solve"] == 2 * unforced


def test_arc_validation():
    with pytest.raises(ValueError):
        CurveArc(radius=1.0, t_start=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        CurveArc(radius=0.5, t_start=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        CurveArc(radius=0.9, t_start=1.0, t_end=1.0)
    # non-finite ends would track a branch of NaNs
    for ends in ((0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0),
                 (0.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            CurveArc(0.9, *ends)
    # steps follows the integer rule of PdSpec
    for steps in (8.5, 8.0, True, 7, "10"):
        with pytest.raises(ValueError, match="steps"):
            CurveArc(0.9, 0.0, 1.0, steps)
    assert CurveArc(0.9, 0.0, 1.0, 8).steps == 8


def _vol_integral_whole_grid():
    # the quadrature on the whole tensor grid at once, with one
    # matrix-vector product: the value the row blocks must keep
    u, wu = mahler_oracle._graded_unit_rule(mahler_oracle._VOL_NODES,
                                            mahler_oracle._GRADING_DEPTH)
    alpha = TWO_PI * u
    w_alpha = TWO_PI * wu
    length = TWO_PI - alpha
    theta = length[:, None] * u[None, :]
    vals = vol_array(theta, alpha[:, None])
    inner = length * (vals @ wu)
    return float(w_alpha @ inner)


def test_vol_integral_quadrature_in_row_blocks(monkeypatch):
    # 32 blocks of 32 rows at 64 nodes, 2 of 128 at 16: the whole grid's
    # bits, without its 33 MiB of temporaries
    for nodes in (64, 16):
        monkeypatch.setattr(mahler_oracle, "_VOL_NODES", nodes)
        want = _vol_integral_whole_grid()
        tracemalloc.start()
        try:
            got = vol_integral_quadrature()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.hex() == want.hex(), nodes
        assert peak <= 4 * 2**20, nodes


def test_vol_integral_quadrature(monkeypatch):
    target = INTEGRAL
    q64 = vol_integral_quadrature()
    monkeypatch.setattr(mahler_oracle, "_VOL_NODES", 16)
    q16 = vol_integral_quadrature()
    assert abs(q64 - target) <= 1e-6
    assert abs(q16 - target) <= 1e-4
    assert abs(q64 - q16) > 1e-9  # the coarse rule is genuinely coarser
    # the integrand vanishes at the three triangle vertices
    for t, a in ((0.0, 0.0), (0.0, TWO_PI), (TWO_PI, 0.0)):
        assert abs(vol(t, a)) <= 1e-12
