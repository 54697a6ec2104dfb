"""Checks every output of a run against the references, after the timed region.

A value the package prints with an error bound (error_bound, error_estimate)
violates it when it is farther from the reference than that bound plus the
reference's own bound plus half a unit of the last printed digit.  Values
printed without a bound are held to the package's own documented per-call
Clausen bound where one applies, and otherwise to the tolerance the test
suite uses for them (named below).  A request fails when it raises, exits
with a nonzero code, or prints a malformed CSV or a wrong row count.
"""

from __future__ import annotations

import math
import re

import numpy as np

import densemahler as dm
import reference as ref

# tolerances from the test suite for values printed without a bound
ARC_TOL = 1e-6      # primitive_check (tests/test_mahler_oracle.py)
QUAD_TOL = 1e-6     # vol_integral_quadrature (acceptance criterion 5)
GAMMA_TOL = 1e-9    # Im gamma at toric points, relative to max(1, |gamma|)
ZETA3_TOL = 1e-14   # documented accuracy of specfun.zeta3

METHOD_TAGS = {"pointwise": "closed_pointwise", "volsum": "closed_volsum",
               "aggregated": "closed_aggregated", "oracle": "oracle"}
MEASURE_LINE = re.compile(
    r"m\(P_(\d+)\) = (-?\d+\.\d{12}) \[method=(\w+), error_bound=(\S+)\]\n")


class Malformed(ValueError):
    """Output that cannot be read as what the request asked for."""


def half_ulp15(x: float) -> float:
    """Half a unit in the last digit of x printed with 15 significant digits."""
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 14) if x else 1e-300


class Verdict:
    """Outcome of checking one output."""

    def __init__(self):
        self.failed = None      # reason, when the request failed
        self.checked = 0        # values compared with a reference
        self.violations = 0     # values outside their allowed deviation
        self.max_abs_err = 0.0  # over values of m(P_d)
        self.oracle_minus_closed = None
        self.notes = []

    def value(self, what: str, got: float, want: float, allowed: float,
              measure: bool = False) -> None:
        err = abs(got - want)
        self.checked += 1
        if measure:
            self.max_abs_err = max(self.max_abs_err, err)
        if not err <= allowed:
            self.violations += 1
            if len(self.notes) < 5:
                self.notes.append(f"{what}: |{got!r} - {want!r}| = {err:.3e} > {allowed:.3e}")


class References:
    """References and package-reported bounds, each computed once per key."""

    def __init__(self):
        self._cache = {}

    def _get(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def m(self, d):
        return self._get(("m", d), lambda: ref.m_ref(d))

    def riemann(self, n):
        return self._get(("S", n), lambda: ref.riemann_ref(n))

    def closed(self, d):
        return self._get(("c", d), lambda: dm.m_closed_aggregated(dm.PdSpec(d)))

    def oracle(self, d):
        return self._get(("o", d), lambda: dm.m_oracle(dm.PdSpec(d)))


def riemann_bound(n: int) -> float:
    """The package's own bound on S_n: its per-call Clausen bound times the weights."""
    j = np.arange(1, n, dtype=float)
    mass = float(np.sum(np.abs(2.0 * n - 3.0 * j - 1.0)))
    return 4.0 * math.pi ** 2 / n ** 2 * dm.CL2_ERROR_BOUND * mass


def check_measure_value(v: Verdict, refs: References, d: int, got: float,
                        bound: float, printed: float = 0.0) -> None:
    want, rb = refs.m(d)
    v.value(f"m(P_{d})", got, want, bound + rb + printed, measure=True)


def check(workload: str, req, output, refs: References) -> Verdict:
    v = Verdict()
    if output and output[0] == "error":
        v.failed = output[1]
        return v
    try:
        if workload == "closed-large-d":
            check_measure_value(v, refs, req[1], output[0], output[1])
        elif workload == "oracle-check":
            _check_oracle(v, req, output, refs)
        else:
            _check_cli(v, req, output, refs)
    except (ValueError, IndexError, TypeError) as exc:  # Malformed is a ValueError
        v.failed = f"{type(exc).__name__}: {exc}"
    return v


def _check_oracle(v, req, output, refs):
    if req[0] == "oracle":
        d = req[1]
        check_measure_value(v, refs, d, output[0], output[1])
        v.oracle_minus_closed = abs(output[0] - refs.closed(d).value)
    else:
        v.value(f"primitive_check{tuple(req[1:])}", output[0], 0.0, ARC_TOL)


def _csv(text, header: str, ncols: int) -> list:
    if text is None:
        raise Malformed("no output file")
    if not text.endswith("\n") or "\r" in text:
        raise Malformed("lines must end in \\n")
    lines = text[:-1].split("\n")
    if lines[0] != header:
        raise Malformed(f"header {lines[0]!r} != {header!r}")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != ncols for r in rows):
        raise Malformed("wrong column count")
    return rows


def _rows(rows, count):
    if len(rows) != count:
        raise Malformed(f"{len(rows)} rows, expected {count}")


def _check_cli(v, argv, output, refs):
    code, text, err = output
    if code != 0:
        raise Malformed(f"exit code {code}: {err.strip()[:200]}")
    opt = {argv[i]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}
    if argv[0] == "measure":
        m = MEASURE_LINE.fullmatch(text)
        if not m or int(m[1]) != int(opt["--d"]) or m[3] != METHOD_TAGS[opt["--method"]]:
            raise Malformed(f"measure line {text!r}")
        bound = float(m[4]) * (1 + 5e-4)  # printed with 4 significant digits
        check_measure_value(v, refs, int(m[1]), float(m[2]), bound, 5e-13)
    elif argv[0] == "sweep":
        _check_sweep(v, opt, text, refs)
    else:
        REPORTS[argv[1]](v, opt, text, refs)


def _check_sweep(v, opt, text, refs):
    lo, hi, k = int(opt["--from"]), int(opt["--to"]), int(opt["--oracle-up-to"])
    rows = _csv(text, "d,m_closed,m_oracle,abs_diff", 4)
    _rows(rows, hi - lo + 1)
    for d, row in zip(range(lo, hi + 1), rows):
        if int(row[0]) != d:
            raise Malformed(f"row for d={row[0]}, expected {d}")
        m_c = float(row[1])
        check_measure_value(v, refs, d, m_c, refs.closed(d).error_bound, half_ulp15(m_c))
        if d > k:
            if row[2] or row[3]:
                raise Malformed(f"oracle cells at d={d} > {k}")
            continue
        m_o = float(row[2])
        check_measure_value(v, refs, d, m_o, refs.oracle(d).error_estimate, half_ulp15(m_o))
        diff = float(row[3])
        v.value(f"abs_diff d={d}", diff, abs(m_c - m_o),
                half_ulp15(m_c) + half_ulp15(m_o) + half_ulp15(diff))


def _report_toric(v, opt, text, refs):
    d = int(opt["--d"])
    rows = _csv(text, "n,k,k_prime,eps,im_gamma", 5)
    want = [(n, k, kp) for n in (d + 1, d + 2)
            for k in range(1, n) for kp in range(1, n) if k != kp]
    _rows(rows, len(want))
    if [tuple(int(c) for c in r[:3]) for r in rows] != want:
        raise Malformed("toric points differ from the enumeration")
    n, k, kp = (np.array(c, dtype=float) for c in zip(*want))
    x, y = np.exp(2j * np.pi * k / n), np.exp(2j * np.pi * kp / n)
    # the Gauss map simplified on each family of torus zeros
    gamma = np.where(n == d + 1, -x * (1 - y) / (y * (1 - x)), -(1 - y) / (1 - x))
    for row, g in zip(rows, gamma):
        if row[3] not in ("+1", "-1") or int(row[3]) != -int(np.sign(g.imag)):
            raise Malformed(f"sign {row[3]} at {row[:3]}, Im gamma {g.imag:.3e}")
        got = float(row[4])
        v.value(f"im_gamma {row[:3]}", got, g.imag,
                GAMMA_TOL * max(1.0, abs(g)) + half_ulp15(got))


def _report_vol_grid(v, opt, text, refs):
    m = int(opt["--grid-n"])
    rows = _csv(text, "theta,alpha,vol", 3)
    i, j = (np.array(c) for c in zip(*[(a, b) for a in range(m + 1)
                                       for b in range(m + 1 - a)]))
    _rows(rows, i.size)
    vals = np.array(rows, dtype=float)
    step = 2.0 * math.pi / m
    want = ref.cl2_grid(i, m) + ref.cl2_grid(j, m) - ref.cl2_grid(i + j, m)
    allowed = 3 * dm.CL2_ERROR_BOUND + 3 * ref.EPS * ref.TERM_ULPS
    for col, grid in ((0, i), (1, j)):
        for got, g in zip(vals[:, col], grid):
            v.value("grid angle", got, g * step, half_ulp15(got) + 1e-15)
    for got, w in zip(vals[:, 2], want):
        v.value("vol", got, float(w), allowed + half_ulp15(got))


def _report_limit(v, opt, text, refs):
    ds = [int(s) for s in opt["--d"].split(",")]
    rows = _csv(text, "d,m_closed,limit,gap,reconstruction_residual", 5)
    _rows(rows, len(ds))
    lim_allowed = 9.0 / (2.0 * math.pi ** 2) * ZETA3_TOL
    for d, row in zip(ds, rows):
        if int(row[0]) != d:
            raise Malformed(f"row for d={row[0]}, expected {d}")
        m, lim, gap, resid = (float(c) for c in row[1:])
        want, rb = refs.m(d)
        m_allowed = refs.closed(d).error_bound + rb + half_ulp15(m)
        v.value(f"m(P_{d})", m, want, m_allowed, measure=True)
        v.value("limit", lim, ref.LIMIT, lim_allowed + half_ulp15(lim))
        v.value(f"gap d={d}", gap, abs(want - ref.LIMIT),
                m_allowed + lim_allowed + half_ulp15(gap))
        # the decomposition is exact, so the residual is pure rounding of
        # terms that carry the package's bounds on m and on S(d+1), S(d+2)
        a = (d + 2) ** 2 / (2.0 * math.pi ** 2 * (d + 1))
        b = (d + 1) ** 2 / (2.0 * math.pi ** 2 * (d + 2))
        resid_allowed = (2 * math.pi * refs.closed(d).error_bound
                         + (a + b) * (riemann_bound(d + 1) + riemann_bound(d + 2)
                                      + 16 * 2.2e-16 * ref.INTEGRAL))
        v.value(f"reconstruction_residual d={d}", resid, 0.0, resid_allowed)


def _report_riemann(v, opt, text, refs):
    ns = [int(s) for s in opt["--n"].split(",")]
    rows = _csv(text, "n,riemann_sum,E,nE", 4)
    _rows(rows, len(ns))
    int_allowed = 6.0 * math.pi * ZETA3_TOL
    for n, row in zip(ns, rows):
        if int(row[0]) != n:
            raise Malformed(f"row for n={row[0]}, expected {n}")
        s, e, ne = (float(c) for c in row[1:])
        want, rb = refs.riemann(n)
        s_allowed = riemann_bound(n) + rb
        v.value(f"S_{n}", s, want, s_allowed + half_ulp15(s))
        e_allowed = s_allowed + int_allowed
        v.value(f"E({n})", e, ref.INTEGRAL - want, e_allowed + half_ulp15(e))
        v.value(f"nE({n})", ne, n * (ref.INTEGRAL - want), n * e_allowed + half_ulp15(ne))


def _report_vol_integral(v, opt, text, refs):
    rows = _csv(text, "series,quadrature,abs_diff", 3)
    _rows(rows, 1)
    series, quad, diff = (float(c) for c in rows[0])
    v.value("series", series, ref.INTEGRAL, 6.0 * math.pi * ZETA3_TOL + half_ulp15(series))
    v.value("quadrature", quad, ref.INTEGRAL, QUAD_TOL + half_ulp15(quad))
    v.value("abs_diff", diff, abs(series - quad),
            half_ulp15(series) + half_ulp15(quad) + half_ulp15(diff))


REPORTS = {"toric": _report_toric, "vol-grid": _report_vol_grid,
           "limit": _report_limit, "riemann": _report_riemann,
           "vol-integral": _report_vol_integral}
