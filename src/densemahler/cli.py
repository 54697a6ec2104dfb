"""Command-line front end: single measures, sweeps, and report emission.

Subcommands
-----------
measure       one m(P_d) by a chosen route, printed with 12 decimals
sweep         CSV d,m_closed,m_oracle,abs_diff over a range of d
report        CSV/report emitters: toric points, vol grid, limit table,
              vol-integral cross-check, Riemann-sum error table

All numeric output is locale-independent with 15 significant digits and
"\n" line endings, so identical invocations produce byte-identical files.
Sweeps parallelize across d (MAHLER_THREADS sets the worker count, at most
32); rows are buffered and written in ascending d regardless of completion
order.

Exit codes: 0 success, 2 usage error (also a d or --grid-n beyond the limit
of a route whose memory grows like its square), 3 I/O error, 4 numeric
failure (any ArithmeticError, the base of the package's numeric errors).
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .limits import _error_E, integral_reference, limit_report, riemann_sum
from .mahler_closed import (METHOD_AGGREGATED, METHOD_FLAGS, METHOD_ORACLE,
                            m_closed)
from .mahler_oracle import m_oracle, vol_integral_quadrature
from .polynomials import PdSpec
from .specfun import TWO_PI
from .toric import (_require_quadratic_d, diagonal_sign, toric_gamma,
                    toric_indices)
from .volume import vol_array


def _fmt(x: float) -> str:
    return format(float(x), ".15g")


def _emit(path: str | None, header: str, rows) -> None:
    text = header + "\n" + "".join(",".join(row) + "\n" for row in rows)
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)


def _worker_count() -> int:
    env = os.environ.get("MAHLER_THREADS")
    if env is None:
        return min(32, os.cpu_count() or 1)
    n = int(env)
    if n < 1:
        raise ValueError("MAHLER_THREADS must be a positive integer")
    return min(32, n)


def _parse_int_list(parser, text: str, flag: str) -> list:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        parser.error(f"{flag} must be a comma-separated list of integers")
    if not values:
        parser.error(f"{flag} lists no value")
    return values


def cmd_measure(args, parser) -> int:
    if args.d < 1:
        parser.error("--d must be >= 1")
    spec = PdSpec(args.d)
    method = METHOD_FLAGS[args.method]
    if method == METHOD_ORACLE:
        res = m_oracle(spec)
        value, bound = res.value, res.error_estimate
    else:
        est = m_closed(spec, method)
        value, bound = est.value, est.error_bound
    print(f"m(P_{args.d}) = {value:.12f} [method={method}, "
          f"error_bound={bound:.3e}]")
    return 0


def cmd_sweep(args, parser) -> int:
    if args.d_from < 1 or args.d_from > args.d_to:
        parser.error("need 1 <= --from <= --to")
    ds = list(range(args.d_from, args.d_to + 1))

    def one(d: int):
        spec = PdSpec(d)
        m_c = m_closed(spec, METHOD_AGGREGATED).value
        if d <= args.oracle_up_to:
            m_o = m_oracle(spec).value
            return d, m_c, m_o
        return d, m_c, None

    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        results = list(pool.map(one, ds))
    rows = []
    for d, m_c, m_o in sorted(results):
        if m_o is None:
            rows.append([str(d), _fmt(m_c), "", ""])
        else:
            rows.append([str(d), _fmt(m_c), _fmt(m_o), _fmt(abs(m_c - m_o))])
    _emit(args.out, "d,m_closed,m_oracle,abs_diff", rows)
    return 0


def cmd_report(args, parser) -> int:
    kind = args.kind
    if kind == "toric":
        try:
            d = int(args.d) if args.d is not None else 0
        except ValueError:
            parser.error("report toric requires an integer --d")
        if d < 1:
            parser.error("report toric requires --d >= 1")
        spec = PdSpec(d)
        n, k, kp = toric_indices(spec)
        # a generator: as a list, the 2 million rows at d = 1000 add 0.8 GB
        rows = ([str(a), str(b), str(c), f"{e:+d}", _fmt(g)]
                for a, b, c, e, g in zip(n, k, kp, diagonal_sign(d, n, k, kp),
                                         toric_gamma(spec, n, k, kp).imag))
        _emit(args.out, "n,k,k_prime,eps,im_gamma", rows)
    elif kind == "vol-grid":
        m = args.grid_n
        if m < 2:
            parser.error("--grid-n must be >= 2")
        _require_quadratic_d(m, "--grid-n")
        step = TWO_PI / m
        # grid points i + j <= m, ordered by i then j
        i, j = np.nonzero(np.tri(m + 1, dtype=bool)[::-1])
        theta, alpha = i * step, j * step
        rows = ([_fmt(t), _fmt(a), _fmt(v)] for t, a, v in
                zip(theta.tolist(), alpha.tolist(),
                    vol_array(theta, alpha).tolist()))
        _emit(args.out, "theta,alpha,vol", rows)
    elif kind == "limit":
        if not args.d:
            parser.error("report limit requires --d d1,d2,...")
        ds = _parse_int_list(parser, args.d, "--d")
        if any(d < 1 for d in ds):
            parser.error("all d must be >= 1")
        rows = [[str(r.d), _fmt(r.m_value), _fmt(r.limit), _fmt(r.gap),
                 _fmt(r.reconstruction_residual)] for r in limit_report(ds)]
        _emit(args.out, "d,m_closed,limit,gap,reconstruction_residual", rows)
    elif kind == "vol-integral":
        series = integral_reference()
        quad = vol_integral_quadrature()
        _emit(args.out, "series,quadrature,abs_diff",
              [[_fmt(series), _fmt(quad), _fmt(abs(series - quad))]])
    elif kind == "riemann":
        if not args.n_list:
            parser.error("report riemann requires --n n1,n2,...")
        ns = _parse_int_list(parser, args.n_list, "--n")
        if any(n < 2 for n in ns):
            parser.error("all n must be >= 2")
        rows = []
        for n in ns:
            s = riemann_sum(n)
            e = _error_E(n, s)
            rows.append([str(n), _fmt(s), _fmt(e), _fmt(n * e)])
        _emit(args.out, "n,riemann_sum,E,nE", rows)
    else:  # pragma: no cover - argparse restricts choices
        parser.error(f"unknown report kind {kind!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densemahler",
        description="Mahler measure of the dense bivariate polynomial family "
                    "by closed dilogarithm formula and numerical oracle.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_measure = sub.add_parser("measure", help="compute one m(P_d)")
    p_measure.add_argument("--d", type=int, required=True)
    p_measure.add_argument("--method", default="aggregated",
                           choices=sorted(METHOD_FLAGS))

    p_sweep = sub.add_parser("sweep", help="CSV of m(P_d) over a range")
    p_sweep.add_argument("--from", dest="d_from", type=int, required=True)
    p_sweep.add_argument("--to", dest="d_to", type=int, required=True)
    p_sweep.add_argument("--oracle-up-to", type=int, default=0,
                         dest="oracle_up_to",
                         help="also run the quadrature oracle for d up to this")
    p_sweep.add_argument("--out", default=None)

    p_report = sub.add_parser("report", help="emit one of the standard reports")
    p_report.add_argument("kind", choices=["toric", "vol-grid", "limit",
                                           "vol-integral", "riemann"])
    p_report.add_argument("--d", default=None,
                          help="d for toric, or comma list for the limit report")
    p_report.add_argument("--grid-n", dest="grid_n", type=int, default=120)
    p_report.add_argument("--n", dest="n_list", default="",
                          help="comma-separated n values for the riemann report")
    p_report.add_argument("--out", default=None)
    return parser


def main(argv: list | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "measure":
            return cmd_measure(args, parser)
        if args.command == "sweep":
            return cmd_sweep(args, parser)
        return cmd_report(args, parser)
    except ArithmeticError as exc:  # every numeric error of the package
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
