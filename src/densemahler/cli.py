"""Command-line front end: single measures, sweeps, and report emission.

Subcommands
-----------
measure       one m(P_d) by a chosen route, printed with 12 decimals
sweep         CSV d,m_closed,m_oracle,abs_diff over a range of d
report        one subcommand per report, each with only its own flags:
              toric --d, vol-grid --grid-n, limit --d d1,d2,...,
              vol-integral, riemann --n n1,n2,...; all take --out

All numeric output is locale-independent with 15 significant digits and
"\n" line endings, so identical invocations produce byte-identical files.
A sweep computes its closed column as one task of a thread pool and each
oracle row as another; rows are written in ascending d once all are done.

Exit codes: 0 success, 2 usage error (also a d or --grid-n beyond the limit
of a route whose memory grows like its square, or an oracle d beyond
MAX_ORACLE_D), 3 I/O error, 4 numeric failure (any ArithmeticError, the base
of the package's numeric errors).
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np

from .limits import INTEGRAL, LIMIT, _error_E, limit_report, riemann_sum
from .mahler_closed import ROUTES, m_closed
from .mahler_oracle import _require_oracle_d, m_oracle, vol_integral_quadrature
from .polynomials import PdSpec
from .specfun import _CL2_BLOCK, TWO_PI
from .toric import _require_quadratic_d, check_regularity
from .volume import vol_array


def _fmt(x: float) -> str:
    return format(float(x), ".15g")


def _emit(path: str | None, header: str, rows) -> None:
    """Stream the CSV by rows; an I/O error mid-write can leave part of it."""
    with (nullcontext(sys.stdout) if path in (None, "-")
          else open(path, "w", encoding="ascii", newline="")) as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def _worker_count() -> int:
    # the CPUs this process may run on, at most 32: one oracle row peaks
    # at 3.3 MiB in tracemalloc at d = 30, and at 4.0 MiB or less up to 120
    if hasattr(os, "sched_getaffinity"):
        return min(32, len(os.sched_getaffinity(0)))
    return min(32, os.cpu_count() or 1)


def _int_at_least(low: int):
    """argparse type: an integer >= low."""
    def convert(text: str) -> int:
        try:
            value = int(text)
            if value >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"must be an integer >= {low}, not {text!r}")
    return convert


def _int_list_at_least(low: int):
    """argparse type: a comma list of integers >= low, at least one."""
    one = _int_at_least(low)

    def convert(text: str) -> list:
        values = [one(part) for part in text.split(",") if part]
        if not values:
            raise argparse.ArgumentTypeError("lists no value")
        return values
    return convert


def cmd_measure(args) -> int:
    tag, _, second = ROUTES[args.method]
    res = m_closed(PdSpec(args.d), args.method)
    # the oracle's estimate prints under the label error_bound= too
    print(f"m(P_{args.d}) = {res.value:.12f} [method={tag}, "
          f"error_bound={getattr(res, second):.3e}]")
    return 0


def cmd_sweep(args) -> int:
    if args.d_from > args.d_to:
        raise ValueError("need --from <= --to")
    ds = range(args.d_from, args.d_to + 1)
    oracle_ds = ds[:max(0, args.oracle_up_to - args.d_from + 1)]
    if oracle_ds:
        _require_oracle_d(oracle_ds[-1])

    def closed_column() -> list:
        return [m_closed(PdSpec(d)).value for d in ds]

    # one task for the closed column: split, its tiny calls fight for the GIL
    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        closed = pool.submit(closed_column)
        m_o = list(pool.map(lambda d: m_oracle(PdSpec(d)).value, oracle_ds))
        m_c = closed.result()
    rows = [[str(d), _fmt(c), "", ""] for d, c in zip(ds, m_c)]
    for row, c, o in zip(rows, m_c, m_o):
        row[2:] = _fmt(o), _fmt(abs(c - o))
    _emit(args.out, "d,m_closed,m_oracle,abs_diff", rows)
    return 0


def _vol_grid_blocks(m: int):
    """(theta, alpha, vol) at the grid points i + j <= m, by i then j.

    Yields blocks of whole i-rows, at most one Clausen kernel block of
    points each, so memory stays bounded at any m; vol_array works
    elementwise, so the values have the bits of the whole grid in one call.
    """
    step = TWO_PI / m
    per_block = max(1, _CL2_BLOCK // (m + 1))
    for lo in range(0, m + 1, per_block):
        i = np.arange(lo, min(lo + per_block, m + 1))
        r, j = np.nonzero(np.arange(m + 1) <= m - i[:, None])
        theta, alpha = i[r] * step, j * step
        yield theta, alpha, vol_array(theta, alpha)


def cmd_report(args) -> int:
    kind = args.kind
    if kind == "toric":
        # check_regularity, the outermost iterable, runs here, before _emit
        # opens the file, so a numeric failure leaves no file
        rows = ([str(a), str(b), str(c), f"{e:+d}", _fmt(g)]
                for block in check_regularity(PdSpec(args.d))
                for a, b, c, e, g in zip(*(col.tolist() for col in block)))
        _emit(args.out, "n,k,k_prime,eps,im_gamma", rows)
    elif kind == "vol-grid":
        m = args.grid_n
        _require_quadratic_d(m, "--grid-n")
        _emit(args.out, "theta,alpha,vol",
              ([_fmt(t), _fmt(a), _fmt(v)] for block in _vol_grid_blocks(m)
               for t, a, v in zip(*(col.tolist() for col in block))))
    elif kind == "limit":
        rows = [[str(r.d), _fmt(r.m_value), _fmt(LIMIT), _fmt(r.gap),
                 _fmt(r.reconstruction_residual)] for r in limit_report(args.d)]
        _emit(args.out, "d,m_closed,limit,gap,reconstruction_residual", rows)
    elif kind == "vol-integral":
        quad = vol_integral_quadrature()
        _emit(args.out, "series,quadrature,abs_diff",
              [[_fmt(INTEGRAL), _fmt(quad), _fmt(abs(INTEGRAL - quad))]])
    else:  # riemann
        rows = []
        for n in args.n:
            s = riemann_sum(n)
            e = _error_E(n, s)
            rows.append([str(n), _fmt(s), _fmt(e), _fmt(n * e)])
        _emit(args.out, "n,riemann_sum,E,nE", rows)
    return 0


# Built once at import: building the argparse tree costs more than the
# arithmetic of a small measure, and main may be called many times in one
# process.  Each report kind is a subcommand of its own, so a flag of
# another kind is a usage error.
_PARSER = argparse.ArgumentParser(
    prog="densemahler",
    description="Mahler measure of the dense bivariate polynomial family "
                "by closed dilogarithm formula and numerical oracle.")
_OUT = argparse.ArgumentParser(add_help=False)
_OUT.add_argument("--out", default=None, help="CSV file (default: stdout)")
_commands = _PARSER.add_subparsers(dest="command", required=True)

_measure = _commands.add_parser("measure", help="compute one m(P_d)")
_measure.add_argument("--d", type=_int_at_least(1), required=True)
_measure.add_argument("--method", default="aggregated",
                      choices=sorted(ROUTES))

_sweep = _commands.add_parser("sweep", parents=[_OUT], help="CSV over a range")
_sweep.add_argument("--from", dest="d_from", type=_int_at_least(1),
                    required=True)
_sweep.add_argument("--to", dest="d_to", type=int, required=True)
_sweep.add_argument("--oracle-up-to", type=int, default=0, dest="oracle_up_to",
                    help="also run the quadrature oracle for d up to this")

_report = _commands.add_parser("report", help="emit one of the reports")
_kinds = _report.add_subparsers(dest="kind", required=True)
_toric = _kinds.add_parser("toric", parents=[_OUT], help="the torus zeros")
_toric.add_argument("--d", type=_int_at_least(1), required=True)
_vol_grid = _kinds.add_parser("vol-grid", parents=[_OUT], help="vol on a grid")
_vol_grid.add_argument("--grid-n", type=_int_at_least(2), default=120)
_limit = _kinds.add_parser("limit", parents=[_OUT], help="m(P_d) vs its limit")
_limit.add_argument("--d", type=_int_list_at_least(1), required=True,
                    help="comma-separated d values")
_kinds.add_parser("vol-integral", parents=[_OUT], help="series vs quadrature")
_riemann = _kinds.add_parser("riemann", parents=[_OUT], help="S_n and E(n)")
_riemann.add_argument("--n", type=_int_list_at_least(2), required=True,
                      help="comma-separated n values")


def main(argv: list | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "measure":
            return cmd_measure(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_report(args)
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
