"""Command-line surface: output formats, determinism, exit codes."""

import argparse
import importlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import run_cli

D2_TORIC_ROWS = [
    "3,1,2,-1", "3,2,1,+1",
    "4,1,2,+1", "4,1,3,+1", "4,2,1,-1", "4,2,3,+1", "4,3,1,-1", "4,3,2,-1",
]


def test_measure_d1(capsys):
    assert run_cli(["measure", "--d", "1"]) == 0
    out = capsys.readouterr().out
    assert "0.323065947219" in out
    assert "method=closed_aggregated" in out


def test_measure_d2_all_methods(capsys):
    # every line of measure, pinned to its bytes; the oracle prints its
    # estimate under the label error_bound= too
    lines = {
        "pointwise": "[method=closed_pointwise, error_bound=6.366e-13]",
        "volsum": "[method=closed_volsum, error_bound=5.968e-13]",
        "aggregated": "[method=closed_aggregated, error_bound=4.907e-13]",
        "oracle": "[method=oracle, error_bound=8.491e-15]",
    }
    for method, tail in lines.items():
        assert run_cli(["measure", "--d", "2", "--method", method]) == 0
        assert capsys.readouterr().out == f"m(P_2) = 0.421588834452 {tail}\n"


def test_measure_usage_errors(capsys):
    assert run_cli(["measure", "--d", "0"]) == 2
    capsys.readouterr()
    assert run_cli(["measure", "--d", "2", "--method", "bogus"]) == 2
    capsys.readouterr()
    # the oracle's node count is a library setting, not a flag
    assert run_cli(["measure", "--d", "3", "--method", "oracle",
                    "--nodes", "2"]) == 2
    assert "unrecognized arguments: --nodes 2" in capsys.readouterr().err


def test_sweep_with_oracle(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--from", "1", "--to", "10",
                    "--oracle-up-to", "10", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "d,m_closed,m_oracle,abs_diff"
    assert len(lines) == 11
    for line in lines[1:]:
        d, m_c, m_o, diff = line.split(",")
        assert 1 <= int(d) <= 10
        assert float(diff) <= 1e-6
    # byte determinism of a repeated run
    out2 = tmp_path / "sweep2.csv"
    assert run_cli(["sweep", "--from", "1", "--to", "10",
                    "--oracle-up-to", "10", "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_sweep_partial_oracle_columns(tmp_path):
    out = tmp_path / "s.csv"
    assert run_cli(["sweep", "--from", "1", "--to", "6",
                    "--oracle-up-to", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[3].endswith(",,")  # d = 3 row has empty oracle columns
    assert lines[1].count(",") == 3


def test_sweep_full_range_reproduces_convergence(tmp_path):
    # the full d = 1..1000 closed-form sweep behind the convergence figure
    out = tmp_path / "full.csv"
    assert run_cli(["sweep", "--from", "1", "--to", "1000",
                    "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1001
    values = {}
    for line in lines[1:]:
        cells = line.split(",")
        values[int(cells[0])] = float(cells[1])
        assert cells[2] == "" and cells[3] == ""
    assert all(0.3 < v < 0.56 for v in values.values())
    limit = 0.5480722270510788
    gaps = [abs(values[d] - limit) for d in (10, 100, 1000)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.01


def test_sweep_usage_and_io_errors(capsys):
    assert run_cli(["sweep", "--from", "5", "--to", "2"]) == 2
    capsys.readouterr()
    code = run_cli(["sweep", "--from", "1", "--to", "2",
                    "--out", "/nonexistent-dir/x.csv"])
    assert code == 3
    capsys.readouterr()


def test_report_toric_d2(capsys):
    assert run_cli(["report", "toric", "--d", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,k,k_prime,eps,im_gamma"
    assert len(lines) == 9
    for expected, line in zip(D2_TORIC_ROWS, lines[1:]):
        assert line.startswith(expected + ",")
        eps = int(line.split(",")[3])
        im = float(line.split(",")[4])
        assert eps == (-1 if im > 0 else 1)


def test_report_toric_rows_cross_a_block(tmp_path):
    # d = 200 has 80 000 torus zeros, three blocks of toric_blocks; every
    # row keeps its index columns and sign exactly
    from densemahler.polynomials import PdSpec
    from densemahler.toric import diagonal_sign, toric_indices

    out = tmp_path / "toric.csv"
    assert run_cli(["report", "toric", "--d", "200", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    n, k, kp = toric_indices(PdSpec(200))
    assert len(lines) - 1 == n.size > 65536
    cols = np.loadtxt(lines[1:], delimiter=",", usecols=(0, 1, 2, 3),
                      dtype=np.int64)
    for got, want in zip(cols.T, (n, k, kp, diagonal_sign(200, n, k, kp))):
        assert np.array_equal(got, want)


def test_report_vol_grid(capsys):
    assert run_cli(["report", "vol-grid", "--grid-n", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "theta,alpha,vol"
    assert len(lines) == 1 + sum(7 - i for i in range(7))
    vals = [float(line.split(",")[2]) for line in lines[1:]]
    assert min(vals) >= -1e-12


def test_report_limit(capsys):
    assert run_cli(["report", "limit", "--d", "10,100,1000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    gaps = [float(line.split(",")[3]) for line in lines[1:]]
    assert gaps[0] > gaps[1] > gaps[2]
    residuals = [float(line.split(",")[4]) for line in lines[1:]]
    assert max(residuals) <= 1e-8


def test_report_vol_integral(capsys):
    assert run_cli(["report", "vol-integral"]) == 0
    lines = capsys.readouterr().out.splitlines()
    series, quad, diff = (float(v) for v in lines[1].split(","))
    # the cells are independently rounded to 15 significant digits
    assert abs(abs(series - quad) - diff) <= 1e-9 * (1.0 + diff)
    assert diff <= 1e-6
    assert abs(series - 22.65823881697847) <= 1e-10


def test_report_riemann(capsys):
    assert run_cli(["report", "riemann", "--n", "50,100,200"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,riemann_sum,E,nE"
    ne = [float(line.split(",")[3]) for line in lines[1:]]
    assert ne[0] > ne[1] > ne[2]


def test_report_usage_errors(capsys):
    assert run_cli(["report", "toric"]) == 2
    capsys.readouterr()
    assert run_cli(["report", "limit"]) == 2
    capsys.readouterr()
    assert run_cli(["report", "nonsense"]) == 2
    capsys.readouterr()


def test_empty_lists_are_usage_errors(capsys):
    for argv in (["report", "riemann", "--n", ","],
                 ["report", "limit", "--d", ","]):
        assert run_cli(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {argv[2]}: lists no value" in err


USAGE_ERRORS = [
    (["measure", "--d", "0"], "--d"),
    (["measure", "--d", "x"], "--d"),
    (["sweep", "--from", "0", "--to", "3"], "--from"),
    (["sweep", "--from", "5", "--to", "2"], "--from"),
    (["report", "toric"], "--d"),
    (["report", "toric", "--d", "0"], "--d"),
    (["report", "toric", "--d", "2", "--grid-n", "5"], "--grid-n"),
    (["report", "vol-grid", "--grid-n", "1"], "--grid-n"),
    (["report", "limit", "--d", "0,3"], "--d"),
    (["report", "limit", "--d", ","], "--d"),
    (["report", "riemann", "--n", "1"], "--n"),
    (["report", "riemann", "--n", ","], "--n"),
    (["report", "vol-integral", "--d", "3"], "--d"),
]


@pytest.mark.parametrize("argv, flag", USAGE_ERRORS,
                         ids=[" ".join(argv) for argv, _ in USAGE_ERRORS])
def test_usage_errors_name_the_flag(argv, flag, capsys):
    # each report kind takes only its own flags; argparse checks every range
    assert run_cli(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert flag in err


def test_main_builds_no_parser(monkeypatch, capsys):
    # the parser is built once, at import
    import densemahler.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("main constructed an ArgumentParser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert cli.main(["measure", "--d", "3"]) == 0
    assert run_cli(["report", "toric", "--d", "0"]) == 2
    capsys.readouterr()


def test_quadratic_routes_refuse_large_d(capsys):
    # the O(d^2) routes fail with exit 2 before allocating their arrays
    import densemahler.cli  # noqa: F401  (imports are not the subject)

    tracemalloc.start()
    try:
        for argv in (["measure", "--method", "pointwise"],
                     ["measure", "--method", "volsum"], ["report", "toric"]):
            assert run_cli(argv + ["--d", "1000000"]) == 2
            assert "exceeds 1000" in capsys.readouterr().err
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert run_cli(["measure", "--d", "1000000"]) == 0  # O(d) route
    capsys.readouterr()


def test_vol_grid_refuses_large_grid_n(capsys):
    # the grid has (m+1)(m+2)/2 points; 60000 would ask for gigabytes
    import densemahler.cli  # noqa: F401  (imports are not the subject)

    tracemalloc.start()
    try:
        for m in (1001, 60000):
            assert run_cli(["report", "vol-grid", "--grid-n", str(m)]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert f"--grid-n = {m} exceeds 1000" in err
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_numeric_failure_exit_code(monkeypatch, capsys):
    from densemahler import mahler_closed
    from densemahler.polynomials import RootFindingError

    def boom(spec):
        raise RootFindingError("injected failure", 1.0)

    # measure runs the oracle through the ROUTES table of mahler_closed
    monkeypatch.setattr(mahler_closed, "m_oracle", boom)
    assert run_cli(["measure", "--d", "3", "--method", "oracle"]) == 4
    capsys.readouterr()


def test_every_arithmetic_error_exits_4(monkeypatch, capsys):
    # the gamma of report toric and _error_E's sandwich check raise errors
    # outside the oracle's: they exit 4 too, not with a traceback
    import densemahler.cli as cli
    from densemahler import toric
    from densemahler.polynomials import SingularPointError

    def singular(*args):
        raise SingularPointError("injected singular point")

    def sandwich(n, s_n):
        raise ArithmeticError("injected sandwich violation")

    monkeypatch.setattr(toric, "toric_im_gamma", singular)
    monkeypatch.setattr(cli, "_error_E", sandwich)
    for argv, text in ((["report", "toric", "--d", "3"], "singular point"),
                       (["report", "riemann", "--n", "5"], "sandwich")):
        assert run_cli(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and text in err


def test_report_toric_prints_only_checked_rows(tmp_path, monkeypatch, capsys):
    # an |Im gamma| at or below the regularity threshold exits 4 before any
    # file is opened
    from densemahler import toric

    monkeypatch.setattr(toric, "REGULARITY_MIN_IM", 10.0)
    out = tmp_path / "f"
    assert run_cli(["report", "toric", "--d", "3", "--out", str(out)]) == 4
    assert "|Im gamma| = " in capsys.readouterr().err
    assert not out.exists()


def test_oracle_d_limit_exits_2(monkeypatch, capsys):
    # above MAX_ORACLE_D, measure and sweep refuse before computing anything
    from densemahler import mahler_closed, mahler_oracle

    def never(*args, **kwargs):
        raise AssertionError("computed a value")

    monkeypatch.setattr(mahler_oracle, "aberth_roots_batch", never)
    for route in ("m_closed_pointwise", "m_closed_volsum",
                  "m_closed_aggregated"):
        monkeypatch.setattr(mahler_closed, route, never)
    limit = mahler_oracle.MAX_ORACLE_D
    top = str(limit + 1)
    for argv in (["measure", "--d", top, "--method", "oracle"],
                 ["sweep", "--from", "1", "--to", top, "--oracle-up-to", top],
                 ["sweep", "--from", "1", "--to", "1000",
                  "--oracle-up-to", top]):
        assert run_cli(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"oracle d = {top} exceeds MAX_ORACLE_D = {limit}" in err


def test_sweep_oracle_limit_counts_only_oracle_rows(tmp_path):
    # rows above --oracle-up-to never run the oracle, so a large
    # --oracle-up-to below --from is no reason to refuse
    out = tmp_path / "s.csv"
    assert run_cli(["sweep", "--from", "500", "--to", "501",
                    "--oracle-up-to", "200", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].endswith(",,")


def test_riemann_report_computes_each_weight_sum_once(monkeypatch, capsys):
    # each row takes S_n and E(n) from one W(n)
    from densemahler import limits

    assert run_cli(["report", "riemann", "--n", "50,100"]) == 0
    expected = capsys.readouterr().out
    calls = []
    original = limits.grid_weight_sum

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(limits, "grid_weight_sum", counting)
    assert run_cli(["report", "riemann", "--n", "50,100"]) == 0
    assert capsys.readouterr().out == expected
    assert calls == [50, 100]


def test_sweep_closed_column_is_one_task(monkeypatch):
    # every closed row runs in d order on one pool thread, not the caller's
    import densemahler.cli as cli

    calls = []
    original = cli.m_closed

    def recording(spec):
        calls.append((spec.d, threading.get_ident()))
        return original(spec)

    monkeypatch.setattr(cli, "m_closed", recording)
    assert run_cli(["sweep", "--from", "1", "--to", "300",
                    "--oracle-up-to", "4", "--out", os.devnull]) == 0
    assert [d for d, _ in calls] == list(range(1, 301))
    threads = {t for _, t in calls}
    assert len(threads) == 1 and threading.get_ident() not in threads


def test_sweep_rows_equal_direct_calls(tmp_path):
    from densemahler import PdSpec, m_closed, m_oracle

    out = tmp_path / "s.csv"
    assert run_cli(["sweep", "--from", "3", "--to", "40",
                    "--oracle-up-to", "9", "--out", str(out)]) == 0
    expected = ["d,m_closed,m_oracle,abs_diff"]
    for d in range(3, 41):
        c = m_closed(PdSpec(d), "aggregated").value
        cells = [str(d), format(c, ".15g"), "", ""]
        if d <= 9:
            o = m_oracle(PdSpec(d)).value
            cells[2:] = format(o, ".15g"), format(abs(c - o), ".15g")
        expected.append(",".join(cells))
    assert out.read_text().splitlines() == expected


@pytest.mark.parametrize("target", ["m_oracle", "m_closed"])
def test_sweep_numeric_failure_writes_no_file(target, tmp_path, monkeypatch,
                                              capsys):
    # a failure in an oracle row or in the closed column exits 4, no file
    import densemahler.cli as cli

    def boom(*args):
        raise ArithmeticError(f"injected in {target}")

    monkeypatch.setattr(cli, target, boom)
    out = tmp_path / "s.csv"
    assert run_cli(["sweep", "--from", "1", "--to", "20",
                    "--oracle-up-to", "3", "--out", str(out)]) == 4
    assert capsys.readouterr().err == f"numeric failure: injected in {target}\n"
    assert not out.exists()


def test_worker_count(monkeypatch):
    # the CPUs this process may run on, at most 32; no pool is started here
    import densemahler.cli as cli

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(1000)),
                        raising=False)
    assert cli._worker_count() == 32
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli._worker_count() == 3


def _readme_command_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [line.split("#", 1)[0].split()[1:] for line in block.splitlines()
            if line.startswith("densemahler ")]


def test_readme_command_lines_run(tmp_path, capsys):
    lines = _readme_command_lines()
    assert len(lines) >= 9
    for argv in lines:
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        assert run_cli(argv) == 0, argv
        capsys.readouterr()


def test_readme_methods_table_is_routes():
    # the README's spellings, printed tags and second-number fields are
    # the rows of ROUTES, and its largest d are the routes' limits
    from densemahler.mahler_closed import ROUTES
    from densemahler.mahler_oracle import MAX_ORACLE_D
    from densemahler.toric import MAX_QUADRATIC_D

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("## Command line", 1)[1].split("\n\n| ", 1)[1]
    table = table.split("\n\n", 1)[0].splitlines()[2:]
    rows = [line.split("|")[1:5] for line in table]
    cells = [[cell.split("`")[1] for cell in row[:3]] for row in rows]
    assert {method: (tag, field) for method, tag, field in cells} == {
        method: (tag, field) for method, (tag, _, field) in ROUTES.items()}
    largest = {cell[0]: row[3].strip() for cell, row in zip(cells, rows)}
    assert largest == {"pointwise": str(MAX_QUADRATIC_D),
                       "volsum": str(MAX_QUADRATIC_D), "aggregated": "none",
                       "oracle": str(MAX_ORACLE_D)}


def test_readme_library_map_names_exist():
    # every backticked identifier in a row of the map is an attribute of
    # that row's module (a dotted one, of the package's module it names);
    # tuples and command lines in backticks are skipped
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("## Library map", 1)[1].split("\n\n", 2)[1]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    assert len(rows) >= 8
    for module_cell, contents in rows:
        module = importlib.import_module(
            "densemahler." + module_cell.strip().strip("`"))
        names = {name for name in contents.split("`")[1::2]
                 if all(part.isidentifier() for part in name.split("."))
                 and name != "densemahler"}
        assert names, module_cell
        for name in names:
            owner, _, attr = name.rpartition(".")
            target = (importlib.import_module("densemahler." + owner)
                      if owner else module)
            assert hasattr(target, attr), (module.__name__, name)


def _child_env(**extra) -> dict:
    # the child imports the package from the same source tree as this test
    import densemahler

    src = str(Path(densemahler.__file__).resolve().parent.parent)
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    return env


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "densemahler.cli", "measure", "--d", "1"],
        capture_output=True, text=True, timeout=120, env=_child_env())
    assert proc.returncode == 0
    assert "0.323065947219" in proc.stdout


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self")
def test_report_toric_memory_at_max_quadratic_d(tmp_path):
    # the largest d report toric takes: its 2 million rows stream out block
    # by block, so the whole process stays near the interpreter and numpy
    # (37 MB), where the table of every point took 121 MB.  The child reads
    # the peak of its own address space, VmHWM: its ru_maxrss, even
    # RUSAGE_SELF, counts this test process's RSS at the spawn
    out = tmp_path / "toric.csv"
    run = ("import sys\n"
           "from densemahler.cli import main\n"
           "code = main(sys.argv[1:])\n"
           "with open('/proc/self/status') as fh:\n"
           "    hwm = next(x for x in fh if x.startswith('VmHWM:'))\n"
           "print(code, hwm.split()[1])\n")
    proc = subprocess.run(
        [sys.executable, "-c", run, "report", "toric", "--d", "1000",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 0
    assert peak_kib <= 64 * 2**10
    with out.open("rb") as fh:
        fh.seek(-64, os.SEEK_END)
        assert fh.read().splitlines()[-1].startswith(b"1002,1001,1000,-1,")


def test_bytes_do_not_depend_on_blas_threads(tmp_path):
    # a BLAS dot splits its sum by thread count; the closed routes' sums
    # and the quadrature's matrix-vector products must not, or the digits
    # after the cancellation at large d move.
    # numpy reads OPENBLAS_NUM_THREADS once, at import, so one child per
    # setting runs every command and prints each one's exit code after it
    run_each = ("import json, sys\n"
                "from densemahler.cli import main\n"
                "for argv in json.loads(sys.argv[1]):\n"
                "    print(f'exit {main(argv)}', flush=True)\n")

    def outputs(threads):
        csv = tmp_path / f"limit-{threads}.csv"
        quad = tmp_path / f"vol-integral-{threads}.csv"
        commands = [["measure", "--d", "1000000"],
                    ["measure", "--d", "300", "--method", "pointwise"],
                    ["report", "limit", "--d", "100000,1000000",
                     "--out", str(csv)],
                    ["report", "vol-integral", "--out", str(quad)]]
        proc = subprocess.run(
            [sys.executable, "-c", run_each, json.dumps(commands)],
            capture_output=True, timeout=120,
            env=_child_env(OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count(b"exit 0\n") == len(commands), proc.stdout
        return proc.stdout, csv.read_bytes(), quad.read_bytes()

    assert outputs("1") == outputs("2")


def test_fifteen_significant_digits(capsys):
    assert run_cli(["report", "riemann", "--n", "7"]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    value = line.split(",")[1]
    mantissa = value.replace("-", "").replace(".", "").lstrip("0")
    assert len(mantissa) <= 15
