"""Command-line surface: output formats, determinism, exit codes."""

import subprocess
import sys
import tracemalloc
from pathlib import Path

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
    for method in ("pointwise", "volsum", "aggregated", "oracle"):
        assert run_cli(["measure", "--d", "2", "--method", method]) == 0
        assert "0.421588834452" in capsys.readouterr().out


def test_measure_usage_errors(capsys):
    assert run_cli(["measure", "--d", "0"]) == 2
    capsys.readouterr()
    assert run_cli(["measure", "--d", "2", "--method", "bogus"]) == 2
    capsys.readouterr()
    # the oracle's node count is a library setting, not a flag
    assert run_cli(["measure", "--d", "3", "--method", "oracle",
                    "--nodes", "2"]) == 2
    assert "unrecognized arguments: --nodes 2" in capsys.readouterr().err


def test_sweep_with_oracle(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MAHLER_THREADS", "2")
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
        assert f"{argv[2]} lists no value" in err


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
    import densemahler.cli as cli
    from densemahler.polynomials import RootFindingError

    def boom(spec):
        raise RootFindingError("injected failure", 1.0)

    monkeypatch.setattr(cli, "m_oracle", boom)
    assert run_cli(["measure", "--d", "3", "--method", "oracle"]) == 4
    capsys.readouterr()


def test_every_arithmetic_error_exits_4(monkeypatch, capsys):
    # the gamma of report toric and _error_E's sandwich check raise errors
    # outside the oracle's: they exit 4 too, not with a traceback
    import densemahler.cli as cli
    from densemahler.polynomials import SingularPointError

    def singular(*args):
        raise SingularPointError("injected singular point")

    def sandwich(n, s_n):
        raise ArithmeticError("injected sandwich violation")

    monkeypatch.setattr(cli, "toric_gamma", singular)
    monkeypatch.setattr(cli, "_error_E", sandwich)
    for argv, text in ((["report", "toric", "--d", "3"], "singular point"),
                       (["report", "riemann", "--n", "5"], "sandwich")):
        assert run_cli(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and text in err


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


def test_bad_thread_env(monkeypatch, capsys):
    import densemahler.cli as cli

    monkeypatch.setenv("MAHLER_THREADS", "0")
    assert run_cli(["sweep", "--from", "1", "--to", "2"]) == 2
    capsys.readouterr()
    # a huge value gets the default's ceiling; no pool is started here
    monkeypatch.setenv("MAHLER_THREADS", "1000000")
    assert cli._worker_count() == 32


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


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "densemahler.cli", "measure", "--d", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "0.323065947219" in proc.stdout


def test_fifteen_significant_digits(capsys):
    assert run_cli(["report", "riemann", "--n", "7"]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    value = line.split(",")[1]
    mantissa = value.replace("-", "").replace(".", "").lstrip("0")
    assert len(mantissa) <= 15
