"""Tests of the benchmark's own machinery: python3 -m pytest -q perfbench"""

import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import densemahler as dm  # noqa: E402
import densemahler.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests(workload):
    assert workloads.build(workload, 7) == workloads.build(workload, 7)
    assert workloads.build(workload, 7) != workloads.build(workload, 8)


def test_request_ranges():
    for seed in range(5):
        ds = [d for _, d in workloads.build("closed-large-d", seed)]
        assert len(ds) == 40 and min(ds) == 1000 and max(ds) == 1_000_000
        reqs = workloads.build("oracle-check", seed)
        assert all(8 <= r[1] <= 30 for r in reqs if r[0] == "oracle")
        arcs = [r for r in reqs if r[0] == "arc"]
        assert all(3 <= a[1] <= 8 and 0.05 <= abs(a[2] - 1.0) <= 0.15 for a in arcs)
        sweep = next(a for a in workloads.build("sweep-session", seed) if a[0] == "sweep")
        assert 2000 <= int(sweep[4]) <= 3000 and 8 <= int(sweep[6]) <= 12


def test_spread_is_stratified_and_antithetic():
    import numpy as np
    vals = workloads.spread(np.random.default_rng(3), 12, 0, 1_000_000, jitter=1.0)
    inner = sorted(vals[2:])
    assert vals[:2] == [0, 1_000_000]
    # one value per tenth of the range, mirrored pairs summing to the range
    assert [v // 100_000 for v in inner] == list(range(10))
    assert all(abs(inner[i] + inner[9 - i] - 1_000_000) <= 1 for i in range(5))


def test_self_times_on_synthetic_tree():
    # id: (parent, start, end); 4 and 5 run on two worker threads and
    # overlap, 6 sticks out past the end of its parent
    spans = {1: (0, 0.0, 10.0), 2: (1, 1.0, 4.0), 3: (2, 2.0, 3.0),
             4: (1, 5.0, 8.0), 5: (1, 6.0, 9.0), 6: (1, 9.5, 11.0)}
    ids = list(spans)
    parents, starts, ends = zip(*spans.values())
    own = dict(zip(ids, tracing.self_times(ids, parents, starts, ends)))
    assert own == pytest.approx({1: 10 - 3 - 4 - 0.5, 2: 2.0, 3: 1.0,
                                 4: 3.0, 5: 3.0, 6: 1.5})


def test_tracer_wraps_bindings_and_adopts_worker_threads(tmp_path, monkeypatch):
    monkeypatch.setenv("MAHLER_THREADS", "2")
    original = dm.mahler_closed.cl2_array
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert dm.mahler_closed.cl2_array is not original
        assert dm.specfun.cl2_array is dm.mahler_closed.cl2_array
        dm.cli.main(["sweep", "--from", "1", "--to", "6", "--out", str(tmp_path / "s.csv")])
    finally:
        tracer.uninstall()
    assert dm.mahler_closed.cl2_array is original
    sp = tracer.spans()
    name = {i: tracer.names[n] for i, n in zip(sp["ids"], sp["names"])}
    parent = dict(zip(sp["ids"], sp["parents"]))
    thread = dict(zip(sp["ids"], sp["threads"]))
    main_span = next(i for i, n in name.items() if n == "cli.main")
    routes = [i for i, n in name.items() if n == "mahler_closed.m_closed"]
    assert len(routes) == 6
    # the pool's threads are not the caller's, yet their spans hang under cli.main
    assert all(thread[i] != thread[main_span] for i in routes)
    assert all(name[parent[i]] == "cli.cmd_sweep" and parent[parent[i]] == main_span
               for i in routes)
    totals = tracing.layer_totals(tracer)
    assert totals["mahler_closed.grid_weight_sum"]["calls"] == 12
    assert totals["specfun.cl2_array"]["work"] == sum(n - 1 for d in range(1, 7)
                                                      for n in (d + 1, d + 2))


def _result(outputs, samples):
    return {"seed": 0, "outputs": outputs, "samples": samples}


def test_wrong_value_counts_as_violation_and_failure():
    est = dm.m_closed_aggregated(dm.PdSpec(1000))
    good = [est.value, est.error_bound]
    wrong = [est.value + 10 * est.error_bound, est.error_bound]
    outputs = [[0, good], [0, wrong], [1, ["error", "RootFindingError: injected"]]]
    samples = [(0, 0, 0.1), (0, 1, 0.1), (1, 2, 0.1)]
    verdict = run.check_outputs("closed-large-d", _result(outputs, samples))
    assert verdict["bound_violations"] == 1
    assert verdict["failed_requests"] == 1
    assert verdict["bad_requests"] == 2
    assert verdict["fail_rate"] == pytest.approx(1 / 3)
    assert not verdict["all_outputs_ok"]
    assert verdict["reference_problems"] == []


def test_malformed_csv_fails_the_request(tmp_path):
    argv = ["report", "riemann", "--n", "50,100", "--out", str(tmp_path / "r.csv")]
    dm.cli.main(argv)
    text = (tmp_path / "r.csv").read_text()
    refs = checks.References()
    assert checks.check("sweep-session", argv, [0, text, ""], refs).failed is None
    dropped = text[:text.rindex("100,")]
    assert "rows" in checks.check("sweep-session", argv, [0, dropped, ""], refs).failed
    broken = text.replace(text.split("\n")[1].split(",")[1], "0.5", 1)
    assert checks.check("sweep-session", argv, [0, broken, ""], refs).violations == 1
    assert checks.check("sweep-session", argv, [4, "", "numeric failure"], refs).failed


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail(list(range(48)))[0] == 75.0
    assert run.tail(list(range(400)))[0] == 95.0
    assert run.tail(list(range(1000)))[0] == 99.0


def test_benchmark_json_names_every_metric():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert os.path.relpath(Path(run.__file__).parent, ROOT) in bench["paths"]
