"""The benchmark in perfbench/ traces and calls package names by string.

A rename or deletion in the package would only show when the benchmark runs,
so this loads perfbench/run.py as it is and resolves every name it uses, and
checks the two signatures perfbench/tracing.py reads and the CurveArc
fields perfbench/worker.py passes by position.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import densemahler
from densemahler.mahler_oracle import (CurveArc, QuadratureConfig,
                                       default_config, m_oracle)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports workloads
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_names_resolve(monkeypatch):
    run = _load_run(monkeypatch)
    traced = set(run.SELF_TIMES) | {name for name, _ in run.COUNT_METRICS.values()}
    # run.machine() calls cli._worker_count() on every run
    called = traced | {"cli._worker_count"}
    missing = []
    for name in sorted(called):
        module, _, attr = name.rpartition(".")
        obj = getattr(importlib.import_module(f"densemahler.{module}"), attr, None)
        if not callable(obj):
            missing.append(name)
    assert missing == []
    assert isinstance(densemahler.CL2_ERROR_BOUND, float)


def test_introspected_signatures():
    # perfbench/tracing.py reads the default node count off default_config
    # and the config of an m_oracle call from its argument named cfg
    nodes = inspect.signature(default_config).parameters["nodes_per_panel"]
    assert isinstance(nodes.default, int)
    assert nodes.default == QuadratureConfig().nodes_per_panel
    assert "cfg" in inspect.signature(m_oracle).parameters


def test_curve_arc_positional_fields():
    # perfbench/worker.py builds CurveArc(radius, t0, t1, steps) by position
    names = [f.name for f in dataclasses.fields(CurveArc)]
    assert names[:4] == ["radius", "t_start", "t_end", "steps"]
