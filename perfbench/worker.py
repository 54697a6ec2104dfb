"""Runs one workload as a closed loop in a fresh process and records it.

Started by run.py with PYTHONPATH pointing at the checkout's src, so the
process holds only the interpreter, numpy and the package: its ru_maxrss and
CPU time are the package's own.  One untimed warm-up pass comes first (the
first closed-route pass took 2.7 s against 1.9 s for later ones), then a
fixed number of whole passes set by the time budget (PASS_SECONDS).  Each
output is stored once per distinct value, for run.py to check after the
timed region.

With --trace 1 untraced and traced passes alternate, so the tracing overhead
is measured in the same process, and fixed-size probes follow with tracing
off: best of 3 per call, best of 2 per sweep.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import time

import numpy as np

import densemahler as dm
import densemahler.cli
import tracing
import workloads

PROBE_REPEAT = 3

# Duration of one pass on the reference machine (2 vCPUs of a 2.1 GHz Xeon).
# A run makes round(seconds / PASS_SECONDS) passes, so every run of a
# workload does the same work and draws the same number of latency samples,
# and the tail percentile and the requests it lands on stay put.
PASS_SECONDS = {"closed-large-d": 1.8, "oracle-check": 4.6, "sweep-session": 4.6}


def _call_closed(req):
    est = dm.mahler_closed.m_closed_aggregated(dm.PdSpec(req[1]))
    return [est.value, est.error_bound]


def _call_oracle(req):
    if req[0] == "oracle":
        res = dm.mahler_oracle.m_oracle(dm.PdSpec(req[1]))
        return [res.value, res.error_estimate]
    _, d, radius, t0, t1, steps = req
    arc = dm.mahler_oracle.CurveArc(radius, t0, t1, steps)
    return [dm.mahler_oracle.primitive_check(dm.PdSpec(d), arc)]


def cli_call(argv):
    """cli.main in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = dm.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]


class Runner:
    """Sends requests and turns each reply into a JSON-able output."""

    def __init__(self, workload: str, scratch: str):
        self.workload = workload
        self.scratch = scratch

    def _path(self, index: int) -> str:
        return os.path.join(self.scratch, f"out-{index}.csv")

    def prepare(self, index, req):
        """argv with its output file, which is removed before the call."""
        if self.workload != "sweep-session":
            return req
        path = self._path(index)
        if os.path.exists(path):
            os.remove(path)
        return [path if a == workloads.OUT else a for a in req]

    def call(self, prepared):
        try:
            if self.workload == "closed-large-d":
                return _call_closed(prepared)
            if self.workload == "oracle-check":
                return _call_oracle(prepared)
            return cli_call(prepared)
        except Exception as exc:  # counted as a failed request by run.py
            return ["error", f"{type(exc).__name__}: {exc}"]

    def collect(self, index, req, reply):
        if self.workload != "sweep-session" or workloads.OUT not in req:
            return reply
        path = self._path(index)
        text = None
        if os.path.exists(path):
            with open(path, encoding="ascii", errors="replace") as fh:
                text = fh.read()
        return [reply[0], text, reply[2]]


class Recorder:
    """Latency and CPU per request; each distinct output kept once."""

    def __init__(self):
        self.outputs = []
        self.seen = {}
        self.samples = []  # (request, output id, latency s)
        self.passes = []

    def output_id(self, index, output) -> int:
        key = (index, json.dumps(output))
        if key not in self.seen:
            self.seen[key] = len(self.outputs)
            self.outputs.append([index, output])
        return self.seen[key]


def run_pass(runner, requests, recorder, number, traced=False):
    busy = cpu = 0.0
    for index, req in enumerate(requests):
        prepared = runner.prepare(index, req)
        c0 = time.process_time()
        t0 = time.perf_counter()
        reply = runner.call(prepared)
        t1 = time.perf_counter()
        c1 = time.process_time()
        out = recorder.output_id(index, runner.collect(index, req, reply))
        if number >= 0:
            recorder.samples.append((index, out, t1 - t0))
        busy += t1 - t0
        cpu += c1 - c0
    if number >= 0:
        recorder.passes.append({"traced": traced, "busy_s": busy, "cpu_s": cpu})


def timed_passes(runner, requests, recorder, passes, tracer=None):
    """A fixed number of passes; with a tracer every second one is traced."""
    for number in range(passes):
        traced = tracer is not None and number % 2 == 1
        if traced:
            tracer.install()
        try:
            run_pass(runner, requests, recorder, number, traced)
        finally:
            if traced:
                tracer.uninstall()


def best_of(fn, repeat=PROBE_REPEAT) -> float:
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def probes(seed: int, scratch: str) -> dict:
    """Fixed-size timings of the table kept in the roadmap, tracing off."""
    spec = dm.PdSpec
    mc, mo = dm.mahler_closed, dm.mahler_oracle
    out = {}
    for d in (1000, 10_000, 100_000, 1_000_000):
        out[f"probe.aggregated.d{d}_s"] = best_of(lambda: mc.m_closed_aggregated(spec(d)))
    for d in (10, 20, 30):
        out[f"probe.oracle.d{d}_s"] = best_of(lambda: mo.m_oracle(spec(d)))
    for d in (100, 300):
        out[f"probe.volsum.d{d}_s"] = best_of(lambda: mc.m_closed_volsum(spec(d)))
        out[f"probe.pointwise.d{d}_s"] = best_of(lambda: mc.m_closed_pointwise(spec(d)))
    out["probe.enumerate_toric.d300_s"] = best_of(lambda: dm.toric.enumerate_toric(spec(300)))
    angles = 2.0 * np.pi * np.arange(1, 1_000_001) / 1_000_001
    out["probe.cl2_array.n1000000_s"] = best_of(lambda: dm.specfun.cl2_array(angles))
    out["probe.vol_integral_quadrature_s"] = best_of(mo.vol_integral_quadrature)

    # the sweep of this seed's sweep-session script, at the default worker
    # count and with MAHLER_THREADS=1
    argv = next(a for a in workloads.build("sweep-session", seed) if a[0] == "sweep")
    argv = [os.path.join(scratch, "probe.csv") if a == workloads.OUT else a for a in argv]
    saved = os.environ.pop("MAHLER_THREADS", None)
    try:
        workers = dm.cli._worker_count()
        out["probe.sweep.default_s"] = best_of(lambda: cli_call(argv), 2)
        os.environ["MAHLER_THREADS"] = "1"
        out["probe.sweep.single_thread_s"] = best_of(lambda: cli_call(argv), 2)
    finally:
        os.environ.pop("MAHLER_THREADS", None)
        if saved is not None:
            os.environ["MAHLER_THREADS"] = saved
    speedup = out["probe.sweep.single_thread_s"] / out["probe.sweep.default_s"]
    out["cli.sweep.rows"] = int(argv[argv.index("--to") + 1]) - int(argv[argv.index("--from") + 1]) + 1
    out["cli.sweep.workers"] = workers
    out["cli.sweep.single_thread_speedup"] = speedup
    out["cli.sweep.parallel_efficiency"] = speedup / workers
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    requests = workloads.build(args.workload, args.seed)
    runner = Runner(args.workload, args.scratch)
    rec = Recorder()
    run_pass(runner, requests, rec, -1)  # warm-up, untimed
    tracer = tracing.Tracer() if args.trace else None
    passes = max(2, round(args.seconds / PASS_SECONDS[args.workload]))
    timed_passes(runner, requests, rec, passes, tracer)
    result = {"requests": requests, "outputs": rec.outputs,
              "samples": rec.samples, "passes": rec.passes,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        traced = sum(p["traced"] for p in rec.passes)
        result["layers"] = {name: {k: v / traced for k, v in tot.items()}
                            for name, tot in tracing.layer_totals(tracer).items()}
        if args.spans:
            sp = tracer.spans()
            np.savez_compressed(args.spans, function_names=np.array(tracer.names), **sp)
        result["probes"] = probes(args.seed, args.scratch)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
