"""The densemahler benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload closed-large-d --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run times set-up (fresh imports of the
package), starts the workload in a fresh worker process (worker.py), checks
every output against the references in reference.py (checks.py), and prints
each metric with its unit, then as its last line one JSON object with the
keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics, measured with tracing off; --trace 1 reports the
per-layer metrics of a traced run (tracing.py) and fixed-size probes.  The
full record, with the machine description, goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_IMPORTS = 9
RUN_LIMIT_S = 170.0

IMPORT_PROBE = ("import time; t = time.perf_counter(); import densemahler; "
                "print(time.perf_counter() - t)")

# metric: unit.  Names must match BENCHMARK.json.
END_TO_END = {
    "latency_p50_s": "s", "latency_tail_s": "s", "throughput_ops_s": "1/s",
    "cpu_s": "s", "peak_mem_mb": "MB", "setup_s": "s",
}
COUNT_METRICS = {  # metric: (traced function, field)
    "specfun.cl2_array.calls": ("specfun.cl2_array", "calls"),
    "specfun.cl2_array.angles": ("specfun.cl2_array", "work"),
    "specfun.cl2.calls": ("specfun.cl2", "calls"),
    "mahler_closed.grid_weight_sum.calls": ("mahler_closed.grid_weight_sum", "calls"),
    "polynomials.aberth_roots_batch.calls": ("polynomials.aberth_roots_batch", "calls"),
    "polynomials.aberth_roots_batch.polys": ("polynomials.aberth_roots_batch", "work"),
    "polynomials.slice_coeff_matrix.rows": ("polynomials.slice_coeff_matrix", "work"),
    "polynomials.roots.calls": ("polynomials.roots", "calls"),
    "polynomials.gauss_map.calls": ("polynomials.gauss_map", "calls"),
    "mahler_oracle._jensen_values.calls": ("mahler_oracle._jensen_values", "calls"),
    "mahler_oracle._jensen_values.angles": ("mahler_oracle._jensen_values", "work"),
    "mahler_oracle.primitive_check.points": ("mahler_oracle.primitive_check", "work"),
    "toric.enumerate_toric.calls": ("toric.enumerate_toric", "calls"),
    "toric.enumerate_toric.points": ("toric.enumerate_toric", "work"),
    "volume.vol_array.calls": ("volume.vol_array", "calls"),
    "volume.vol_array.points": ("volume.vol_array", "work"),
    "volume.vol.calls": ("volume.vol", "calls"),
    "limits.riemann_sum.calls": ("limits.riemann_sum", "calls"),
    "limits.error_E.calls": ("limits.error_E", "calls"),
    "cli.main.calls": ("cli.main", "calls"),
}
SELF_TIMES = (
    "specfun.cl2_array", "specfun.cl2", "mahler_closed.grid_weight_sum",
    "mahler_closed.m_closed_aggregated", "mahler_closed.m_closed_volsum",
    "mahler_closed.m_closed_pointwise", "polynomials.aberth_roots_batch",
    "polynomials.slice_coeff_matrix", "polynomials.roots", "polynomials.gauss_map",
    "mahler_oracle._jensen_values", "mahler_oracle.m_oracle",
    "mahler_oracle.primitive_check", "mahler_oracle.eta_path_integral",
    "mahler_oracle.vol_integral_quadrature",
    "toric.enumerate_toric", "volume.vol_array", "volume.vol",
    "limits.limit_report", "cli.main",
)
PROBES = (
    "probe.aggregated.d1000_s", "probe.aggregated.d10000_s",
    "probe.aggregated.d100000_s", "probe.aggregated.d1000000_s",
    "probe.oracle.d10_s", "probe.oracle.d20_s", "probe.oracle.d30_s",
    "probe.volsum.d100_s", "probe.volsum.d300_s",
    "probe.pointwise.d100_s", "probe.pointwise.d300_s",
    "probe.enumerate_toric.d300_s", "probe.cl2_array.n1000000_s",
    "probe.vol_integral_quadrature_s",
    "probe.sweep.default_s", "probe.sweep.single_thread_s",
)
PER_LAYER = {
    **{m: "count" for m in COUNT_METRICS},
    **{f"{name}.self_s": "s" for name in SELF_TIMES},
    "specfun.cl2_array.ns_per_angle": "ns",
    "polynomials.aberth_roots_batch.us_per_poly": "us",
    "mahler_oracle.m_oracle.useful_angle_ratio": "ratio",
    "cli.sweep.rows": "count", "cli.sweep.workers": "count",
    "cli.sweep.parallel_efficiency": "ratio",
    "cli.sweep.single_thread_speedup": "ratio",
    "trace.overhead_frac": "ratio",
    **{p: "s" for p in PROBES},
}


def tail(latencies) -> tuple:
    """(percentile, value): the highest percentile with >= 10 samples beyond it."""
    n = len(latencies)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p, float(np.percentile(latencies, p))
    return 50.0, float(np.median(latencies))


def setup_seconds(env) -> list:
    """Import time of the package in fresh processes (builds its tables)."""
    times = []
    for _ in range(SETUP_IMPORTS):
        res = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(res.stdout.strip().splitlines()[-1]))
    return times


def machine(seed: int) -> dict:
    """Processor, caches and versions, read without changing anything."""
    import densemahler.cli
    import mpmath
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((idx / f).read_text().strip() for f in ("level", "type", "size"))
            caches[f"L{level}-{kind}"] = size
        except OSError:
            pass
    model = ""
    try:
        model = next((line.split(":", 1)[1].strip()
                      for line in Path("/proc/cpuinfo").read_text().splitlines()
                      if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model, "caches": caches,
        "python": platform.python_version(), "numpy": np.__version__,
        "mpmath": mpmath.__version__, "seed": seed,
        "MAHLER_THREADS": os.environ.get("MAHLER_THREADS"),
        "sweep_workers": densemahler.cli._worker_count(),
        "note": ("bytes moved by cl2_array are computed (16 B per angle), not "
                 "measured: an L3 cache as large as the 300 MiB of the reference "
                 "machine holds every closed-large-d array (1e6 doubles is 8 MB)"),
    }


def check_outputs(workload, result) -> dict:
    import checks
    import reference
    refs = checks.References()
    requests = workloads.build(workload, result["seed"])
    verdicts = [checks.check(workload, requests[i], out, refs) for i, out in result["outputs"]]
    failed = violations = bad = 0
    for _, out, _ in result["samples"]:
        v = verdicts[out]
        failed += v.failed is not None
        violations += v.violations
        bad += v.failed is not None or v.violations > 0
    problems = reference.spot_check()
    notes = [f"request {result['outputs'][k][0]}: {v.failed or '; '.join(v.notes)}"
             for k, v in enumerate(verdicts) if v.failed or v.violations]
    oracle_gaps = [v.oracle_minus_closed for v in verdicts if v.oracle_minus_closed is not None]
    return {
        "attempted": len(result["samples"]), "failed_requests": failed,
        "bad_requests": bad, "bound_violations": violations,
        "fail_rate": failed / max(1, len(result["samples"])),
        "values_checked": sum(v.checked for v in verdicts),
        "max_abs_err": max((v.max_abs_err for v in verdicts), default=0.0),
        "max_oracle_minus_closed": max(oracle_gaps, default=None),
        "all_outputs_ok": not any(v.failed or v.violations for v in verdicts),
        "reference_problems": problems, "problems": notes[:20],
    }


def end_to_end(result, setup) -> tuple:
    # Every pass repeats the same requests, so the latency samples form one
    # cluster per request.  Each sample is replaced by the median of its
    # request over the passes before percentiles are taken: a percentile then
    # reads the typical latency of the request it lands on, not machine
    # jitter at the edge of a cluster.
    by_request = {}
    for index, _, latency in result["samples"]:
        by_request.setdefault(index, []).append(latency)
    lat = [statistics.median(v) for v in by_request.values() for _ in v]
    p, tail_value = tail(lat)
    # per pass: the median pass, which a slow spell of the machine moves less
    # than it moves the mean
    passes = result["passes"]
    values = {
        "latency_p50_s": float(np.median(lat)),
        "latency_tail_s": tail_value,
        "throughput_ops_s": len(lat) / len(passes) / statistics.median(ps["busy_s"] for ps in passes),
        "cpu_s": statistics.median(ps["cpu_s"] for ps in passes),
        "peak_mem_mb": result["maxrss_kb"] / 1024.0,
        "setup_s": statistics.median(setup),
    }
    info = {"tail_percentile": p, "latency_samples": len(lat),
            "passes": result["passes"], "samples": result["samples"]}
    return values, info


def per_layer(result) -> tuple:
    layers, probes = result["layers"], result["probes"]
    values = {m: layers[name][field] for m, (name, field) in COUNT_METRICS.items()}
    values.update({f"{name}.self_s": layers[name]["self_s"] for name in SELF_TIMES})
    cl2 = layers["specfun.cl2_array"]
    aberth = layers["polynomials.aberth_roots_batch"]
    solved = layers["mahler_oracle._jensen_values"]["work"]
    # 0 where the layer did no work on this workload
    values["specfun.cl2_array.ns_per_angle"] = 1e9 * cl2["self_s"] / cl2["work"] if cl2["work"] else 0.0
    values["polynomials.aberth_roots_batch.us_per_poly"] = (
        1e6 * aberth["self_s"] / aberth["work"] if aberth["work"] else 0.0)
    values["mahler_oracle.m_oracle.useful_angle_ratio"] = (
        layers["mahler_oracle.m_oracle"]["work"] / solved if solved else 0.0)
    busy = {flag: [p["busy_s"] for p in result["passes"] if p["traced"] == flag]
            for flag in (False, True)}
    values["trace.overhead_frac"] = statistics.median(busy[True]) / statistics.median(busy[False]) - 1.0
    values.update(probes)
    info = {"largest_self_s": max(SELF_TIMES, key=lambda n: layers[n]["self_s"]),
            "min_bytes_cl2_array_per_pass": 16 * cl2["work"],
            "layers": layers, "passes": len(result["passes"])}
    return values, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    # a terminated run raises here, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "densemahler" / "__init__.py").is_file():
        print(f"densemahler sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT_DIR)
    try:
        setup = setup_seconds(env)
        result_path = os.path.join(scratch, "result.json")
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scratch", scratch, "--result", result_path]
        if args.trace:
            cmd += ["--spans", str(OUT_DIR / f"spans-{tag}.npz")]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_LIMIT_S - (time.perf_counter() - started))
        if proc.returncode != 0:
            print(proc.stderr[-4000:], file=sys.stderr)
            print(f"worker exited with code {proc.returncode}", file=sys.stderr)
            return 1
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except subprocess.TimeoutExpired:
        print("worker overran the run limit", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result["seed"] = args.seed
    verdict = check_outputs(args.workload, result)
    if args.trace:
        values, info = per_layer(result)
        units = PER_LAYER
    else:
        values, info = end_to_end(result, setup)
        units = END_TO_END
    correct = verdict["all_outputs_ok"] and not verdict["reference_problems"]
    record = {"workload": args.workload, "trace": args.trace, "correct": correct,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
              "info": info, "checks": verdict, "setup_samples_s": setup,
              "machine": machine(args.seed)}
    with open(OUT_DIR / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, unit in units.items():
        print(f"{name:50s} {values[name]:14.6g} {unit}")
    if "tail_percentile" in info:
        print(f"{'latency_tail_s is the percentile':50s} {info['tail_percentile']} "
              f"of {info['latency_samples']} samples")
    for key in ("attempted", "failed_requests", "bound_violations", "fail_rate",
                "max_abs_err", "max_oracle_minus_closed", "values_checked"):
        print(f"{key:50s} {verdict[key]}")
    for line in verdict["reference_problems"] + verdict["problems"]:
        print(f"problem: {line}")
    print(json.dumps({"correct": correct, "attempted": verdict["attempted"],
                      "failed": verdict["bad_requests"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
