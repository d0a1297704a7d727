"""Runs one workload: set-up, the timed loop, output checks, and the result.

End-to-end metrics come from an untraced loop. With tracing on, operations
alternate untraced and traced: per-layer metrics come from the traced ones,
and the two rates give the tracing overhead.
"""

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import time

import numpy as np

from . import spans
from .workloads import FULL, WORKLOADS

# Set-up repeats at least 5 times and until it has taken 1 s (at most 50
# times), so that the median of a 10 ms set-up rests on many samples.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_SECONDS = 5, 50, 1.0

# name -> (unit, better); BENCHMARK.json lists the same metrics with their bounds.
END_TO_END = {
    "work_per_s": ("1/s", "higher"),
    "latency_ms_p50": ("ms", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
}

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def code_hash() -> str:
    """Hash of the program and benchmark sources; keys the determinism record."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src", "desklora"), os.path.dirname(os.path.abspath(__file__))):
        for dirpath, _, filenames in sorted(os.walk(top)):
            for name in sorted(filenames):
                if name.endswith((".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def check_determinism(record_path, fingerprint: dict) -> list[str]:
    """Compare with the fingerprint an earlier run of the same code and seed left."""
    if os.path.exists(record_path):
        with open(record_path, "r", encoding="utf-8") as f:
            earlier = json.load(f)
        if earlier != fingerprint:
            changed = sorted(k for k in fingerprint if earlier.get(k) != fingerprint[k])
            return [f"not deterministic: {changed} differ from an earlier run of this code"]
        return []
    os.makedirs(os.path.dirname(record_path), exist_ok=True)
    with open(record_path, "w", encoding="utf-8") as f:
        json.dump(fingerprint, f)
    return []


def _timed_loop(workload, results, seconds, tracer=None):
    """Run operations for about `seconds`: stop once the next one, if it took
    as long as the last, would end more than halfway past the deadline. With
    a tracer, operations alternate untraced and traced, so both rates see the
    same conditions, and there are at least two."""
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        if tracer is not None and len(results) % 2 == 1:
            with tracer.installed():
                results.append(workload.op(len(results)))
        else:
            results.append(workload.op(len(results)))
        now = time.perf_counter()
        if now + (now - t0) / 2 >= deadline and (tracer is None or len(results) >= 2):
            return


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_root: str,
                 sizes=FULL) -> dict:
    """Run one workload and return {"result": ..., "detail": ...}.

    `result` is the object the benchmark prints last; `detail` holds the
    workload's own metric names, input properties, errors and environment.
    The run's fingerprint is compared with (or stored as) the record that
    earlier runs of the same code and seed left under `out_root`/records.
    """
    cls = WORKLOADS[name]
    work_root = os.path.join(out_root, "work", f"{name}-{seed}-{os.getpid()}")
    setup_times = []
    try:
        while len(setup_times) < SETUP_MIN_REPEATS or (
            sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPEATS
        ):
            shutil.rmtree(work_root, ignore_errors=True)
            workload = cls(sizes, seed, work_root)
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)

        results = []
        tracer = spans.Tracer() if trace else None
        _timed_loop(workload, results, seconds, tracer)
        # Read before the checks, whose reference computations are not the workload's.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        errors = workload.check(results)
        record = os.path.join(out_root, "records", f"{code_hash()[:16]}-{name}-{seed}.json")
        fingerprint = json.loads(json.dumps(workload.fingerprint(results)))
        errors[0] = errors[0] + check_determinism(record, fingerprint)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    failed = sum(1 for e in errors if e)
    if trace:
        untraced, traced = results[0::2], results[1::2]
        n_ops = sum(len(r.latencies_ms) for r in traced)
        step_s = sum(sum(r.latencies_ms) for r in traced) / 1e3
        values = spans.derive(tracer, n_ops, sum(r.wall_s for r in traced), step_s)
        values.update(workload.layer_values(results))
        untraced_rate = sum(r.work for r in untraced) / sum(r.wall_s for r in untraced)
        traced_rate = sum(r.work for r in traced) / sum(r.wall_s for r in traced)
        values["trace.untraced_work_per_s"] = untraced_rate
        values["trace.traced_work_per_s"] = traced_rate
        values["trace.overhead"] = untraced_rate / traced_rate - 1.0
        metrics = {n: {"value": float(values.get(n, 0.0)), "unit": u} for n, u in spans.PER_LAYER}
    else:
        latencies = [x for r in results for x in r.latencies_ms]
        values = {
            "work_per_s": sum(r.work for r in results) / sum(r.wall_s for r in results),
            "latency_ms_p50": statistics.median(latencies),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_times),
        }
        metrics = {n: {"value": float(values[n]), "unit": u} for n, (u, _) in END_TO_END.items()}

    detail = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "work_unit": workload.work_unit,
        "operations": len(results),
        "latency_samples": sum(len(r.latencies_ms) for r in results),
        "setup_s_samples": setup_times,
        "summary": workload.summary(results[0::2] if trace else results),
        "properties": workload.properties(),
        "errors": [e for per_op in errors for e in per_op][:20],
        "environment": environment(),
    }
    if tracer is not None:
        detail["spans"] = len(tracer)
        os.makedirs(os.path.join(out_root, "traces"), exist_ok=True)
        tracer.write(os.path.join(out_root, "traces", f"{name}-seed{seed}.csv"))
    result = {"correct": failed == 0, "attempted": len(results), "failed": failed,
              "metrics": metrics}
    return {"result": result, "detail": detail}
