"""Benchmark harness for the monet toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the toolkit is imported from its
``src`` directory.  A run sets up the workload's inputs from the seed
(several times, reporting the median as ``setup_s``), warms up, then
repeats the workload's unit operation for at least ``--seconds`` seconds
and checks every output.  Times are reported at reference machine speed
(see ``calibrate.py``); raw wall times are printed alongside.  ``--trace 1``
measures the first half of the window untraced and the second half with span
wrappers installed, and reports the per-layer split instead of the
end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files and
span dumps go under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# numpy's bundled OpenBLAS is threaded; pin it before numpy is imported so a
# 2-core box measures the same single-threaded kernels on every run.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
TAIL_BEYOND = 10


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="monet benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def import_toolkit():
    """Import the toolkit from this checkout, then the harness modules that
    need it; returns (namespace of modules, seconds taken)."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import numpy
    import monet
    import monet.cli
    import monet.gradcheck
    if not os.path.abspath(monet.__file__).startswith(SRC + os.sep):
        raise ImportError(f"monet resolved to {monet.__file__}, not under {SRC}")
    import calibrate
    import inputs
    import metrics
    import tracing
    import workloads
    mods = argparse.Namespace(np=numpy, calibrate=calibrate, inputs=inputs, metrics=metrics,
                              tracing=tracing, workloads=workloads)
    return mods, time.perf_counter() - start


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples above it
    (the maximum when there are too few samples): (value, percentile, n)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "monet", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def blas_threads(np) -> int | None:
    import ctypes
    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


def environment(np) -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"env nproc={os.cpu_count()} usable_cpus={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas.get('name')}-{blas.get('version')} blas_threads={blas_threads(np)} "
            + " ".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS))


def measure(wl, speedo, seconds: float, first: int, tracer=None) -> list:
    """Closed loop, one client: run operations until ``seconds`` have
    passed, stopping only on a whole cycle of the workload's inputs.  Each
    part of an operation is scaled to reference speed by the kernel samples
    taken during it and at its two ends."""
    ops = []
    start = since = speedo.boundary()
    i = first
    while True:
        if tracer is not None:
            tracer.op = i
        parts = []
        for part in wl.parts(i):
            op = part()
            until = speedo.boundary()
            op.scaled = op.seconds * speedo.scale(since, until)
            since = until
            parts.append(op)
        ops.append(type(parts[0]).merge(parts))
        i += 1
        if speedo.clock() - start >= seconds and i % wl.cycle == 0:
            return ops


def cycle_throughputs(ops: list, cycle: int) -> list[float]:
    """Sequences per reference-speed second of each whole cycle."""
    groups = [ops[i:i + cycle] for i in range(0, len(ops), cycle)]
    return [sum(op.seqs for op in g) / sum(op.scaled for op in g) for g in groups]


def recorded_count_failures(workload: str, counts: dict) -> list[str]:
    """Exact counts must repeat on every run of the same source tree."""
    with open(os.path.join(HERE, "counts.json"), encoding="utf-8") as f:
        recorded = json.load(f).get(source_digest(), {}).get(workload)
    if recorded is None:
        print("counts: no record for this source tree; not compared")
        return []
    return [f"exact count {name} = {value!r}, recorded {recorded[name]!r}"
            for name, value in counts.items() if name in recorded and recorded[name] != value]


def traced_count_failures(tracer, workload: str, counts: dict) -> list[str]:
    """Exact counts must also agree across the operations of one run."""
    failures = []
    nodes = {s.info["nodes"] for s in tracer.spans if s.name == "tensor.backward"}
    if workload.startswith("train-") and len(nodes) != 1:
        failures.append(f"tape nodes per step vary within the run: {sorted(nodes)}")
    per_op: dict[int, int] = {}
    for s in tracer.spans:
        if s.name == "cells.forward":
            per_op[s.op] = per_op.get(s.op, 0) + 1
    if workload == "infer-two-stream" and len(set(per_op.values())) != 1:
        failures.append(f"forward calls per request vary: {sorted(set(per_op.values()))}")
    if workload == "gradcheck-suite" and set(per_op.values()) != {counts["gradcheck.forward_evals"]}:
        failures.append(f"traced forward evaluations per pass {sorted(set(per_op.values()))} "
                        f"!= computed {counts['gradcheck.forward_evals']}")
    return failures


def end_to_end(run: argparse.Namespace) -> dict[str, float]:
    scaled = [op.scaled for op in run.ops]
    tail_s, pct, n = tail(scaled)
    raw = [op.seconds for op in run.ops]
    print(f"op = one {run.wl.unit}; {n} ops timed; op_ms_tail is p{pct:.2f} of {n} samples"
          + (" (the maximum: too few samples)" if n <= TAIL_BEYOND else ""))
    print(f"raw wall time: op_ms_p50 {1e3 * statistics.median(raw):.6g} ms, "
          f"op_ms_tail {1e3 * tail(raw)[0]:.6g} ms, import {run.import_s:.4f} s, "
          f"set-ups {[round(t, 4) for t in run.setup_times]} s")
    return {"seq_per_s": statistics.median(cycle_throughputs(run.ops, run.wl.cycle)),
            "op_ms_p50": 1e3 * statistics.median(scaled),
            "op_ms_tail": 1e3 * tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": run.import_scaled + statistics.median(run.setup_scaled)}


def per_layer(run: argparse.Namespace, mods, workload: str, seed: int) -> dict[str, float]:
    tracer = run.tracer
    units = tracer.step if workload.startswith("train-") else len(run.traced)
    window = sum(op.seconds for op in run.traced)
    entries = [f"{f}-L{n}" for f, n in mods.inputs.GRADCHECK_SUITE]
    layer = mods.tracing.run_metrics(tracer, units, window, entries)
    layer.update(mods.tracing.setup_metrics(run.setup_tracer, SETUP_REPEATS))
    per_seq = lambda group: sum(op.scaled for op in group) / sum(op.seqs for op in group)
    layer["trace_overhead_ratio"] = per_seq(run.traced) / per_seq(run.ops) - 1.0
    layer["training.val_mse"] = getattr(run.wl, "first_val_mse", None) or 0.0
    layer["cells.madds_per_seq"] = run.wl.counts()["cells.madds_per_seq"]
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.jsonl")
    tracer.write(path)
    print(f"spans: {len(tracer.spans)} written to {path}")
    clips = sum(1 for s in tracer.spans if s.name == "training.clip")
    print(f"training.clip_fired_ratio base: {clips} clip calls")
    return {name: layer[name] for name in mods.metrics.PER_LAYER}


def execute(args, mods, import_s: float) -> argparse.Namespace:
    """Set up, warm up and measure; everything the report needs."""
    calibrate, tracing = mods.calibrate, mods.tracing
    run = argparse.Namespace(import_s=import_s, setup_times=[], setup_scaled=[], traced=[],
                             tracer=None, setup_tracer=None)
    plan = mods.inputs.make_plan(args.workload, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        with calibrate.Speedometer() as speedo:
            since = speedo.boundary()
            run.import_scaled = import_s * speedo.scale(since, since)
            run.wl = mods.workloads.make_workload(args.workload, plan, workdir, speedo.clock)
            if args.trace:
                run.setup_tracer = tracing.Tracer(speedo.clock).install()
            for _ in range(SETUP_REPEATS):
                start = speedo.clock()
                run.wl.setup()
                run.setup_times.append(speedo.clock() - start)
                until = speedo.boundary()
                run.setup_scaled.append(run.setup_times[-1] * speedo.scale(since, until))
                since = until
            if run.setup_tracer is not None:
                run.setup_tracer.uninstall()
            run.wl.warm_up()
            if args.trace:
                run.ops = measure(run.wl, speedo, args.seconds / 2, 0)
                run.tracer = tracing.Tracer(speedo.clock).install()
                try:
                    run.traced = measure(run.wl, speedo, args.seconds / 2, len(run.ops), run.tracer)
                finally:
                    run.tracer.uninstall()
            else:
                run.ops = measure(run.wl, speedo, args.seconds, 0)
        kernel = [k for _, k in speedo.samples]
        print(f"calibration kernel: median {1e3 * statistics.median(kernel):.4f} ms over "
              f"{len(kernel)} samples, reference {1e3 * calibrate.REFERENCE_S} ms")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return run


def run_workload(args) -> int:
    try:
        mods, import_s = import_toolkit()
    except ImportError as e:
        print(f"error: cannot import the toolkit from {SRC}: {e}", file=sys.stderr)
        return 2
    if args.workload not in mods.inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(mods.inputs.WORKLOADS)} or all", file=sys.stderr)
        return 2
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(environment(mods.np))
    run = execute(args, mods, import_s)

    ops = run.ops + run.traced
    failures = [f for op in ops for f in op.failures]
    if args.trace:
        values = per_layer(run, mods, args.workload, args.seed)
        counts = {k: values[k] for k in mods.metrics.EXACT_COUNTS}
        count_failures = traced_count_failures(run.tracer, args.workload, run.wl.counts())
    else:
        values = end_to_end(run)
        counts = run.wl.counts()
        count_failures = []
    count_failures += recorded_count_failures(args.workload, counts)
    failures += count_failures
    # The exact-count check counts as one more checked operation.
    attempted = sum(op.attempted for op in ops) + 1
    failed = sum(op.failed for op in ops) + min(1, len(count_failures))
    print("counts " + json.dumps(counts, sort_keys=True))
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} checked operations, "
          f"counting the exact-count check as one)")
    unit_of = mods.metrics.unit_of
    for name, value in values.items():
        print(f"metric {name} = {value:.6g} {unit_of(name)}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit_of(name)}
                                  for name, value in values.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one combined table."""
    import inputs
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in inputs.WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(f"{'workload/metric':<58} {'value':>14} unit")
    for key, value in combined["metrics"].items():
        print(f"{key:<58} {value['value']:>14.6g} {value['unit']}")
    print(f"failed_ratio {combined['failed'] / combined['attempted']:.6g} "
          f"({combined['failed']} of {combined['attempted']} checked operations)")
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
