"""One workload process: set-up, timed passes, checks, optional trace.

Started by run.py with the BLAS thread count already pinned in the
environment, so numpy starts with it.  With --setup-only it prints `ready`
once the program is imported and every input is parsed and validated, and
exits; run.py times that from process start.  Otherwise the last line of its
output is one JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import specdiff  # noqa: E402  (after the path set-up above)

import inputs  # noqa: E402
import ops  # noqa: E402
import tracing  # noqa: E402

MAX_LISTED_FAILURES = 20


def setup(workload, seed, out_root):
    ops_ = [ops.Op(i, spec, out_root)
            for i, spec in enumerate(inputs.generate(workload, seed)["ops"])]
    for op in ops_:
        diags = op.validate()
        if diags:
            raise SystemExit(f"invalid benchmark input ({op.label}): {diags}")
    return ops_


def environment(requested_threads):
    import numpy
    import scipy
    cfg = numpy.show_config(mode="dicts")
    blas = cfg["Build Dependencies"]["blas"]
    with open("/proc/self/status") as fh:
        threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    with open("/proc/self/maps") as fh:
        blas_libs = {line.split()[-1] for line in fh
                     if "openblas" in line.lower() and ".so" in line}
    # each OpenBLAS copy runs (requested - 1) worker threads beside the main thread
    expected = 1 + (requested_threads - 1) * max(1, len(blas_libs))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "specdiff": specdiff.__version__,
        "nproc": os.cpu_count(),
        "blas_threads_requested": requested_threads,
        "blas_libraries_loaded": len(blas_libs),
        "os_threads": threads,
        "os_threads_expected": expected,
        "threads_mismatch": threads != expected,
        "numpy_show_config": cfg,
    }


def run_pass(ops_, tracer=None):
    """Run every op once; returns (wall seconds, outputs)."""
    outputs = []
    start = perf_counter()
    for i, op in enumerate(ops_):
        if tracer is not None:
            tracer.op = i
        outputs.append(op.execute())
    return perf_counter() - start, outputs


def check_pass(ops_, outputs):
    return [verdict for op, out in zip(ops_, outputs) for verdict in op.check(out)]


def extrap_ok_ratio(ops_, outputs):
    """Extrapolated boundary values that pass their check ÷ attempted; 0 if none."""
    verdicts = [msg for op, out in zip(ops_, outputs) if op.call == "extrapolated"
                for _, msg in op.check(out)]
    return sum(msg is None for msg in verdicts) / len(verdicts) if verdicts else 0.0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="scratch directory for program outputs")
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ops_ = setup(args.workload, args.seed, args.out)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    env = environment(args.threads)
    for op in ops_:
        op.prepare()
    attempted = sum(op.points for op in ops_)

    walls, verdicts = [], None
    consistent = True
    budget = args.seconds / 2 if args.trace else args.seconds
    start = perf_counter()
    # start another pass only when a median-length pass still fits in the budget
    while not walls or perf_counter() - start + statistics.median(walls) <= budget:
        wall, outputs = run_pass(ops_)
        walls.append(wall)
        got = check_pass(ops_, outputs)
        consistent &= verdicts is None or got == verdicts
        verdicts = got

    result = {"walls": walls, "attempted": attempted, "environment": env}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_wall, outputs = run_pass(ops_, tracer)
        finally:
            tracer.uninstall()
        got = check_pass(ops_, outputs)
        consistent &= got == verdicts
        metrics = tracing.layer_metrics(tracer.spans, traced_wall)
        untraced = statistics.median(walls)
        metrics["trace.overhead_share"] = (traced_wall - untraced) / untraced
        metrics["resolvent.extrap_ok_ratio"] = extrap_ok_ratio(ops_, outputs)
        tracer.write_csv(os.path.join(os.path.dirname(args.out), f"{args.workload}.spans.csv"))
        result["layers"] = metrics
    failures = [(label, msg) for label, msg in verdicts if msg is not None]
    result.update({
        "failed": len(failures),
        "failures": failures[:MAX_LISTED_FAILURES],
        "checked": len(verdicts),
        "consistent": consistent,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
