"""specdiff benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (the program is imported from src/).
The run times SETUP_SPAWNS fresh processes from start until the program is
imported and the workload's configs are parsed and validated (setup_s is their
median); half of them run before the workload and half after, so that the
median samples the host over the whole run.  The workload runs in one fresh
process, with the BLAS thread count pinned through the environment before
numpy loads, repeating the workload's fixed list of operations for --seconds
and checking every output.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
one traced pass (after untraced passes that give the tracing overhead).
Human-readable lines come first; the last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exit code 0 on success, 2
when the program source is missing, 1 when a process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

from inputs import WORKLOADS
from tracing import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_THREADS = 2
SETUP_SPAWNS = 9
SETUP_TIMEOUT_S = 60
WORKER_GRACE_S = 120
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def pinned_env(threads):
    env = dict(os.environ)
    env.update({var: str(threads) for var in THREAD_VARS})
    return env


def time_setup(cmd, env):
    """Seconds from process start until the worker reports `ready`."""
    start = perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.close()
        code = proc.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up process failed (exit {code})")
    return elapsed


def metrics_of(res, setup_s, trace):
    if trace:
        return {name: {"value": value, "unit": unit_of(name)}
                for name, value in sorted(res["layers"].items())}
    attempted = res["attempted"]
    return {
        "wall_s": {"value": statistics.median(res["walls"]), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        "ok_share": {"value": (attempted - res["failed"]) / attempted, "unit": "ratio"},
    }


def unit_of(name):
    tail = name.rsplit(".", 1)[1]
    return {"busy_s": "s", "self_s": "s", "wall_s": "s", "unattributed_s": "s",
            "dense_n3": "n3_computed", "arg_bytes": "B_computed", "bytes": "B_computed",
            "builds_per_point": "ratio", "eigs_per_rung": "ratio",
            "extrap_ok_ratio": "ratio", "overhead_share": "ratio"}.get(tail, "count")


def report(args, res, setup_times, metrics):
    env = res["environment"]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps({k: v for k, v in env.items()
                                        if k != "numpy_show_config"}, sort_keys=True))
    print("numpy_show_config: " + json.dumps(env["numpy_show_config"], sort_keys=True))
    if env["threads_mismatch"]:
        print(f"WARNING: {env['os_threads']} OS threads in the workload process, "
              f"{env['os_threads_expected']} expected for "
              f"{env['blas_threads_requested']} BLAS threads")
    walls = ", ".join(f"{w:.4f}" for w in res["walls"])
    print(f"untraced passes: {len(res['walls'])} [{walls}] s; set-up runs: "
          + ", ".join(f"{t:.4f}" for t in setup_times) + " s")
    attempted, failed = res["attempted"], res["failed"]
    print(f"fail_share = {failed / attempted:.6f} ratio ({failed} of {attempted} "
          f"operations per pass failed a check or raised)")
    for label, msg in res["failures"]:
        print(f"  FAILED {label}: {msg}")
    if failed > len(res["failures"]):
        print(f"  ... {failed - len(res['failures'])} more")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        layers = res["layers"]
        share = {layer: layers[f"{layer}.self_s"] / layers["trace.wall_s"] for layer in LAYERS}
        ranked = sorted(share.items(), key=lambda kv: -kv[1])
        print("self-time shares of the traced pass: "
              + ", ".join(f"{k} {v:.1%}" for k, v in ranked)
              + f", unattributed {layers['trace.unattributed_s'] / layers['trace.wall_s']:.1%}")
        print(f"dominant layer: {ranked[0][0]}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "specdiff", "__init__.py")):
        print("perfbench: src/specdiff not found; run from a specdiff source checkout",
              file=sys.stderr)
        return 2

    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    env = pinned_env(threads)
    out_root = os.path.join(ROOT, ".perfbench_out", f"{args.workload}-{os.getpid()}")
    os.makedirs(out_root, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", out_root, "--threads", str(threads)]
    try:
        setup_times = [time_setup(cmd + ["--setup-only"], env)
                       for _ in range(SETUP_SPAWNS // 2)]
        proc = subprocess.run(cmd + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                              env=env, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + WORKER_GRACE_S)
        setup_times += [time_setup(cmd + ["--setup-only"], env)
                        for _ in range(SETUP_SPAWNS - SETUP_SPAWNS // 2)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    if proc.returncode != 0:
        print(f"perfbench: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = metrics_of(res, statistics.median(setup_times), args.trace)
    report(args, res, setup_times, metrics)
    # correct: every attempted point was checked, and repeated passes on the
    # same inputs gave the same verdicts; check failures are counted in failed
    correct = res["checked"] == res["attempted"] and res["consistent"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
