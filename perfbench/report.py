"""Run every workload once and print its end-to-end metrics in one table.

    python3 perfbench/report.py [--seed 1] [--seconds 28]

Each workload's own report (environment record, failed operations) is printed
as it finishes; the table at the end has wall_s, setup_s, peak_rss_mb,
fail_share and ok_share for every workload.  Per-layer metrics come from
`run.py --trace 1`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from inputs import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))

COLUMNS = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
           ("fail_share", "ratio"), ("ok_share", "ratio"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=28)
    args = ap.parse_args()
    rows = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"{workload}: run.py exited with {out.returncode}")
            return 1
        print("\n".join(line for line in lines[:-1]
                        if not line.startswith("numpy_show_config")) + "\n")
        res = json.loads(lines[-1])
        m = {k: v["value"] for k, v in res["metrics"].items()}
        m["fail_share"] = res["failed"] / res["attempted"]
        rows[workload] = m
    print("workload  " + "  ".join(f"{name} [{unit}]".rjust(18) for name, unit in COLUMNS))
    for workload, m in rows.items():
        print(f"{workload:<8}  " + "  ".join(f"{m[name]:18.6g}" for name, _ in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
