"""Run one workload once per seed and report each end-to-end metric's
median, quartiles and spread (distance between the quartiles over the
median) against its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload penfac-pointmass --seeds 1 2 3
    python3 perfbench/spread.py --workload bandit-suite --random-seeds 10

Runs one at a time, from the root of a checkout; the per-seed results go
to ``.perfbench_out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys

from run import OUT, ROOT


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    seeds = p.add_mutually_exclusive_group(required=True)
    seeds.add_argument("--seeds", type=int, nargs="+")
    seeds.add_argument("--random-seeds", type=int, metavar="N",
                       help="N seeds drawn at random from [0, 2**32)")
    p.add_argument("--seconds", type=int)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]

    runs = []
    if args.seeds is None:
        args.seeds = [random.randrange(2 ** 32)
                      for _ in range(args.random_seeds)]
    for seed in args.seeds:
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(json.dumps(runs[-1]), flush=True)

    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        print(f"{args.workload} {metric['name']}: median={median:.6g} "
              f"q1={q1:.6g} q3={q3:.6g} spread={(q3 - q1) / median:.4f} "
              f"bound={metric['bound']}")
    print(f"{args.workload} failed: "
          f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"spread-{args.workload}.json"), "w") as f:
        json.dump(runs, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
