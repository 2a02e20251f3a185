"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/steadiness.py --workload series --seeds 1-10 [--trace 0]

Runs perfbench/run.py once per seed, one run at a time, and prints each
metric's median and its spread: the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median.  It also
prints the failed share of every run, which must be the same in all of them.
Each end-to-end spread, setup_s aside, should stay under a third of the
metric's bound in BENCHMARK.json.  Last come the per-op medians over all
runs, read from the per-op lines run.py writes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="a range 1-10 or a list 3,5,8")
    p.add_argument("--trace", default="0", choices=("0", "1"))
    args = p.parse_args()
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    op_times: dict[str, list[float]] = {}
    shares = set()
    for seed in seed_list(args.seeds):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", args.trace],
            cwd=root, capture_output=True, text=True)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        shares.add((result["failed"], result["attempted"], result["correct"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for line in done.stderr.splitlines():
            # "perfbench: <op>: <round 1>, <round 2> s"
            op, sep, times = line.removeprefix("perfbench: ").rpartition(": ")
            if sep and times.endswith(" s") and op.count(":") == 0:
                try:
                    rounds = [float(t) for t in times[:-2].split(", ")]
                except ValueError:
                    continue
                op_times.setdefault(op, []).append(statistics.median(rounds))
        shown = ", ".join(f"{name} {m['value']:.4g}" for name, m in result["metrics"].items()
                          if name in bounds)
        print(f"seed {seed}: {time.monotonic() - start:.1f} s, correct {result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}; {shown}", flush=True)
    print(f"{args.workload}: failed/attempted/correct over all runs: {sorted(shares)}")
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) < 2 or med == 0:
            continue
        q1, _, q3 = statistics.quantiles(vs, n=4)
        bound = bounds.get(name)
        limit = f" (bound {bound}, third {bound / 3:.3f})" if bound else ""
        print(f"  {name}: median {med:.6g}, spread {(q3 - q1) / med:.4f}{limit}")
    for op, ts in op_times.items():
        print(f"  op {op}: median {statistics.median(ts):.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
