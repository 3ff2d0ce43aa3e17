"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload manuscript --runs 10 --seconds 10

Runs run.py once per seed (seeds first-seed, first-seed + 1, ...) from the
root of a checkout and prints, for each end-to-end metric, the median, the
quartiles and their distance as a share of the median, next to the bound
that BENCHMARK.json allows.  A spread is marked "steady" below a third of
its bound, setup_s's too, although only the median of setup_s is held to
its bound between two sets of runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["end_to_end"]
    for workload in args.workload:
        values = {d["name"]: [] for d in declared}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed={seed} {time.perf_counter() - start:.1f}s "
                  f"correct={result['correct']} failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                  flush=True)
        for d in declared:
            q1, median, q3 = statistics.quantiles(values[d["name"]], n=4)
            share = (q3 - q1) / median
            verdict = "steady" if share < d["bound"] / 3 else "NOT steady"
            print(f"  {workload:<10} {d['name']:<12} median={median:<12.5g} q1={q1:<12.5g} "
                  f"q3={q3:<12.5g} spread={share:6.1%} bound={d['bound']:.0%} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
