"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload fresh_q --seeds 1-10 [--seconds 10]

Runs ``run.py`` once per seed (tracing off) and prints, per metric, the
median, the quartiles and their distance as a share of the median, next to
the metric's bound from BENCHMARK.json.  The benchmark is steady when each
spread other than ``setup_s`` stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import bench_stats

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,9")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    ok = True
    for workload in args.workload:
        values: dict[str, list] = {}
        for seed in parse_seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            ok &= done.returncode == 0 and result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for spec in bench["end_to_end"]:
            vals = values[spec["name"]]
            q1, med, q3 = bench_stats.quartiles(vals)
            share = bench_stats.spread(vals)
            steady = spec["name"] == "setup_s" or share < spec["bound"] / 3
            print(f"{workload} {spec['name']}: median {med:.5g} {spec['unit']}, "
                  f"quartiles {q1:.5g}..{q3:.5g}, spread {share:.3f} "
                  f"(bound {spec['bound']}) {'steady' if steady else 'NOT STEADY'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
