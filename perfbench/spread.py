"""Run the benchmark on several seeds and summarise each metric.

    python3 perfbench/spread.py --workload reduce --seeds 1-10 --seconds 25

Runs perfbench/run.py untraced once per seed, one run at a time, from the
repository root.  For each end-to-end metric prints the median, the first
and third quartiles (`statistics.quantiles(values, n=4)`), the spread
(q3 - q1) / median and the share of the metric's bound in BENCHMARK.json
that the spread uses.  The runs' result lines go to
perfbench/out/spread-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(runs, bounds):
    rows = []
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        unit = runs[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
        spread = (q3 - q1) / med if med else float("nan")
        rows.append({"name": name, "unit": unit, "median": med, "q1": q1, "q3": q3,
                     "spread": spread, "share_of_bound": spread / bounds[name]})
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_list)
    parser.add_argument("--seconds", required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"seed {seed}: run.py exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
    out = os.path.join(HERE, "out", f"spread-{args.workload}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    rows = summarise(runs, bounds)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"runs": runs, "summary": rows}, fh, indent=1)
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}")
    for row in rows:
        print(f"{row['name']:<24} median {row['median']:.6g} {row['unit']}  "
              f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {row['spread']:.4f}  "
              f"{row['share_of_bound']:.2f} of bound")


if __name__ == "__main__":
    main()
