"""One workload in one process; started by run.py with BLAS threads pinned.

Prints `READY` once set-up is done (so the parent can time it), then, unless
`--setup-only`, runs whole rounds until `--seconds` have passed, checks the
outputs and prints one JSON line with the counts and metrics.

With `--trace 1` round 0 runs untraced to warm up and every later round is
traced, at least one.  The per-layer metrics are per traced round.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="file for the spans of a traced run")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import bilbt

    source = os.path.realpath(os.path.join(os.getcwd(), "src", "bilbt"))
    if os.path.dirname(os.path.realpath(bilbt.__file__)) != source:
        sys.stderr.write(f"bilbt imported from {bilbt.__file__}, not from {source}\n")
        return 2

    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = run(workload, args.seconds, args.trace, args.spans)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def run(workload, seconds, trace, spans_path):
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    round_times, attempted, failed = [], 0, 0
    start = time.perf_counter()
    index = 0
    while True:
        if tracer is not None and index >= 1:
            tracer.begin_round()  # round 0 warms up untraced
        t0 = time.perf_counter()
        ops, bad = workload.run_round(index)
        round_times.append(time.perf_counter() - t0)
        attempted, failed = attempted + ops, failed + bad
        index += 1
        if (time.perf_counter() - start >= seconds
                and (tracer is None or index >= 2)):
            break
    if tracer is not None:
        tracer.enabled = False
    # before the checks, whose reference integrations are the benchmark's own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = workload.check()
    result = {"attempted": attempted, "failed": failed, "problems": problems,
              "failures": sorted(workload.failures),
              "rounds": len(round_times), "round_times": round_times}
    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(round_times), "s"),
            "cases_per_s": (attempted / sum(round_times), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        metrics.update(workload.metrics(round_times))
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        peaks = tracer.replay_allocations()
        result["metrics"] = tracer.layer_metrics(len(round_times) - 1, peaks,
                                                 workload.layer_extra())
        if spans_path:
            tracer.write_spans(spans_path)
    return result


if __name__ == "__main__":
    sys.exit(main())
