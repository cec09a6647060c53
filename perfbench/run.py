"""The bilbt benchmark.

    python3 perfbench/run.py --workload {campaign,reduce,simulate-wide} \\
        --seed N --seconds S --trace {0,1}

Run it from the repository root: it imports `bilbt` from `src/` there.  Each
workload runs in a child process of its own with BLAS and OpenMP threads
pinned to 1.  Set-up (process start, `import bilbt`, making and writing the
inputs) is timed in SETUP_SAMPLES children and reported as the median.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics with `--trace 1`.  The lines before it name every
metric with its unit, including the workload's own metrics, and the
environment.  A record of the run goes to perfbench/out/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("campaign", "reduce", "simulate-wide")
SETUP_SAMPLES = 11
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb", "cases_per_s")


class ChildError(RuntimeError):
    pass


def child_env(root):
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def start_child(args, root, env, workdir, deadline, setup_only, spans=None):
    """Start one child, to be killed at `deadline`; return (process, timer,
    seconds until it printed READY)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        finish(proc, timer)
        raise ChildError(f"child set-up failed (exit {proc.returncode})")
    return proc, timer, ready


def finish(proc, timer):
    """Read the rest of the child's output, wait for it, stop its timer."""
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    return out


def environment(root):
    import numpy
    import scipy

    try:
        # the ceiling keeps git from looking for a repository above the root
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, text=True,
                             capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "bilbt")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "child_threads": {var: "1" for var in THREAD_VARS},
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bilbt", "__init__.py")):
        sys.stderr.write("src/bilbt not found: run from the repository root\n")
        return 2
    started = time.monotonic()
    deadline = started + DEADLINE_S
    out = os.path.join(HERE, "out")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for sub in ("work", "results", "traces"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    env = child_env(root)

    setup = []
    try:
        for i in range(SETUP_SAMPLES - 1):
            proc, timer, ready = start_child(
                args, root, env, os.path.join(out, "work", f"{tag}-setup{i}"),
                deadline, setup_only=True)
            finish(proc, timer)
            if proc.returncode != 0:
                raise ChildError(f"set-up child exited with {proc.returncode}")
            setup.append(ready)
        spans = os.path.join(out, "traces", f"{tag}.jsonl") if args.trace else None
        proc, timer, ready = start_child(args, root, env, os.path.join(out, "work", tag),
                                         deadline, setup_only=False, spans=spans)
        setup.append(ready)
        lines = finish(proc, timer).strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildError(f"workload child exited with {proc.returncode}")
        child = json.loads(lines[-1])
    except ChildError as exc:
        sys.stderr.write(f"{exc}\n")
        return 3

    env_record = environment(root)
    shown = dict(child["metrics"])
    if not args.trace:
        shown["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        reported = {name: shown[name] for name in END_TO_END}
    else:
        reported = shown
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "elapsed_s": time.monotonic() - started,
              "environment": env_record, "setup_samples": setup,
              "rounds": child["rounds"], "round_times": child["round_times"],
              "failures": child["failures"], "problems": child["problems"],
              "metrics": shown}
    with open(os.path.join(out, "results", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("environment " + json.dumps(env_record, sort_keys=True))
    print(f"rounds {child['rounds']}  attempted {child['attempted']}  "
          f"failed {child['failed']}")
    for failure in child["failures"]:
        print(f"FAILED {failure}")
    for problem in child["problems"]:
        print(f"PROBLEM {problem}")
    for name, metric in shown.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": not child["problems"], "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
