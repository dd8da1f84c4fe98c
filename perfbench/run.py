#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from the checkout and runs one workload.

    python3 perfbench/run.py --workload oneshot|dse-sweep|service \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; every run gets a fresh
working directory there, removed afterwards. The last line of standard
output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics, or with --trace 1 the per-layer metrics.
The line before it is the run record: workload, seed, host and build tags.
A traced run also leaves trace.json (Chrome trace events, opens in
Perfetto) and layers.tsv (per-layer self time) in
<build dir>/perfbench-traces/<workload>-seed<N>/.

Exit status is 0 when a result was printed, non-zero (and no result) when
the build or the run failed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oneshot", "dse-sweep", "service")
RUN_TIMEOUT_S = 170
# Seed kept out of tuning; confirm a claimed gain on it as well.
HELD_OUT_SEED = 977


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def nproc():
    return len(os.sched_getaffinity(0))


def cmake_cache(build_dir):
    cache = {}
    path = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    return cache


def sanitized(cache):
    flags = " ".join(v for k, v in cache.items()
                     if k.startswith(("CMAKE_CXX_FLAGS", "CMAKE_EXE_LINKER_FLAGS")))
    flags += " " + os.environ.get("CXXFLAGS", "") + " " + os.environ.get("LDFLAGS", "")
    return "-fsanitize" in flags


def build(build_dir):
    """Configures (once) and builds perfbench + swiftsimd; False on failure."""
    out = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"], stdout=out, stderr=out)
        if r.returncode != 0:
            return False
    r = subprocess.run(["cmake", "--build", build_dir, "-j", str(min(nproc(), 4)),
                        "--target", "perfbench", "swiftsimd"], stdout=out, stderr=out)
    return r.returncode == 0


def first_line(cmd):
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=20)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = r.stdout.strip().splitlines()
    return lines[0] if r.returncode == 0 and lines else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def record(args, cache, threads):
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "threads": threads,
        "cpu_model": cpu_model(),
        "compiler": first_line([compiler, "--version"]) or compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "git_describe": (first_line(["git", "describe", "--always", "--dirty", "--tags"])
                         or "unknown (not a git checkout)"),
        "caches": "modelled caches start empty for every application; "
                  "process-global memo/profile caches are emptied before each timed call",
    }


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None without it."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(args, build_dir):
    runs = os.path.join(build_dir, "perfbench-runs")
    tmp = os.path.join(runs, f"{args.workload}-{args.seed}-{os.getpid()}")
    out = os.path.join(build_dir, "perfbench-traces", f"{args.workload}-seed{args.seed}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    os.makedirs(out, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", tmp, "--out", out,
           "--swiftsimd", os.path.join(build_dir, "swiftsimd")]
    # Own process group, so the forked daemon goes down with perfbench.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return None, out
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        log(f"{args.workload} exited with status {proc.returncode}")
        return None, out
    lines = [line for line in stdout.splitlines() if line.strip()]
    return (json.loads(lines[-1]) if lines else None), out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.join(build_root(), "perfbench")
    start = time.monotonic()
    if not build(build_dir):
        log("build failed")
        return 1
    cache = cmake_cache(build_dir)
    if sanitized(cache):
        log("refusing to report timings from a sanitizer build")
        return 3
    log(f"build ready in {time.monotonic() - start:.1f} s")

    result, out = run(args, build_dir)
    if result is None:
        return 1
    failures = result.pop("failures", [])
    threads = result.pop("threads", None)
    for f in failures:
        log(f"check failed: {f}")
    expected = expected_metrics(args.trace)
    if expected is not None and sorted(expected) != sorted(result["metrics"]):
        log("reported metrics do not match BENCHMARK.json")
        return 1

    rec = record(args, cache, threads)
    with open(os.path.join(out, f"record-trace{args.trace}.json"), "w") as f:
        json.dump({"record": rec, "result": result}, f, indent=1)
    print(json.dumps({"record": rec}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
