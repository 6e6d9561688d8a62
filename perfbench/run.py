#!/usr/bin/env python3
"""Repo benchmark: builds perfbench from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload scale --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR, or .bench_build when it is unset. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones (see perfbench/NOTES.md).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("scale", "paper", "robust")
# One run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds perfbench; returns the binary's path."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", build_dir, "-j", jobs]]
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("build.ninja", "Makefile")):
        steps.insert(0, configure)
    with open(log_path, "w") as log:
        for cmd in steps:
            status = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            if status.returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.exit("perfbench: build failed (log: %s)" % log_path)
    return os.path.join(build_dir, "perfbench")


def pinned_digest(workload, seed):
    with open(os.path.join(HERE, "pinned.json")) as f:
        pinned = json.load(f)
    return pinned["digests"].get(workload, {}).get(str(seed))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("perfbench: --seed must be >= 0 and --seconds > 0")

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--workdir", build_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        sys.exit("perfbench: run failed with exit code %d" % proc.returncode)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    result = json.loads(lines[-1])

    correct = result["correct"]
    expected = pinned_digest(args.workload, args.seed)
    if expected is not None and expected != result["digest"]:
        print("check failed: digest %s != pinned %s for seed %d"
              % (result["digest"], expected, args.seed))
        correct = False
    elif expected is not None:
        print("digest matches the pinned value for seed %d" % args.seed)
    attempted = result["attempted"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": result["failed"] if correct else attempted,
        "metrics": result["metrics"],
    }))


if __name__ == "__main__":
    main()
