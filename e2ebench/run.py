#!/usr/bin/env python3
"""Build and run the end-to-end invoke benchmark.

    python3 e2ebench/run.py --workload ull_steady --seed 1 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --selftest

Run from the repository root. The first call configures and builds the
benchmark (and the libraries it measures) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only rebuild what changed.
The last line of standard output is the benchmark's JSON result; with
--workload all one JSON line is printed per workload.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ull_steady", "azure_mix", "chain_fused"]
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(os.getcwd(), base)
    return os.path.join(base, "e2ebench")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the HORSE sources (src/) are missing next to " + HERE)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for step in steps:
        # Build chatter goes to stderr: stdout is reserved for results.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step), 3)
    return out


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it is present."""
    manifest = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(manifest):
        return None
    with open(manifest) as handle:
        spec = json.load(handle)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_one(binary, args, workload):
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(workload + ": no result within %d s" % RUN_TIMEOUT_S, 4)
    lines = done.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    if done.returncode not in (0, 1) or not lines[-1].startswith("{"):
        fail("%s: benchmark exited with %d" % (workload, done.returncode), 5)
    result = json.loads(lines[-1])
    declared = expected_metrics(args.trace)
    if declared is not None:
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        if emitted != declared:
            fail("%s: emitted metrics differ from BENCHMARK.json: %s" %
                 (workload, sorted(set(emitted.items()) ^
                                   set(declared.items()))), 6)
    print(lines[-1], flush=True)
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()

    if args.selftest:
        out = build(["e2ebench_tests"])
        sys.exit(subprocess.run([os.path.join(out, "e2ebench_tests")])
                 .returncode)
    if args.workload is None:
        parser.error("--workload is required")

    binary = os.path.join(build(["e2ebench"]), "e2ebench")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        status = max(status, run_one(binary, args, workload))
    sys.exit(status)


if __name__ == "__main__":
    main()
