#!/usr/bin/env python3
"""Build and run one workload of the memucost benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The script configures and builds
perfbench/ in Release into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the workload in one memu_perfbench process,
checks that the result names exactly the metrics BENCHMARK.json registers,
and prints it as the last line of stdout. Build output goes to stderr.
perfbench/README.md documents the workloads and every metric.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; fails loudly."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("memucost sources not found under " + ROOT + "/src")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_quiet(["cmake", "--build", build_dir, "--target", "memu_perfbench",
               "-j", jobs])
    return os.path.join(build_dir, "memu_perfbench")


def check_result(line, registered):
    """The result line must carry exactly the registered metrics and units."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("last output line is not JSON: " + line[:200])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are " + ", ".join(sorted(result)))
    want = {m["name"]: m["unit"] for m in registered}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing "
             + str(sorted(set(want) - set(got))) + ", unexpected "
             + str(sorted(set(got) - set(want))))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    binary = build(os.path.join(target, "perfbench"))

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--out-dir", os.path.join(target, "perfbench-out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        fail("memu_perfbench exited with %d" % proc.returncode)
    check_result(lines[-1], spec["per_layer" if args.trace else "end_to_end"])
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
