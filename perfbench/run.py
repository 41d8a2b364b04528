#!/usr/bin/env python3
"""Build and run the reference benchmark (see README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (which compiles src/)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Each
run then executes the arithmetic self-test and the benchmark driver,
echoes the driver's metric table, checks that every metric
BENCHMARK.json declares for the mode (end_to_end for --trace 0,
per_layer for --trace 1) was printed with the declared unit, and prints
as its last line one JSON object with exactly the keys correct,
attempted, failed and metrics. Any failure exits non-zero without that
line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def check_call(cmd):
    # Build chatter goes to stderr: stdout's last line is the result.
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def build(out):
    configure = ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    check_call(configure)  # a no-op once configured
    jobs = str(min(4, os.cpu_count() or 1))
    check_call(["cmake", "--build", str(out), "-j", jobs])


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    declared = declared_metrics(args.trace)
    out = build_dir()
    build(out)
    check_call([str(out / "perfbench_selftest")])

    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench exited with {proc.returncode}")

    result = json.loads(lines[-1])
    metrics = {}
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            sys.exit(f"metric {metric['name']} ({metric['unit']}) "
                     f"missing from the output: {got}")
        metrics[metric["name"]] = got
    if result["attempted"] < 1 or not result["correct"]:
        sys.exit("no correct operation was measured")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        sys.exit(f"perfbench: {error}")
