#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <select-cold|serve-mixed|train-dataplane|all>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the benchmark
binary (and the repository libraries it links) under .bench_build/; later runs
rebuild incrementally. The binary prints a human-readable report and, as the last
line of standard output, one JSON object: correct, attempted, failed, metrics.

A traced run (--trace 1) also writes a chrome trace to .bench_build/traces/ and
compares its deterministic counters with those of any earlier traced run of the
same workload and seed by the same binary; a difference fails the run.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "espresso_perfbench"
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type
RUN_TIMEOUT_S = 170
DETERMINISTIC_COUNTERS = [
    "core.selector.evaluations",
    "core.selector.simulations",
    "sim.tasks_per_sim",
    "core.strategy_ir.bytes",
    "collectives.bytes_per_step",
    "mem.allocs_per_step",
]


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources next to {HERE.name}/ (expected {ROOT}/src)")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "espresso_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(step)} (log: {log_path})")


def check_counters(args, result):
    """Flags deterministic counters that differ from an earlier same-seed run."""
    digest = hashlib.sha256(BINARY.read_bytes()).hexdigest()[:16]
    store = ROOT / ".bench_build" / "counters" / f"{args.workload}-seed{args.seed}-{digest}.json"
    metrics = result.get("metrics", {})
    counters = {name: metrics[name]["value"] for name in DETERMINISTIC_COUNTERS
                if name in metrics}
    if store.is_file():
        earlier = json.loads(store.read_text())
        differing = sorted(n for n in counters if n in earlier and earlier[n] != counters[n])
        if differing:
            for name in differing:
                print(f"perfbench: FLAG: deterministic counter {name} = {counters[name]}, "
                      f"an earlier same-seed run read {earlier[name]}", file=sys.stderr)
            return False
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(counters, sort_keys=True))
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--reference", str(HERE / "select_cold_reference.txt")]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        output, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    lines = output.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(output)
        fail(f"benchmark exited with {process.returncode} and no result line", 4)
    if args.trace and not check_counters(args, result):
        result["correct"] = False
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and process.returncode == 0 else 1)


if __name__ == "__main__":
    main()
