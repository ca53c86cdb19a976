#!/usr/bin/env python3
"""Builds and runs the analognf benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark binary is configured and
built from source (perfbench/CMakeLists.txt over src/) in .bench_build/,
in the repository's default RelWithDebInfo build type; later runs only
rebuild what changed. Build output goes to stderr.

The binary's human-readable lines pass through to standard output. Its
last line, a JSON object with every metric it measured, is narrowed to
the metrics BENCHMARK.json names: "end_to_end" with --trace 0,
"per_layer" with --trace 1 (a layer that does no work in the workload
reports 0). That object is the last line printed. A traced run also
writes its spans to .bench_build/traces/<workload>-seed<n>.csv. The exit
code is non-zero when an output check fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("full-chain-churn", "bare-64b-2port")
BUILD_JOBS = "3"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    source = root / "perfbench"
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"program sources not found under {root / 'src'}")
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = [
            "cmake", "-S", str(source), "-B", str(build_dir),
            "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
        ]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    compile_cmd = [
        "cmake", "--build", str(build_dir), "--target", "analognf_perfbench",
        "-j", BUILD_JOBS,
    ]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "analognf_perfbench"


def narrow(result, wanted, traced):
    """Keeps the metrics BENCHMARK.json names, in its order."""
    metrics = {}
    for spec in wanted:
        name, unit = spec["name"], spec["unit"]
        got = result["metrics"].get(name)
        if got is None:
            if not traced:
                print(f"CHECK FAILED: end-to-end metric {name} not measured")
                result["correct"] = False
            got = {"value": 0, "unit": unit}
        if got["unit"] != unit:
            print(f"CHECK FAILED: {name} measured in {got['unit']}, "
                  f"BENCHMARK.json says {unit}")
            result["correct"] = False
        metrics[name] = got
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    contract = root / "BENCHMARK.json"
    if not contract.is_file():
        fail(f"{contract} not found")
    wanted = json.loads(contract.read_text())[
        "per_layer" if args.trace else "end_to_end"]
    binary = build(root, root / ".bench_build" / "perfbench")

    command = [
        str(binary), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.trace:
        traces = root / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += [
            "--trace-out", str(traces / f"{args.workload}-seed{args.seed}.csv"),
        ]
    run = subprocess.run(command, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("perfbench: the benchmark printed no result", file=sys.stderr)
        sys.exit(run.returncode or 1)
    final = narrow(result, wanted, bool(args.trace))
    print(json.dumps(final))
    sys.exit(run.returncode or (0 if final["correct"] else 1))


if __name__ == "__main__":
    main()
