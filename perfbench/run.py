#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload, own process each

The program (perfbench/src) links the radiocast library built from the
parent directory in Release mode.  Its last stdout line is the JSON result
({"correct", "attempted", "failed", "metrics"}); this script passes the
program's output through, checks the result names every metric
BENCHMARK.json lists, and with --out appends the result set (provenance
header plus result) to a JSON-lines file that compare.py reads.

The build goes to $CARGO_TARGET_DIR, or .bench_build, under the repository
root; plan stores and span files go under it too.
"""

import argparse
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["serve-cold", "engine-sweep"]
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (
        ROOT / "src" / "CMakeLists.txt"
    ).is_file():
        fail(f"radiocast sources not found under {ROOT}")
    out = build_dir()
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "--target", "perfbench", "-j", "4"],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            fail("build failed: " + " ".join(cmd))
    return out / "perfbench"


def git_sha():
    try:
        # The ceiling keeps git from finding a repository above the root.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
        return proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, args, workload):
    """Runs one workload in its own process; returns (exit code, header, result)."""
    cmd = [
        str(binary), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--git-sha", git_sha(), "--work-dir", str(build_dir() / "work"),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    lines = []
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            lines.append(line.rstrip("\n"))
        proc.wait()
    finally:
        watchdog.cancel()
    if proc.returncode < 0:
        fail(f"{workload}: benchmark killed (signal {-proc.returncode}); "
             f"the limit is {RUN_TIMEOUT_S} s", 1)
    header = None
    for line in lines:
        if line.startswith("perfbench-header "):
            header = json.loads(line[len("perfbench-header "):])
    if not lines or not lines[-1].startswith("{"):
        fail(f"{workload}: benchmark printed no result (exit {proc.returncode})", 1)
    result = json.loads(lines[-1])
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        fail(f"{workload}: result metrics differ from BENCHMARK.json: "
             f"{sorted(missing)}", 1)
    return proc.returncode, header, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="append the result set to this JSON-lines file")
    args = ap.parse_args()

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    code = 0
    summary = []
    for workload in workloads:
        rc, header, result = run_workload(binary, args, workload)
        code = code or rc
        summary.append((workload, result))
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"header": header, "result": result}) + "\n")
    if len(workloads) > 1:
        print("\nsummary (failed_frac = failed / attempted):")
        for workload, result in summary:
            att, failed = result["attempted"], result["failed"]
            cells = [f"{k}={v['value']:.6g} {v['unit']}"
                     for k, v in result["metrics"].items()]
            cells.append(f"failed_frac={failed / att:.6g} frac ({failed}/{att})")
            print(f"  {workload}: " + ", ".join(cells))
    sys.exit(code)


if __name__ == "__main__":
    main()
