#!/usr/bin/env python3
"""Entry point of the repository benchmark named in BENCHMARK.json.

Builds ccai_bench from the sources in this checkout (CMake, into
.bench_build/ at the checkout root), runs one workload, and prints as
the last line of standard output one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1, a traced run; the Perfetto trace of its
first pass lands in .bench_build/trace/). Exits nonzero when the build
fails, a check fails, or a metric BENCHMARK.json names is missing.

    python3 bench/suite/run.py --workload xfer_bulk --seed 3 \\
        --seconds 15 --trace 0
    python3 bench/suite/run.py --smoke [--bin <ccai_bench>]

--smoke runs every workload at about 1% size, traced, and checks that
each metric BENCHMARK.json names is printed with its unit.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BUILD = ROOT / ".bench_build"
# A run must end within 180 s, its build aside.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configure and build ccai_bench; return the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    build_dir = BUILD / "ccai_bench"
    steps = [
        ["cmake", "-S", str(SUITE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(build_dir), "--target", "ccai_bench",
         "-j", "4"],
    ]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout ends with the result.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited "
                 f"{done.returncode}")
    return build_dir / "bench" / "ccai_bench"


def run_bench(binary, args, json_path):
    """Run ccai_bench, passing its metric lines through to stdout."""
    try:
        done = subprocess.run([str(binary), *args, "--json", str(json_path)],
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"ccai_bench did not finish: {e}")
    sys.stdout.write(done.stdout)
    try:
        report = json.loads(Path(json_path).read_text())
    except (OSError, ValueError) as e:
        fail(f"ccai_bench wrote no result (exit {done.returncode}): {e}")
    return done.returncode, done.stdout, report


def smoke(binary):
    """Every workload at ~1% size, traced; every BENCHMARK.json metric
    must be printed as '<workload> <metric> <value> <unit>'."""
    out_dir = BUILD / "smoke"
    out_dir.mkdir(parents=True, exist_ok=True)
    code, stdout, _ = run_bench(
        binary, ["--smoke", "--trace", str(out_dir)], out_dir / "smoke.json")
    printed = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) >= 4:
            printed[(fields[0], fields[1])] = fields[3]
    b = spec()
    missing = []
    for workload in (w["name"] for w in b["workloads"]):
        for metric in b["end_to_end"] + b["per_layer"]:
            unit = printed.get((workload, metric["name"]))
            if unit != metric["unit"]:
                missing.append(f"{workload} {metric['name']} "
                               f"(printed unit {unit}, want {metric['unit']})")
    for m in missing:
        print(f"smoke: missing {m}", file=sys.stderr)
    if code != 0 or missing:
        sys.exit(1)
    print("smoke: every workload printed every metric")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--bin", help="use this ccai_bench instead of building")
    a = ap.parse_args()

    binary = Path(a.bin) if a.bin else build()
    if a.smoke:
        smoke(binary)
        return
    b = spec()
    if a.workload not in [w["name"] for w in b["workloads"]]:
        fail(f"unknown workload {a.workload!r}")

    out_dir = BUILD / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds)]
    if a.trace:
        trace_dir = BUILD / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        args += ["--trace", str(trace_dir)]
    code, _, report = run_bench(binary, args,
                                out_dir / f"{a.workload}.json")
    run = report["workloads"][0]
    wanted = b["per_layer"] if a.trace else b["end_to_end"]
    metrics = {}
    for m in wanted:
        got = run["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"ccai_bench did not report {m['name']} in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = run["correct"] and code == 0
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
