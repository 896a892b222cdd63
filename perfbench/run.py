#!/usr/bin/env python3
"""Repository benchmark: builds the simulator and runs one workload.

    python3 perfbench/run.py --workload tile_read --seed 1 --seconds 30 --trace 0

Run from the repository root. The simulator's libraries and the workload
driver are compiled from source (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; the driver then runs
the workload, one single-threaded process per measured run.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics
listed in BENCHMARK.json, --trace 1 the per-layer ones. The exit code is 0
when every correctness check passed, 1 when one failed (the result line is
still printed), and nonzero without a result line when the build or the run
itself failed.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tile_read", "flash_write", "tile_read_faults")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("simulator sources (src/) not found next to perfbench/")
        sys.exit(1)
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(out):
        out = os.path.join(ROOT, out)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = (
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "perfbench_driver", "-j", jobs],
    )
    # The compiler's temporary files stay inside the build directory.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        try:
            # Build output goes to stderr so stdout carries only the result.
            subprocess.run(cmd, stdout=sys.stderr, check=True, env=env,
                           timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as err:
            log(f"build failed: {err}")
            sys.exit(1)
    return os.path.join(out, "perfbench_driver")


def expected_metrics(trace):
    """(name, unit) pairs the result must carry, from BENCHMARK.json; the
    driver reports values only and the units are attached here."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return [(m["name"], m["unit"]) for m in section]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    expected = expected_metrics(args.trace)
    driver = build()
    env = {k: v for k, v in os.environ.items()
           if k not in ("DTIO_SEED", "DTIO_LOG")}
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except (OSError, subprocess.SubprocessError) as err:
        log(f"driver failed to run: {err}")
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"driver exited {proc.returncode} without a result")
        sys.exit(1)

    metrics = {}
    problems = list(raw.get("errors", []))
    got = raw.get("metrics", {})
    names = {name for name, _ in expected}
    if set(got) != names:
        problems.append("metric set differs from BENCHMARK.json: missing "
                        f"{sorted(names - set(got))}, "
                        f"extra {sorted(set(got) - names)}")
    for name, unit in expected:
        if name not in got:
            continue
        if not math.isfinite(got[name]):
            problems.append(f"{name}: value {got[name]} is not finite")
        metrics[name] = {"value": got[name], "unit": unit}
    correct = bool(raw.get("correct")) and not problems and proc.returncode == 0
    for p in problems:
        log(f"check failed: {p}")
    print(json.dumps({"correct": correct,
                      "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
