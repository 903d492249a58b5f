#!/usr/bin/env python3
"""The tsxlab benchmark: builds perfbench's binary from this checkout and runs
one workload on one host thread.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload stamp|eigen|server --seed N \
        --seconds S --trace 0|1

The binary is built with the repository's own CMake configuration, with
perfbench/hook.cmake injected as CMAKE_PROJECT_INCLUDE, into the directory
named by $CARGO_TARGET_DIR (default .bench_build), relative to the checkout.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json; --trace 1 reports its per-layer metrics and writes the span
record to <build dir>/spans-<workload>-<seed>.json. The line before it
carries the simulated-counter digest of the workload ("digest <name> 0x...").

Set-up time (process start to the first timed cell) is measured SETUP_RUNS
extra times with --setup-only launches, and reported as the median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stamp", "eigen", "server")
SETUP_RUNS = 4
BINARY = "tsxlab_perfbench"


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not d.is_absolute():
        d = ROOT / d
    return d / "cmake"


def build(bdir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no tsxlab source tree (CMakeLists.txt, src/) under {ROOT}", 2)
    bdir.mkdir(parents=True, exist_ok=True)
    log_path = bdir / "perfbench-build.log"
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release",
                      f"-DCMAKE_PROJECT_INCLUDE={HERE / 'hook.cmake'}"])
    steps.append(["cmake", "--build", str(bdir), "--target", BINARY,
                  "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail))
    return bdir / BINARY


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def last_json(stdout, what):
    lines = stdout.strip().splitlines()
    if not lines:
        fail(f"{what} printed nothing")
    try:
        return json.loads(lines[-1]), lines[:-1]
    except json.JSONDecodeError:
        fail(f"{what} ended with a line that is not JSON: {lines[-1][:200]}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    bdir = build_dir()
    binary = build(bdir)
    names = declared_metrics(a.trace)
    base = [str(binary), "--workload", a.workload, "--seed", str(a.seed)]

    setup = []
    for _ in range(SETUP_RUNS):
        t0 = time.monotonic()
        r = subprocess.run(base + ["--setup-only"], capture_output=True,
                           text=True, timeout=120)
        if r.returncode != 0:
            fail(f"set-up run exited {r.returncode}: {r.stderr.strip()}")
        res, _ = last_json(r.stdout, "set-up run")
        setup.append(res["setup_end_monotonic_s"] - t0)

    spans = bdir / f"spans-{a.workload}-{a.seed}.json"
    cmd = base + ["--seconds", repr(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        cmd += ["--spans", str(spans)]
    t0 = time.monotonic()
    r = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=a.seconds + 150)
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        fail(f"benchmark exited {r.returncode}")
    res, head = last_json(r.stdout, "benchmark")
    setup.append(res["setup_end_monotonic_s"] - t0)

    metrics = res["metrics"]
    if not a.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    got, want = set(metrics), set(names)
    if got != want:
        fail(f"reported metrics differ from BENCHMARK.json: missing "
             f"{sorted(want - got)}, unexpected {sorted(got - want)}")
    for line in head:
        print(line)
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: metrics[n] for n in names},
    }))


if __name__ == "__main__":
    main()
