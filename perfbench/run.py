#!/usr/bin/env python3
"""Build and run the end-to-end campaign benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign_restart --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

The first run configures and builds perfbench/ (which compiles the
libraries under src/) into $CARGO_TARGET_DIR, default .bench_build; later
runs only re-check the build. The binary's last stdout line is the result
object {"correct", "attempted", "failed", "metrics"}. For the default seed at
full size the run must reproduce the digests in perfbench/digests.json.
perfbench/NOTES.md documents the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["campaign_restart", "workflow_plan"]
RUN_TIMEOUT_S = 175
BUILD_JOBS = "3"


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure (once) and build the perfbench binary; returns its path or exits 1."""
    build_dir = build_root() / "perfbench"
    log_path = build_root() / "perfbench-build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    configured = (build_dir / "CMakeCache.txt").exists() and any(
        (build_dir / f).exists() for f in ("Makefile", "build.ninja"))
    if not configured:
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", BUILD_JOBS])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(f"perfbench: build step failed: {' '.join(step)}\n")
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.exit(1)
    return build_dir / "perfbench"


def source_rev():
    """git commit when the checkout is a repository, else a content hash."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def run_driver(binary, workload, args):
    """Run one workload in its own process; returns (exit code, result dict)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(build_root() / "work"), "--source-rev", source_rev()]
    recorded = json.loads((BENCH_DIR / "digests.json").read_text())
    if args.seed == recorded["seed"]:
        cmd += ["--expect-digest", recorded["digests"][workload]]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    deadline = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    deadline.start()
    last = None
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            last = line
        proc.wait()
    finally:
        deadline.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    try:
        result = json.loads(last) if last else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main():
    # Turn SIGTERM into an exit that runs the finally blocks, so a killed
    # run still stops and reaps the perfbench process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if args.workload != "all":
        code, _ = run_driver(binary, args.workload, args)
        return code

    # One process per workload, so no workload's memory peak leaks into
    # another's; the combined line prefixes each metric with its workload.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    worst = 0
    for workload in WORKLOADS:
        code, result = run_driver(binary, workload, args)
        worst = max(worst, code)
        if result is None:
            return code or 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
            rows.append((workload, name, metric["value"], metric["unit"]))
        rows.append((workload, "failed_trial_frac",
                     result["failed"] / result["attempted"], "fraction"))
    print("\nworkload           metric                                  value  unit")
    for workload, name, value, unit in rows:
        print(f"{workload:18} {name:34} {value:>12.6g}  {unit}")
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
