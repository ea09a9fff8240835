#!/usr/bin/env python3
"""Self-test of the benchmark, at smoke size (about a minute).

    python3 perfbench/selftest.py

Checks that:
  * every workload, traced and untraced, prints every metric BENCHMARK.json
    names, with its unit, and reports correct outputs;
  * another seed changes the crash points (the output digests) but not the
    set of metrics;
  * a segfault injected into every crashing run of the campaign_restart smoke
    makes failed_trial_frac > 0, so failed trials are counted.
Exits 1 on the first failed check.
"""

import json
import re
import subprocess
import sys

import run

SMOKE = ["--smoke", "--seconds", "0.1"]


def drive(binary, workload, seed, trace, extra=()):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--trace", str(trace),
           "--workdir", str(run.build_root() / "selftest"), *SMOKE, *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        fail(f"{' '.join(cmd)} exited {out.returncode}: {out.stderr[-2000:]}")
    digest = next(l.split()[1] for l in lines if l.startswith("digest "))
    return json.loads(lines[-1]), digest, out.stdout


def fail(message):
    print("FAIL:", message)
    sys.exit(1)


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    named = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    declared = [w["name"] for w in spec["workloads"]]
    if declared != run.WORKLOADS:
        fail(f"BENCHMARK.json workloads {declared} != run.py's {run.WORKLOADS}")
    binary = run.build()

    for workload in run.WORKLOADS:
        digests = {}
        for trace in (0, 1):
            for seed in (1, 2):
                result, digests[seed], _ = drive(binary, workload, seed, trace)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != named[trace]:
                    fail(f"{workload} trace={trace} seed={seed}: metrics {got} != {named[trace]}")
                if not result["correct"] or result["failed"] != 0:
                    fail(f"{workload} trace={trace} seed={seed}: {result}")
            if digests[1] == digests[2]:
                fail(f"{workload}: seeds 1 and 2 gave the same crash points ({digests[1]})")
        print(f"ok   {workload}: metrics and units match BENCHMARK.json; seed moves digests")

    result, _, stdout = drive(binary, "campaign_restart", 1, 0, ["--inject-segv", "0.9"])
    frac = float(re.search(r"failed_trial_frac\s+(\S+)", stdout).group(1))
    if result["failed"] <= 0 or frac <= 0.0:
        fail(f"injected segfaults were not counted: failed={result['failed']} frac={frac}")
    print(f"ok   campaign_restart + segv at 90% of the window: failed_trial_frac = {frac}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
