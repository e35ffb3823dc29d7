#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark; finishes in about a minute once
kdbench is built.

    python3 perfbench/selftest.py

For each workload, through run.py at --size tiny, it asserts that:
  - every metric BENCHMARK.json names prints exactly once, with its unit,
    traced and untraced, and the run is correct with nothing failed;
  - the same seed gives the same fingerprint (every simulated metric,
    count and check outcome), and another seed gives other inputs while
    every check still passes;
  - an unreachable pod target (pods that fit on no node) is reported as
    failed operations, not as a slow success.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kd-upscale", "kn-kd-trace", "kn-k8s-trace")
# Printed per workload, besides attempted and failed.
PRINTED = ("run_s", "setup_s", "peak_rss_mb", "sim_e2e_s", "sim_sched_p50_ms",
           "sim_sched_p99_ms", "sim_cold_starts")


def run(workload, seed, trace, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny", *extra],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    fingerprint = [l.split()[1] for l in lines if l.startswith("fingerprint:")]
    assert len(fingerprint) == 1, proc.stdout
    return lines, json.loads(lines[-1]), fingerprint[0]


def check_metrics(workload, trace, lines, result, expected):
    last = lines[-1]
    assert result["correct"], (workload, trace, lines)
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    assert set(result["metrics"]) == {m["name"] for m in expected}, result
    for m in expected:
        assert last.count('"%s": {' % m["name"]) == 1, m["name"]
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
    printed = [l.split() for l in lines if l.startswith("  ")]
    for name in PRINTED:
        rows = [row for row in printed if row[0] == name]
        assert len(rows) == 1 and len(rows[0]) == 3, (name, printed)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in WORKLOADS:
        lines, result, plain = run(workload, 1, 0)
        check_metrics(workload, 0, lines, result, spec["end_to_end"])
        lines, result, traced = run(workload, 1, 1)
        check_metrics(workload, 1, lines, result, spec["per_layer"])
        assert plain == traced, "tracing changed a simulated metric or count"

        lines, result, again = run(workload, 1, 0)
        assert again == plain, "same seed, different simulated results"
        lines, result, other = run(workload, 2, 0)
        assert other != plain, "another seed left the inputs unchanged"
        assert result["correct"] and result["failed"] == 0, result

        lines, result, _ = run(workload, 1, 0, "--unreachable")
        assert result["failed"] == result["attempted"] >= 1, result
        print("%s: ok" % workload, flush=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
