#!/usr/bin/env python3
"""Repository benchmark: builds kdbench from ../src, repeats one workload
in fresh processes for --seconds, checks every repetition, and prints the
medians. kdbench states host times at a nominal machine speed, measured
by a gauge it runs between engine calls (see METRICS.md).

    python3 perfbench/run.py --workload kd-upscale --seed 1 --seconds 50 --trace 0

Run from the repository root. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: with --trace 0 the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer
metrics. Earlier lines print the effective config, the seed, nproc and
every end-to-end metric of both clocks with its unit. METRICS.md says
what each metric measures and which workload should move it.

Exit status is 0 whenever a result is printed (correct may be false); it
is non-zero, with no result, when the sources are missing, the build
fails or kdbench cannot run.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "kdbench")
WORKLOADS = ("kd-upscale", "kn-kd-trace", "kn-k8s-trace")
# Median over at least this many repetitions, even past --seconds.
MIN_REPS = 3
MAX_REPS = 100
# A repetition may not outlive this (seconds); the full sizes take ~5 s.
REP_TIMEOUT = 120


class BenchError(Exception):
    pass


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources not found at %s/src" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD, "--target", "kdbench", "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(os.path.join(BUILD, "build.log"), "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                raise BenchError("build failed; see %s/build.log" % BUILD)


def run_json(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=REP_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("kdbench exited %d: %s" % (proc.returncode,
                                                     proc.stderr.strip()))
    return json.loads(lines[-1])


def run_rep(args, traced, clip_seed):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--trace", "1" if traced else "0"]
    if clip_seed is not None:
        cmd += ["--clip-seed", str(clip_seed)]
    if traced:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.unreachable:
        cmd.append("--unreachable")
    rep = run_json(cmd)
    rep["traced"] = traced
    return rep


def repeat(args):
    """Repetitions until --seconds is spent: untraced only with --trace 0,
    untraced and traced alternately with --trace 1. The traces choose their
    clip in the first repetition, and the others replay the same one."""
    reps = []
    start = time.monotonic()
    longest = 0.0
    clip_seed = None
    while len(reps) < MAX_REPS:
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS * (2 if args.trace else 1) and \
                elapsed + longest > args.seconds:
            break
        t = time.monotonic()
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(run_rep(args, traced, clip_seed))
        clip_seed = reps[0]["config"].get("clip_seed")
        if len(reps) > 1:
            longest = max(longest, time.monotonic() - t)
    return reps


def values(rep, key):
    return {name: (value, unit, exact) for name, value, unit, exact in rep[key]}


def exact_part(rep):
    """Everything that must repeat bit-for-bit: simulated metrics, counts,
    the config and the check outcomes."""
    out = {"attempted": rep["attempted"], "failed": rep["failed"],
           "checks": rep["checks"]}
    out["config"] = {k: v for k, v in rep["config"].items()
                     if k not in ("seed", "traced")}
    for key in ("e2e", "layers"):
        for name, (value, _, exact) in values(rep, key).items():
            if exact:
                out[name] = value
    return out


def median_of(reps, key, name):
    return statistics.median(values(r, key)[name][0] for r in reps)


def aggregate(args, reps, spec):
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    problems = []
    for r in reps:
        problems += ["check %s failed" % name
                     for name, ok in r["checks"].items() if not ok]
    first = exact_part(plain[0])
    for r in reps[1:]:
        if exact_part(r) != first:
            problems.append("%s repetition differs from the first in a "
                            "simulated metric or count" %
                            ("a traced" if r["traced"] else "an untraced"))
            break

    e2e = {}
    for name, (value, unit, exact) in values(plain[0], "e2e").items():
        e2e[name] = (value if exact else median_of(plain, "e2e", name), unit)
    config = plain[0]["config"]
    print("config: %s" % json.dumps(config, sort_keys=True))
    print("seed: %d  nproc: %d  repetitions: %d untraced, %d traced" %
          (args.seed, os.cpu_count() or 0, len(plain), len(traced)))
    if plain[0]["clip_choice"]:
        print("clip choice (clip seed, probed instance starts): %s" %
              json.dumps(plain[0]["clip_choice"]))
    print("%s: attempted %d, failed %d" %
          (args.workload, plain[0]["attempted"], plain[0]["failed"]))
    for name, (value, unit) in e2e.items():
        print("  %-24s %.6g %s" % (name, value, unit))
    print("run_s of each repetition: %s" % " ".join(
        "%.4f%s" % (values(r, "e2e")["run_s"][0], "t" if r["traced"] else "")
        for r in reps))
    # Same seed, same fingerprint; the seed itself is left out, so another
    # seed shows whether it changed the inputs.
    print("fingerprint: %s" % hashlib.sha256(
        json.dumps(first, sort_keys=True).encode()).hexdigest()[:16])
    for p in problems:
        print("problem: %s" % p)

    if not args.trace:
        wanted, source = spec["end_to_end"], e2e
    else:
        wanted, source = spec["per_layer"], {}
        for name, (value, unit, exact) in values(traced[0], "layers").items():
            source[name] = (value if exact else
                            median_of(traced, "layers", name), unit)
        source.update((k, v) for k, v in e2e.items() if k.startswith("sim_"))
        source["trace_overhead_share"] = (
            median_of(traced, "e2e", "run_s") /
            median_of(plain, "e2e", "run_s") - 1, "ratio")
        print("trace file: %s" % traced[-1]["trace_file"])
    metrics = {}
    for m in wanted:
        if source.get(m["name"], (None, None))[1] != m["unit"]:
            raise BenchError("kdbench reports no %s in %s" %
                             (m["name"], m["unit"]))
        metrics[m["name"]] = {"value": source[m["name"]][0],
                              "unit": m["unit"]}
    return {"correct": not problems, "attempted": plain[0]["attempted"],
            "failed": plain[0]["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-scale sizes for the self-test")
    parser.add_argument("--unreachable", action="store_true",
                        help="register pods that fit on no node (self-test)")
    args = parser.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        build()
        result = aggregate(args, repeat(args), spec)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
