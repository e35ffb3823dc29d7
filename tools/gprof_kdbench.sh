#!/usr/bin/env bash
# Flat gprof profile of perfbench's kdbench, summed over several replays.
#
#   tools/gprof_kdbench.sh <kd-upscale|kn-kd-trace|kn-k8s-trace> <replays>
#
# Configures perfbench/ into .bench_build/gprof with -pg and links it
# statically: a dynamic -pg build takes no samples inside libc, so the
# memcmp of string compares and the malloc/free behind every node-based
# container go unseen. Each replay is one kdbench process (seed 1); the
# traces replay the clip of --clip-seed 8, so no replay spends time
# choosing one. gprof samples at 100 Hz, about 65 samples per
# kn-kd-trace replay, so sum ten or more.
#
# Prints gprof's flat profile of the summed samples. The summed profile
# stays in .bench_build/gprof/run-<workload>/gmon.sum for the call graph:
#   gprof -b -q .bench_build/gprof/kdbench \
#     .bench_build/gprof/run-<workload>/gmon.sum
set -euo pipefail

usage() {
  echo "usage: $0 <kd-upscale|kn-kd-trace|kn-k8s-trace> <replays>" >&2
  exit 2
}

[[ $# -eq 2 ]] || usage
workload=$1
replays=$2
case $workload in
  kd-upscale) clip=() ;;
  kn-kd-trace | kn-k8s-trace) clip=(--clip-seed 8) ;;
  *) usage ;;
esac
[[ $replays =~ ^[1-9][0-9]*$ ]] || usage

root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/.bench_build/gprof
jobs=$(nproc)
((jobs > 4)) && jobs=4

cmake -S "$root/perfbench" -B "$build" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS="-pg -static" >/dev/null
cmake --build "$build" --target kdbench -j "$jobs" >/dev/null

run=$build/run-$workload
rm -rf "$run"
mkdir -p "$run"
cd "$run"
for ((i = 0; i < replays; i++)); do
  # One gmon.<pid> per replay.
  GMON_OUT_PREFIX=gmon "$build/kdbench" --workload "$workload" --seed 1 \
    --trace 0 "${clip[@]}" >/dev/null
done
gprof -s "$build/kdbench" gmon.*
gprof -b -p "$build/kdbench" gmon.sum
