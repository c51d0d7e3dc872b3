#!/usr/bin/env bash
# Records the perf baselines so future PRs have a trajectory to compare
# against:
#
#   BENCH_scaling.json  — bench_scaling (kernel microbenchmarks, threads x n
#                         protocol sweep) + bench_parallel (parallel
#                         all-pairs VCG, pool dispatch overhead)
#   BENCH_service.json  — bench_service (serving layer: snapshot export,
#                         save/load, single/batched/concurrent queries,
#                         publish cycle)
#   BENCH_publish.json  — bench_publish (publication path: full vs
#                         incremental CoW export across dirty fractions,
#                         sharded publish cycle)
#   BENCH_replica.json  — bench_replica (replication path: stream encode /
#                         assemble, full bootstrap fetch vs dirty-shard
#                         catch-up over loopback)
#   BENCH_chain.json    — bench_chain (chained mesh: publish propagation to
#                         the leaf and leaf-submitted forwarded writes at
#                         depth 1-4)
#   BENCH_net.json      — bench_net (transport: wire codec costs, loopback
#                         round trips by the wall clock, single and
#                         pipelined)
#
# Each output is the merged JSON of its binaries. Its "context" carries
# Google Benchmark's host fields plus this repository's own: build_type
# (CMAKE_BUILD_TYPE of BUILD_DIR), cxx_compiler_id, cxx_compiler_version,
# nproc and git_commit. (Google Benchmark's library_build_type describes
# the benchmark library, not this code.) Usage:
#
#   scripts/bench_baseline.sh [scaling.json] [service.json] [publish.json] [replica.json] [chain.json] [net.json]
#
# Environment:
#   BUILD_DIR       build tree holding the bench binaries (default: build)
#   BENCH_FILTER    --benchmark_filter regex forwarded to every binary
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
SCALING_OUT=${1:-BENCH_scaling.json}
SERVICE_OUT=${2:-BENCH_service.json}
PUBLISH_OUT=${3:-BENCH_publish.json}
REPLICA_OUT=${4:-BENCH_replica.json}
CHAIN_OUT=${5:-BENCH_chain.json}
NET_OUT=${6:-BENCH_net.json}
FILTER=${BENCH_FILTER:-.}

# Refuse to record baselines from anything but a plain Release build tree:
# sanitizers distort timings by integer factors, and any other build type
# measures the wrong thing. The numbers would poison every future PR's
# comparison.
cache="$BUILD_DIR/CMakeCache.txt"
if [[ ! -f "$cache" ]]; then
  echo "error: $cache not found — configure with cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release" >&2
  exit 1
fi
for opt in FPSS_SANITIZE FPSS_THREAD_SAFETY FPSS_FUZZ; do
  val=$(sed -n "s/^${opt}:[A-Z]*=//p" "$cache")
  if [[ -n "$val" && "$val" != "OFF" && "$val" != "0" && "$val" != "FALSE" ]]; then
    echo "error: $BUILD_DIR was configured with $opt=$val — baselines must come from a plain Release build" >&2
    exit 1
  fi
done
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$cache")
if [[ "$build_type" != "Release" ]]; then
  echo "error: $BUILD_DIR build type is '${build_type:-unset}', not Release — reconfigure with -DCMAKE_BUILD_TYPE=Release" >&2
  exit 1
fi
compiler_file=$(ls "$BUILD_DIR"/CMakeFiles/*/CMakeCXXCompiler.cmake | head -n 1)
compiler_field() { # compiler_field <CMAKE_CXX_COMPILER_ID|CMAKE_CXX_COMPILER_VERSION>
  sed -n "s/^set($1 \"\(.*\)\")$/\1/p" "$compiler_file"
}
export FPSS_BUILD_TYPE=$build_type
export FPSS_CXX_COMPILER_ID=$(compiler_field CMAKE_CXX_COMPILER_ID)
export FPSS_CXX_COMPILER_VERSION=$(compiler_field CMAKE_CXX_COMPILER_VERSION)
export FPSS_NPROC=$(nproc)

for bin in bench_scaling bench_parallel bench_service bench_publish bench_replica bench_chain bench_net; do
  if [[ ! -x "$BUILD_DIR/bench/$bin" ]]; then
    echo "error: $BUILD_DIR/bench/$bin not built (cmake --build $BUILD_DIR)" >&2
    exit 1
  fi
done

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

for bin in bench_scaling bench_parallel bench_service bench_publish bench_replica bench_chain bench_net; do
  echo "== $bin" >&2
  "$BUILD_DIR/bench/$bin" \
    --benchmark_filter="$FILTER" \
    --benchmark_out="$tmpdir/$bin.json" \
    --benchmark_out_format=json \
    --benchmark_counters_tabular=true >&2
done

merge() { # merge <output.json> <binary>...
  python3 - "$tmpdir" "$@" <<'EOF'
import json, os, subprocess, sys

tmpdir, out = sys.argv[1], sys.argv[2]
merged = {"benchmarks": []}
for name in sys.argv[3:]:
    # A filter matching nothing in one binary leaves a 0-byte file
    # (google-benchmark still exits 0); skip it instead of dying.
    with open(f"{tmpdir}/{name}.json") as f:
        text = f.read()
    if not text.strip():
        continue
    data = json.loads(text)
    merged.setdefault("context", data.get("context", {}))
    for row in data.get("benchmarks", []):
        row["binary"] = name
        merged["benchmarks"].append(row)
try:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
except OSError:
    commit = ""
context = merged.setdefault("context", {})
context["build_type"] = os.environ["FPSS_BUILD_TYPE"]
context["cxx_compiler_id"] = os.environ["FPSS_CXX_COMPILER_ID"]
context["cxx_compiler_version"] = os.environ["FPSS_CXX_COMPILER_VERSION"]
context["nproc"] = int(os.environ["FPSS_NPROC"])
context["git_commit"] = commit
with open(out, "w") as f:
    json.dump(merged, f, indent=1)
    f.write("\n")
print(f"wrote {out}: {len(merged['benchmarks'])} benchmark rows")
EOF
}

merge "$SCALING_OUT" bench_scaling bench_parallel
merge "$SERVICE_OUT" bench_service
merge "$PUBLISH_OUT" bench_publish
merge "$REPLICA_OUT" bench_replica
merge "$CHAIN_OUT" bench_chain
merge "$NET_OUT" bench_net
