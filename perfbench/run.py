#!/usr/bin/env python3
"""Builds and runs the end-to-end serving benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload query_mix --seed 1 --trace 0
  python3 perfbench/run.py --smoke

--seconds defaults to run_seconds in BENCHMARK.json.

The first run configures and builds perfbench/ (Release, with the
repository's own libraries) under .bench_build/perfbench; later runs only
rebuild what changed. The e2e binary prints a human-readable report and a
JSON result; this script echoes the report and then prints, as its last
line, {"correct", "attempted", "failed", "metrics"} with the end_to_end
metrics of BENCHMARK.json (--trace 0) or its per_layer metrics (--trace 1).
It exits 1 when the run is incorrect or a metric is missing, and 2 when
the benchmark cannot be built or run.

--smoke runs every workload briefly, traced and untraced, and checks that
every metric named in BENCHMARK.json and in SMOKE_METRICS prints with its
unit.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Metrics a workload reports beyond BENCHMARK.json's, by trace mode: the
# write-path and replica layers exist only where the workload writes.
SMOKE_METRICS = {
    0: {
        "*": {"query_qps": "requests/s", "query_p90_us": "us",
              "query_p99_us": "us", "error_rate": "fraction"},
        "write_churn": {"write_visible_p50_ms": "ms", "write_visible_p90_ms": "ms",
                        "write_visible_p99_ms": "ms", "gen_late_p99_ms": "ms"},
        "mesh_leaf": {"write_visible_p50_ms": "ms", "write_visible_p90_ms": "ms",
                      "write_visible_p99_ms": "ms"},
    },
    1: {
        "write_churn": {
            "pricing.reconverge_p50_ms": "ms", "pricing.reconverge_p99_ms": "ms",
            "bgp.messages_per_write": "count", "bgp.stages_per_write": "count",
            "service.coalesced_frac": "fraction", "publish.ms_mean": "ms",
            "publish.max_ms": "ms", "publish.rows_rebuilt_frac": "fraction",
            "publish.shards_per_publish": "count",
            "publish.full_rebuilds": "count", "publish.inflight_max": "count",
            "trace.overhead_write_visible_p50_ms": "ms"},
        "mesh_leaf": dict(
            {"mesh.submit_ms": "ms", "mesh.propagate_ms": "ms",
             "trace.overhead_write_visible_p50_ms": "ms"},
            **{f"replica.{tier}.{name}": unit
               for tier in ("r1", "r2")
               for name, unit in (("bytes_per_sync", "bytes"),
                                  ("shards_per_sync", "count"),
                                  ("notifies_coalesced", "count"),
                                  ("full_syncs", "count"), ("resyncs", "count"),
                                  ("forward_retries", "count"),
                                  ("forward_rejected", "count"))}),
    },
}


def fail(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the repository sources are missing next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_logged(configure)
    run_logged(["cmake", "--build", BUILD, "--target", "e2e",
                "-j", str(os.cpu_count() or 1)])
    return os.path.join(BUILD, "e2e")


def run_logged(command):
    """Runs a build step with its output on stderr."""
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{command[0]} failed: {e}")
    if done.returncode != 0:
        fail(f"{' '.join(command)} exited {done.returncode}")


def commit_id():
    """The git commit, or a digest of the sources when not in a git tree."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                                 cwd=ROOT, capture_output=True, text=True,
                                 timeout=30)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "bench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def run_binary(binary, workload, seed, seconds, trace, commit, echo=True):
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--commit", commit]
    if trace:
        command += ["--trace-file", os.path.join(BUILD, f"trace-{workload}.json")]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"e2e failed: {e}")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"e2e exited {done.returncode} without a result")
    if echo:
        print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def select(result, wanted):
    """The result's metrics named in `wanted` ({name: unit}); exits if one
    is missing or carries another unit."""
    metrics = {}
    for name, unit in wanted.items():
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit:
            fail(f"metric {name} [{unit}] missing or mis-united: {got}", 1)
        metrics[name] = {"value": got["value"], "unit": unit}
    return metrics


def smoke(binary, spec, commit):
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result = run_binary(binary, workload, 1, 2, trace, commit, echo=False)
            key = "per_layer" if trace else "end_to_end"
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            extra = SMOKE_METRICS.get(trace, {})
            wanted.update(extra.get("*", {}))
            wanted.update(extra.get(workload, {}))
            select(result, wanted)
            if not result["correct"]:
                fail(f"{workload} trace={trace}: incorrect run", 1)
            print(f"smoke {workload} trace={trace}: {len(wanted)} metrics ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    binary = build()
    spec = load_spec()
    commit = commit_id()
    if args.smoke:
        smoke(binary, spec, commit)
        return 0
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    result = run_binary(binary, args.workload, args.seed, seconds, args.trace,
                        commit)
    key = "per_layer" if args.trace else "end_to_end"
    metrics = select(result, {m["name"]: m["unit"] for m in spec[key]})
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
