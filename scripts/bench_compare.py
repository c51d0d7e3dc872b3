#!/usr/bin/env python3
"""Compares a fresh Google Benchmark run against a committed baseline.

Usage:

    scripts/bench_compare.py BASELINE.json FRESH.json

Both files are Google Benchmark JSON (--benchmark_out_format=json), as
scripts/bench_baseline.sh writes them. Rows are matched by name; each
matched row prints the baseline real_time, the fresh real_time and
fresh / baseline. A row whose ratio lies outside [1 / NOISE_FACTOR,
NOISE_FACTOR] is marked with "!" and counted in a closing warning line.

Drift is a warning, not a failure: the exit status is non-zero only when
an input cannot be read or parsed. A 0-byte file (what Google Benchmark
writes when a filter matches nothing) counts as a run with no rows.
"""

import json
import statistics
import sys

# Fresh runs usually come from another host and from short smoke runs
# (--benchmark_min_time=0.01), so only a drift beyond 2x in either
# direction is worth a look.
NOISE_FACTOR = 2.0

NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load(path):
    """Returns {name: (real_time_ns, display string)}; exits 2 if unreadable."""
    try:
        with open(path) as f:
            text = f.read()
        data = json.loads(text) if text.strip() else {}
        times = {}
        for row in data.get("benchmarks", []):
            # Repetitions add aggregate rows; the median of the plain
            # iteration rows is computed below instead.
            if row.get("run_type") == "aggregate" or row.get("error_occurred"):
                continue
            unit = row.get("time_unit", "ns")
            times.setdefault(row["name"], []).append(
                (float(row["real_time"]) * NS_PER_UNIT[unit], unit))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as err:
        print(f"bench_compare: cannot read {path}: {err!r}", file=sys.stderr)
        sys.exit(2)
    rows = {}
    for name, samples in times.items():
        ns = statistics.median(sample[0] for sample in samples)
        unit = samples[0][1]
        rows[name] = (ns, f"{ns / NS_PER_UNIT[unit]:.4g} {unit}")
    return rows


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    baseline, fresh = load(argv[1]), load(argv[2])
    matched = [name for name in baseline if name in fresh]
    width = max((len(name) for name in matched), default=4)
    print(f"{'name':<{width}}  {'baseline':>12}  {'fresh':>12}  {'ratio':>7}")
    flagged = []
    for name in matched:
        base_ns, base_text = baseline[name]
        fresh_ns, fresh_text = fresh[name]
        ratio = fresh_ns / base_ns if base_ns > 0 else float("inf")
        outside = not (1 / NOISE_FACTOR <= ratio <= NOISE_FACTOR)
        if outside:
            flagged.append(name)
        print(f"{name:<{width}}  {base_text:>12}  {fresh_text:>12}  "
              f"{ratio:>7.2f}{' !' if outside else ''}")
    only_base = sorted(set(baseline) - set(fresh))
    only_fresh = sorted(set(fresh) - set(baseline))
    if only_base:
        print(f"only in {argv[1]}: {', '.join(only_base)}")
    if only_fresh:
        print(f"only in {argv[2]}: {', '.join(only_fresh)}")
    print(f"{len(matched)} rows matched, {len(flagged)} outside the "
          f"{NOISE_FACTOR}x noise factor")
    if flagged:
        # GitHub Actions renders this line as a warning annotation.
        print(f"::warning title=bench drift::{len(flagged)} rows of "
              f"{argv[2]} differ from {argv[1]} by more than "
              f"{NOISE_FACTOR}x: {', '.join(flagged)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
