#!/usr/bin/env python3
"""Perf-regression gate over BENCH_*.json artifacts.

Usage: check_perf.py [--baseline-dir DIR] [--tolerance T] MEASURED.json ...

For every measured artifact, loads the baseline of the same file name from
the baseline directory (default: bench/baselines/ next to this script's
repo root).  A baseline file maps dotted metric paths into the measured
JSON to the minimum expected value:

    {"metrics": {"suite_ops_per_sec": 2.0e8, "warm.0.requests_per_sec": 1e4}}

and may also map paths to maximum allowed values ("ceilings" — latency
quantiles and other lower-is-better metrics):

    {"metrics": {...}, "ceilings": {"open_loop_p99_us": 1.5e5}}

A third section, "ratios", holds floors that are checked at FACE VALUE —
no tolerance scaling:

    {"metrics": {...}, "ratios": {"restart_speedup": 3.0}}

Ratio metrics are A/B comparisons taken on one host in one CI step (e.g.
trips served from a populated on-disk artifact cache vs trips that fill
an empty one), so runner speed cancels out and the generous absolute-throughput
tolerance would only mask a real regression.

Path segments index objects by key and arrays by integer.  A measured
metric below tolerance * baseline fails the gate, as does one above
ceiling / tolerance; the tolerance is deliberately generous (default 0.5:
fail below 50% of a floor or above 2x a ceiling) — this catches
collapses, not jitter.  Baselines are conservative bounds for the slowest
expected CI runner, not records.  Missing metrics and unreadable files
fail too, so a renamed key cannot silently disable the gate.

Stdlib only.  Exits nonzero listing every failure.
"""
import argparse
import json
import sys
from pathlib import Path


def lookup(doc, path: str):
    """Resolves a dotted path ('warm.0.requests_per_sec') in parsed JSON."""
    node = doc
    for part in path.split("."):
        if isinstance(node, list):
            node = node[int(part)]
        elif isinstance(node, dict):
            node = node[part]
        else:
            raise KeyError(part)
    if not isinstance(node, (int, float)) or isinstance(node, bool):
        raise KeyError(f"{path} is not numeric")
    return float(node)


def check_artifact(measured_path: Path, baseline_path: Path,
                   tolerance: float) -> list[str]:
    errors = []
    try:
        measured = json.loads(measured_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as ex:
        return [f"{measured_path}: unreadable measured artifact ({ex})"]
    try:
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        metrics = baseline["metrics"]
        ceilings = baseline.get("ceilings", {})
        ratios = baseline.get("ratios", {})
    except (OSError, ValueError, KeyError) as ex:
        return [f"{baseline_path}: unreadable baseline ({ex})"]

    for path, floor in metrics.items():
        try:
            value = lookup(measured, path)
        except (KeyError, IndexError, ValueError):
            errors.append(f"{measured_path}: metric '{path}' missing")
            continue
        required = tolerance * float(floor)
        verdict = "ok" if value >= required else "FAIL"
        print(f"  {verdict}  {path}: measured {value:.4g}, "
              f"baseline {float(floor):.4g}, floor {required:.4g}")
        if value < required:
            errors.append(
                f"{measured_path}: {path} = {value:.4g} is below "
                f"{tolerance:.0%} of baseline {float(floor):.4g}")

    for path, ceiling in ceilings.items():
        try:
            value = lookup(measured, path)
        except (KeyError, IndexError, ValueError):
            errors.append(f"{measured_path}: metric '{path}' missing")
            continue
        allowed = float(ceiling) / tolerance
        verdict = "ok" if value <= allowed else "FAIL"
        print(f"  {verdict}  {path}: measured {value:.4g}, "
              f"baseline {float(ceiling):.4g}, ceiling {allowed:.4g}")
        if value > allowed:
            errors.append(
                f"{measured_path}: {path} = {value:.4g} is above "
                f"{1 / tolerance:.3g}x baseline ceiling {float(ceiling):.4g}")

    for path, floor in ratios.items():
        try:
            value = lookup(measured, path)
        except (KeyError, IndexError, ValueError):
            errors.append(f"{measured_path}: metric '{path}' missing")
            continue
        verdict = "ok" if value >= float(floor) else "FAIL"
        print(f"  {verdict}  {path}: measured {value:.4g}, "
              f"ratio floor {float(floor):.4g} (face value)")
        if value < float(floor):
            errors.append(
                f"{measured_path}: {path} = {value:.4g} is below the "
                f"face-value ratio floor {float(floor):.4g}")
    return errors


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Compare BENCH_*.json against checked-in baselines.")
    parser.add_argument("measured", nargs="+", type=Path)
    parser.add_argument("--baseline-dir", type=Path,
                        default=Path(__file__).resolve().parent.parent /
                        "bench" / "baselines")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="fail below tolerance * baseline (default 0.5)")
    args = parser.parse_args(argv[1:])

    errors = []
    for measured in args.measured:
        baseline = args.baseline_dir / measured.name
        print(f"{measured} vs {baseline} (tolerance {args.tolerance:.0%}):")
        errors += check_artifact(measured, baseline, args.tolerance)
    if errors:
        print("\nperf gate FAILED:", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
