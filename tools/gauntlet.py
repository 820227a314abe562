#!/usr/bin/env python3
"""Sharded driver for the differential gauntlet (bench/bench_gauntlet.cpp).

Usage: gauntlet.py --binary build/bench/bench_gauntlet [--count N]
                   [--mutants M] [--seed S] [--shards K] [--out OUT.json]

Fans the population out over K shard processes (each runs the scenarios
with index % K == shard), merges their partial JSON artifacts into one
BENCH_gauntlet.json, prints a per-family summary, and exits nonzero if
any shard failed, reported a mismatch, or the merged population is
smaller than count * (1 + mutants).

Every distribution in the shard JSON is carried as sum/min/max/count, so
the merge is exact: sums and counts add, mins and maxes combine — the
merged means equal a single-process run's.

Stdlib only.
"""
import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path


def merge_distribution(acc: dict, piece: dict) -> dict:
    if acc["count"] == 0:
        return dict(piece)
    if piece["count"] == 0:
        return acc
    return {
        "sum": acc["sum"] + piece["sum"],
        "min": min(acc["min"], piece["min"]),
        "max": max(acc["max"], piece["max"]),
        "count": acc["count"] + piece["count"],
    }


def merge_reports(reports: list[dict]) -> dict:
    merged = {
        "bench": "gauntlet",
        "spec": dict(reports[0]["spec"]),
        "programs": {"total": 0, "base": 0, "mutants": 0},
        "mismatches": {"total": 0, "compile": 0, "oracle": 0, "levels": 0},
        "rewrites": {},
        "families": [],
    }
    merged["spec"]["shard_index"] = 0
    merged["spec"]["shard_total"] = 1
    merged["spec"]["shards_merged"] = len(reports)
    families: dict[str, dict] = {}
    for report in reports:
        for key in merged["programs"]:
            merged["programs"][key] += report["programs"][key]
        for key in merged["mismatches"]:
            merged["mismatches"][key] += report["mismatches"][key]
        for name, count in report.get("rewrites", {}).items():
            merged["rewrites"][name] = merged["rewrites"].get(name, 0) + count
        for fam in report["families"]:
            name = fam["family"]
            if name not in families:
                families[name] = {
                    "family": name, "base": 0, "programs": 0,
                    "detect_sequences": {"sum": 0, "min": 0, "max": 0, "count": 0},
                    "coverage": {"sum": 0, "min": 0, "max": 0, "count": 0},
                    "cycles": {"sum": 0, "min": 0, "max": 0, "count": 0},
                }
            acc = families[name]
            acc["base"] += fam["base"]
            acc["programs"] += fam["programs"]
            for key in ("detect_sequences", "coverage", "cycles"):
                acc[key] = merge_distribution(acc[key], fam[key])
    merged["families"] = [families[name] for name in sorted(families)]
    return merged


def print_summary(merged: dict) -> None:
    programs = merged["programs"]
    mismatches = merged["mismatches"]
    print(f"gauntlet: {programs['total']} programs "
          f"({programs['base']} base + {programs['mutants']} mutants), "
          f"{mismatches['total']} mismatches")
    for fam in merged["families"]:
        seq = fam["detect_sequences"]
        cov = fam["coverage"]
        seq_mean = seq["sum"] / seq["count"] if seq["count"] else 0.0
        cov_mean = cov["sum"] / cov["count"] if cov["count"] else 0.0
        print(f"  {fam['family']:>8}: {fam['base']:5d} base, "
              f"{fam['programs']:5d} programs, "
              f"seq@O1 mean {seq_mean:7.2f} [{seq['min']:.0f}, {seq['max']:.0f}], "
              f"coverage mean {cov_mean:7.2f} [{cov['min']:.2f}, {cov['max']:.2f}]")
    if merged.get("rewrites"):
        applied = ", ".join(f"{k}={v}" for k, v in
                            sorted(merged["rewrites"].items()))
        print(f"  rewrites applied: {applied}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Run the differential gauntlet across shard processes.")
    parser.add_argument("--binary", type=Path, required=True,
                        help="path to the bench_gauntlet executable")
    parser.add_argument("--count", type=int, default=125,
                        help="base scenarios (programs = count * (1 + mutants))")
    parser.add_argument("--mutants", type=int, default=3)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--out", type=Path, default=Path("BENCH_gauntlet.json"))
    args = parser.parse_args(argv[1:])
    if not args.binary.exists():
        print(f"gauntlet: no such binary {args.binary}", file=sys.stderr)
        return 2
    shards = max(1, min(args.shards, args.count))

    with tempfile.TemporaryDirectory(prefix="gauntlet_") as tmp:
        procs = []
        for shard in range(shards):
            out = Path(tmp) / f"shard_{shard}.json"
            cmd = [str(args.binary), str(out),
                   "--count", str(args.count),
                   "--mutants", str(args.mutants),
                   "--shard", f"{shard}/{shards}",
                   "--benchmark_filter=^$"]
            if args.seed is not None:
                cmd += ["--seed", str(args.seed)]
            procs.append((shard, out,
                          subprocess.Popen(cmd, stdout=subprocess.DEVNULL)))
        failures = 0
        reports = []
        for shard, out, proc in procs:
            status = proc.wait()
            if status != 0:
                print(f"gauntlet: shard {shard}/{shards} exited {status}",
                      file=sys.stderr)
                failures += 1
            try:
                reports.append(json.loads(out.read_text(encoding="utf-8")))
            except (OSError, ValueError) as ex:
                print(f"gauntlet: shard {shard}/{shards} artifact unreadable "
                      f"({ex})", file=sys.stderr)
                failures += 1

    if not reports:
        print("gauntlet: no shard produced an artifact", file=sys.stderr)
        return 1
    merged = merge_reports(reports)
    args.out.write_text(json.dumps(merged, indent=2) + "\n", encoding="utf-8")
    print_summary(merged)

    expected = args.count * (1 + args.mutants)
    if merged["programs"]["total"] != expected:
        print(f"gauntlet: merged population {merged['programs']['total']} != "
              f"expected {expected}", file=sys.stderr)
        failures += 1
    if merged["mismatches"]["total"] != 0:
        print(f"gauntlet: {merged['mismatches']['total']} differential "
              f"mismatches", file=sys.stderr)
        failures += 1
    if failures:
        return 1
    print(f"gauntlet passed: {expected} programs, 0 mismatches -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
