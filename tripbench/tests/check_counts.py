#!/usr/bin/env python3
"""Checks that the per-layer counts of traced cold_trip runs repeat exactly.

Runs the traced cold_trip twice on the same seed and compares every
per-layer metric whose unit is a count (count or bytes): sim.dynamic_ops,
opt.ops_hoisted, opt.o2_instrs, chain.sequences, cache.bytes_written,
asip.selected and the rest.  Counts are taken over the first pass of the
corpus, so they must not depend on timing; only counts that pass this
check may be cited as counts when comparing two versions of the program.

Run from the root of a checkout:

    python3 tripbench/tests/check_counts.py [--seed N] [--seconds S]

Exits 0 when every count repeats and is nonzero where the issue names it,
1 otherwise.
"""
import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "run.py")
NAMED = ["sim.dynamic_ops", "opt.ops_hoisted", "opt.o2_instrs", "chain.sequences",
         "cache.bytes_written", "asip.selected"]


def traced_counts(seed, seconds):
    out = subprocess.run([sys.executable, RUN, "--workload", "cold_trip", "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "1"],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("traced run reported a mismatch")
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "bytes")}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    first = traced_counts(args.seed, args.seconds)
    second = traced_counts(args.seed, args.seconds)
    ok = True
    for name in sorted(first):
        same = first[name] == second.get(name)
        ok &= same
        print("%-24s %14d %14d %s" % (name, first[name], second.get(name, -1),
                                      "ok" if same else "DIFFERS"))
    for name in NAMED:
        if not first.get(name):
            print("%s is missing or zero" % name)
            ok = False
    print("counts repeat exactly" if ok else "counts do NOT repeat")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
