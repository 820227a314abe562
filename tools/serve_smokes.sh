#!/usr/bin/env bash
# End-to-end smokes of asipfb_serve, shared by every CI leg.
#
#   tools/serve_smokes.sh <build-dir>
#
# Runs inside <build-dir> (scratch files land there) against
# <build-dir>/examples/asipfb_serve and the repository's examples/.  Exits
# nonzero on the first failed check.
set -euo pipefail

if [ "$#" -ne 1 ]; then
  echo "usage: $0 <build-dir>" >&2
  exit 2
fi
repo=$(cd "$(dirname "$0")/.." && pwd)
cd "$1"
serve=./examples/asipfb_serve
demo=$repo/examples/serve_demo.txt
expected=$repo/examples/serve_demo.expected
tcp_smoke=$repo/tools/serve_tcp_smoke.py

# The evaluation service end to end: a scripted session through the line
# protocol must reproduce the checked-in transcript byte for byte
# (responses are deterministic and printed in submission order), and
# malformed flags must fail loudly.
echo "== service smoke (stdio vs expected transcript)"
$serve --workers 4 < "$demo" | diff - "$expected"
if $serve --bogus-flag 2>/dev/null; then
  echo "asipfb_serve accepted a bogus flag" && exit 1
fi

# The TCP transport end to end: a socket client pipelines the same demo
# script through a 4-worker server and must receive the same bytes;
# SIGTERM must produce a clean drain and exit 0.
echo "== TCP smoke (socket transport vs expected transcript)"
python3 "$tcp_smoke" $serve "$demo" "$expected"

# One protocol interpreter serves both transports.  At one worker behind a
# one-slot queue nearly every request is parked and retried; stdio and TCP
# must still print the same bytes, and the stats line must report no
# rejections (parking is backpressure).  Every request is its own memo key
# (a distinct prune or floor), since a memo hit is answered on the
# transport thread and never queued: the --latency run's stage counters
# must show that the worker computed all 400.  A 2 MiB line on stdio gets
# the line-cap error and a clean exit, a closed stdin is EOF, and a port
# file on a full device must fail the TCP start.
echo "== transport agreement smoke"
python3 - > saturate.txt <<'EOF'
kinds = ["detect fir level=O1 prune=%g", "coverage fir level=O1 floor=%g",
         "detect edge level=O1 prune=%g", "coverage edge level=O1 floor=%g"]
for i in range(1, 401):
    print(i, kinds[i % 4] % (1 + i / 1000))
print("stats")
EOF
$serve --workers 1 --queue 1 < saturate.txt > saturate.out
[ "$(grep -c '"ok": true' saturate.out)" -eq 400 ] || { cat saturate.out; exit 1; }
grep -q '"submitted": 400, "completed": 400, "failed": 0, "rejected": 0,' saturate.out
python3 "$tcp_smoke" $serve saturate.txt saturate.out --workers 1 --queue 1
$serve --workers 1 --queue 1 --latency < saturate.txt > saturate-latency.out
python3 - saturate-latency.out <<'EOF' || { tail -n 1 saturate-latency.out; exit 1; }
import json, sys
stats = json.loads(open(sys.argv[1]).read().splitlines()[-1])
queued = stats["detect_runs"] + stats["coverage_runs"]
assert queued == 400, "%d of 400 requests reached the worker" % queued
EOF
python3 -c "print('x' * (2 << 20)); print('ping')" > longline.txt
$serve < longline.txt > longline.out
grep -qx '{"ok": false, "error": "protocol line exceeds 1048576 bytes"}' longline.out
[ "$(wc -l < longline.out)" -eq 1 ]
timeout 10 $serve <&- > closed.out
[ ! -s closed.out ]
code=0
timeout 10 $serve --tcp 0 --port-file /dev/full 2> portfile.err || code=$?
[ "$code" -eq 1 ] || { echo "port file on a full device: exit $code, want 1"; exit 1; }
grep -q 'cannot write port file' portfile.err

# Warm restart over the persistent artifact cache: the same scripted
# session in two processes at once over one empty --cache-dir (each
# appends to its own segment), then a third time after both exit.  Every
# transcript must stay byte-identical to the checked-in expected output (a
# warm start may never change a result), and the third run must be served
# wholly from the cache: hits, and no misses, writes or corrupt entries in
# its stderr summary (a payload that fails to decode is recomputed and
# written again, so writes=0 also catches a codec regression).  The
# directory must then hold segment files only.
echo "== warm-restart smoke (persistent artifact cache)"
rm -rf cache-smoke
$serve --workers 4 --cache-dir cache-smoke < "$demo" >run1.out 2>run1.err & first=$!
$serve --workers 4 --cache-dir cache-smoke < "$demo" >run2.out 2>run2.err & second=$!
wait $first
wait $second
diff run1.out "$expected"
diff run2.out "$expected"
$serve --workers 4 --cache-dir cache-smoke < "$demo" 2>run3.err | diff - "$expected"
grep "cache summary" run1.err run2.err run3.err
grep -Eq " hits=[1-9][0-9]* misses=0 writes=0 evictions=[0-9]+ corrupt=0 " run3.err || { echo "warm run was not served wholly from the cache"; cat run3.err; exit 1; }
stray=$(find cache-smoke -mindepth 1 ! -name 'seg-*.log')
[ -z "$stray" ] || { echo "cache directory holds more than segments: $stray"; exit 1; }

# The --latency stats line, over the now-warm cache: once over stdio and
# once over TCP.  Every line must be the expected one plus a latency_us on
# each response; the stats line must carry every documented key in order,
# and its store_* and baselines_disk must equal the stderr cache summary.
echo "== latency stats smoke (stdio and TCP, warm cache)"
$serve --workers 4 --latency --cache-dir cache-smoke < "$demo" > latency.out 2> latency.err
python3 "$tcp_smoke" $serve "$demo" --transcript latency-tcp.out --latency \
  --cache-dir cache-smoke > /dev/null 2> latency-tcp.err || { cat latency-tcp.err; exit 1; }
for run in latency latency-tcp; do
  python3 - "$expected" $run.out $run.err <<'EOF' || { echo "$run: stats check failed"; exit 1; }
import json, re, sys

KEYS = ["stats", "submitted", "completed", "failed", "rejected", "queue_depth",
        "compile", "optimize", "detect", "coverage", "extension", "sweep",
        "optimize_runs", "detect_runs", "coverage_runs", "extension_runs",
        "stage_hits", "sessions", "baselines_computed", "baselines_disk",
        "disk_hits", "disk_misses", "store_hits", "store_misses", "store_writes",
        "store_evictions", "store_corrupt", "uptime_seconds", "p50_latency_us",
        "p99_latency_us", "p999_latency_us", "max_latency_us"]
expected_path, out_path, err_path = sys.argv[1:]
want_lines = open(expected_path).read().splitlines()
got_lines = open(out_path).read().splitlines()
assert len(got_lines) == len(want_lines), (len(got_lines), len(want_lines))
stats = None
for want_line, got_line in zip(want_lines, got_lines):
    want, got = json.loads(want_line), json.loads(got_line)
    if "stats" in want:
        assert list(got) == KEYS, list(got)
        assert all(got[k] == v for k, v in want.items()), got_line
        stats = got
    else:
        if "id" in want:
            assert got.pop("latency_us") > 0, got_line
        assert got == want, got_line
assert stats is not None, "no stats line"
summary = re.search(r"cache summary: .* hits=(\d+) misses=(\d+) writes=(\d+) "
                    r"evictions=(\d+) corrupt=(\d+) baselines_disk=(\d+)",
                    open(err_path).read())
assert summary, "no cache summary"
fields = ["store_hits", "store_misses", "store_writes", "store_evictions",
          "store_corrupt", "baselines_disk"]
for field, value in zip(fields, summary.groups()):
    assert stats[field] == int(value), (field, stats[field], value)
assert stats["store_hits"] > 0 and stats["store_writes"] == 0, stats
assert stats["sessions"] == stats["baselines_computed"] + stats["baselines_disk"], stats
assert 0 < stats["p50_latency_us"] <= stats["p99_latency_us"] <= \
    stats["p999_latency_us"] <= stats["max_latency_us"], stats
EOF
done

# Hostile input: a source block 20,000 parentheses deep (~40 KB, far under
# the line cap) must get an error response instead of overflowing the
# parser's stack; ping must still answer afterwards and the server must
# exit 0.
echo "== deep-nesting smoke"
python3 -c "d = 20000; print('source deep 1'); print('int main() { return ' + '(' * d + '1' + ')' * d + '; }'); print('1 compile deep level=O1'); print('ping')" > deep.txt
$serve --workers 2 < deep.txt > deep.out
grep -q '"ok": false, "error": ".*nesting too deep' deep.out
grep -q '"pong": true' deep.out

# Hostile input: a source block of 1,000 sequential ifs, optimized and
# detected at O2.  Percolation must stay near-linear in program size
# (about a second here); the timeout turns a return of the per-hoist
# liveness rebuild, which took minutes, into a failure.
echo "== long-branch-chain smoke"
python3 - > chain.txt <<'EOF'
n = 1000
body = ["int x[%d];" % n, "int main() {", "  int s = 0;", "  int i;",
        "  for (i = 0; i < %d; i++) x[i] = (i * 37) %% 11;" % n]
body += ["  if (x[%d] > %d) { s = s + x[%d] * 3; }" % (k, k % 7, k)
         for k in range(n)]
body += ["  return s;", "}"]
print("source chain %d" % len(body))
print("\n".join(body))
print("1 optimize chain level=O2")
print("2 detect chain level=O2")
print("ping")
EOF
timeout 60 $serve --workers 2 < chain.txt > chain.out
[ "$(grep -c '"ok": true' chain.out)" -eq 2 ] || { cat chain.out; exit 1; }
grep -q '"pong": true' chain.out

# Hostile input: globals whose layout would wrap past 2^32 words must get
# the compile diagnostic (they once crashed the process), and an 8 GB
# array that the program touches once must be answered from the pages it
# touches, or refused by name if the kernel will not map it.  ping must
# still answer afterwards and the server must exit 0.
echo "== hostile-globals smoke"
python3 - > globals.txt <<'EOF'
wrap = ["int a[2000000000];", "int b[2000000000];", "int c[300000000] = {7};",
        "int main() { return c[0]; }"]
big = ["int a[2000000000]; int main() { a[1999999999] = 1; return a[1999999999]; }"]
for i, (name, body) in enumerate([("wrap", wrap), ("big", big)], 1):
    print("source %s %d" % (name, len(body)))
    print("\n".join(body))
    print("%d compile %s" % (i, name))
print("ping")
EOF
timeout 10 $serve --workers 2 < globals.txt > globals.out || { cat globals.out; exit 1; }
grep -q '"id": 1, .*"ok": false, "error": ".*global .c. does not fit in simulator memory' globals.out || { cat globals.out; exit 1; }
grep -Eq '"id": 2, .*("ok": true, .*"exit": 1,|"ok": false, "error": "cannot map )' globals.out || { cat globals.out; exit 1; }
grep -q '"pong": true' globals.out

echo "serve smokes: all passed"
