#!/usr/bin/env python3
"""End-to-end smoke of the asipfb_serve TCP front end.

Starts `asipfb_serve --tcp 0` (ephemeral port, written to a port file),
drives the checked-in demo script through a single pipelined socket
connection (everything written before anything is read), and requires the
response stream to be byte-identical to the stdio transcript
(examples/serve_demo.expected).  Then sends SIGTERM and requires a clean
exit code 0 (graceful drain + shutdown).

Usage:
    serve_tcp_smoke.py <asipfb_serve-binary> <demo-script> <expected> \
        [--workers N] [--queue N] [--latency] [--cache-dir DIR]
    serve_tcp_smoke.py <asipfb_serve-binary> <demo-script> \
        --transcript OUT [options as above]

The default --workers 4 keeps the ping line's worker count identical to
the stdio smoke's.  --queue passes the queue capacity through, so a
stdio transcript taken at the same capacity can be the expected file.  --latency and --cache-dir pass through to the
server; with --transcript the response stream is written to OUT instead
of compared (a --latency stream carries timings, so the caller checks it
field by field).  The server's stderr, cache summary included, is this
script's stderr.
"""

import argparse
import pathlib
import signal
import socket
import subprocess
import sys
import tempfile
import time


def wait_for_port_file(path: pathlib.Path, proc: subprocess.Popen,
                       timeout: float = 30.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(
                f"server exited early with code {proc.returncode}")
        try:
            text = path.read_text().strip()
            if text:
                return int(text)
        except (FileNotFoundError, ValueError):
            pass
        time.sleep(0.05)
    raise SystemExit("timed out waiting for the port file")


def drive_connection(port: int, script: bytes) -> bytes:
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.settimeout(60)
        # Fully pipelined: the whole script goes out before the first read,
        # so response ordering comes purely from the server's slot queue.
        sock.sendall(script)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
        return b"".join(chunks)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("server", type=pathlib.Path)
    parser.add_argument("script", type=pathlib.Path)
    parser.add_argument("expected", type=pathlib.Path, nargs="?")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--queue", type=int)
    parser.add_argument("--latency", action="store_true")
    parser.add_argument("--cache-dir")
    parser.add_argument("--transcript", type=pathlib.Path)
    args = parser.parse_args()
    if (args.expected is None) == (args.transcript is None):
        parser.error("give exactly one of <expected> and --transcript")

    script = args.script.read_bytes()
    expected = None if args.expected is None else args.expected.read_bytes()

    with tempfile.TemporaryDirectory() as tmp:
        port_file = pathlib.Path(tmp) / "port"
        cmd = [
            str(args.server), "--tcp", "0", "--workers", str(args.workers),
            "--port-file", str(port_file),
        ]
        if args.queue is not None:
            cmd += ["--queue", str(args.queue)]
        if args.latency:
            cmd.append("--latency")
        if args.cache_dir is not None:
            cmd += ["--cache-dir", args.cache_dir]
        proc = subprocess.Popen(cmd)
        try:
            port = wait_for_port_file(port_file, proc)
            got = drive_connection(port, script)
            if expected is None:
                args.transcript.write_bytes(got)
            elif got != expected:
                sys.stderr.write(
                    "TCP transcript diverged from the stdio expected file\n"
                    f"--- expected ({len(expected)} bytes)\n"
                    f"+++ got ({len(got)} bytes)\n")
                for i, (e, g) in enumerate(
                        zip(expected.splitlines(), got.splitlines())):
                    if e != g:
                        sys.stderr.write(f"line {i + 1}:\n- {e!r}\n+ {g!r}\n")
                        break
                return 1
            # A second, sequential connection against the same deployment:
            # per-connection state (sources, pipelining) must not leak
            # between connections; only the cumulative stats line differs,
            # so drive a stateless probe.
            probe = drive_connection(port, b"ping\nquit\n")
            if not probe.startswith(b'{"pong": true'):
                sys.stderr.write(f"bad ping over second connection: {probe!r}\n")
                return 1
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                code = proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                sys.stderr.write("server did not exit on SIGTERM\n")
                return 1
        if code != 0:
            sys.stderr.write(f"server exited {code} after SIGTERM\n")
            return 1
    print("serve_tcp_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
