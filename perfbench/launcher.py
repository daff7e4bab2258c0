"""Spawns and times CLI runs on behalf of the benchmark, from a small process.

A child's peak RSS as ``os.wait4`` reports it is at least the peak RSS of
the process that spawned it (Linux carries the high-water mark across
fork and exec).  The benchmark process grows as it generates traces and
runs the library loop, so it starts this launcher first, while it is still
small, and has it spawn every ``slicemon`` child.

Protocol: one JSON request per line on stdin, ``{"argv", "stdin", "stdout",
"stderr", "cwd"}`` (``stdin`` may be null; the others are paths), and one
JSON reply per line on stdout, ``{"wall_s", "first_line_s", "maxrss_kb",
"exit_code", "kernel_s"}``.  The child's stdout and stderr go to the named
files.  ``kernel_s`` holds the reference kernel's times just before the
spawn and just after the reap (see ``reference.py``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from reference import kernel_s


def run(request: dict) -> dict:
    """Spawn, read stdout to EOF, and reap the child with ``os.wait4``.

    Stdout is drained completely: closing it early would make the CLI die
    with ``BrokenPipeError``.  Stderr goes straight to a file so that no
    second pipe can fill up while stdout is read.
    """
    before = kernel_s()
    stdin = open(request["stdin"], "rb") if request["stdin"] else subprocess.DEVNULL
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        try:
            started = time.perf_counter()
            child = subprocess.Popen(
                request["argv"], stdin=stdin, stdout=subprocess.PIPE, stderr=err,
                cwd=request["cwd"],
            )
        finally:
            if request["stdin"]:
                stdin.close()
        first_line = None
        fd = child.stdout.fileno()
        while True:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            if first_line is None and b"\n" in chunk:
                first_line = time.perf_counter() - started
            out.write(chunk)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - started
        child.returncode = os.waitstatus_to_exitcode(status)
        child.stdout.close()
    return {
        "wall_s": wall,
        "first_line_s": first_line,
        "maxrss_kb": usage.ru_maxrss,
        "exit_code": child.returncode,
        "kernel_s": [before, kernel_s()],
    }


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
