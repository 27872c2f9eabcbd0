"""Run one command; report its wall time, exit code and peak RSS.

The benchmark starts this small script as a fresh process for every
CLI command.  A forked child's peak RSS starts from its parent's RSS,
so the peak the kernel reports for a command started straight from
the benchmark would include the benchmark's own memory.  Started from
here, the command's peak (``RUSAGE_CHILDREN``: the command and every
process it reaped) covers that command alone.

Usage: python3 measure_child.py REPORT TIMEOUT COMMAND...
writes ``{"wall": s, "code": exit code, "maxrss_kb": peak}`` to REPORT.
"""

import json
import resource
import subprocess
import sys
import time


def main(argv):
    report, timeout, command = argv[0], float(argv[1]), argv[2:]
    started = time.perf_counter()
    proc = subprocess.Popen(command)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        code = proc.wait()
    wall = time.perf_counter() - started
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(report, "w") as handle:
        json.dump({"wall": wall, "code": code, "maxrss_kb": peak}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
