"""Run one command; print its wall seconds, exit code and peak RSS as JSON.

    python3 bench/launch.py STDERR_PATH TIMEOUT_S PROGRAM [ARG ...]

A child's peak RSS starts from what its parent held when it forked, so the
benchmark, which holds the workload and its oracles, starts each command
through this small process instead of forking it directly.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    stderr_path, timeout, *argv = sys.argv[1:]
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(float(timeout), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "code": proc.returncode,
                      "rss_mb": usage.ru_maxrss / 1024.0}))


if __name__ == "__main__":
    main()
