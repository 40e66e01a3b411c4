"""Start and time the benchmark's children from a process that stays small.

Linux counts a child's ``ru_maxrss`` from the memory of the process that
forked it, so a child started straight from ``run.py``, which holds large
outputs while it checks them, would report ``run.py``'s peak instead of its
own.  This process holds nothing.  It reads one JSON request per line on
stdin, ``{"argv": [...], "stdout": path, "stderr": path}``, runs the command
with its output sent to those files, and answers with one JSON line: exit
code, wall time from spawn to exit, CPU time and peak RSS in KiB.  Children
get this process's environment.  A child still running after ``TIMEOUT_S``
is killed.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

TIMEOUT_S = 150


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


def run(argv: list[str], stdout: str, stderr: str) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644),
    ]
    signal.alarm(TIMEOUT_S)
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException as exc:
        signal.alarm(0)
        os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        if not isinstance(exc, Timeout):
            raise
    signal.alarm(0)
    return {
        "code": os.waitstatus_to_exitcode(status),
        "wall_s": time.perf_counter() - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
    }


def main() -> None:
    signal.signal(signal.SIGALRM, _alarm)
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(run(request["argv"], request["stdout"], request["stderr"])), flush=True)


if __name__ == "__main__":
    main()
