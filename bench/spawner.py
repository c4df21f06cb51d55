"""Start query processes on behalf of ``run.py`` from a small process.

    python3 -I -S bench/spawner.py

On exec, Linux carries the peak RSS of the address space being replaced into
the new program's max-RSS, and a process forked from ``run.py`` starts with
``run.py``'s address space.  Spawned from this process instead (about 9 MB
under ``-I -S``), a query's ``ru_maxrss`` is its own whenever it is larger
than this process's.

Protocol, one JSON array per line.  Request on stdin:
``[argv, stdout_path, stderr_path, timeout_s]``; ``argv[0]`` is an absolute
path and the environment is this process's.  Reply on stdout:
``[exit_code, spawned, reaped, cpu_s, maxrss_kb]``, where the two clock
readings are ``time.perf_counter()`` just before the spawn and just after
the reap.  A query still running after ``timeout_s`` is killed.  The process
exits when stdin closes.
"""

import json
import os
import signal
import sys
import time

WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def main() -> None:
    running = []

    def kill(signum, frame):
        for pid in running:
            os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    for line in sys.stdin:
        argv, out, err, timeout = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out, WRITE, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err, WRITE, 0o644),
        ]
        spawned = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        running.append(pid)
        signal.alarm(timeout)
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            signal.alarm(0)
            running.clear()
        reaped = time.perf_counter()
        reply = [os.waitstatus_to_exitcode(status), spawned, reaped,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss]
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
