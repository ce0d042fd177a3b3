"""Run one command; write its wall time, CPU time, peak RSS and exit code.

    python3 bench/spawn.py RESULT_FILE -- COMMAND [ARG...]

The peak RSS that wait4 reports for a child includes the address space the
child was forked (or vforked) from, so a CLI started straight from the
benchmark process would carry the benchmark's own memory.  This launcher is
small, and the command is forked from it.  Wall time runs from the fork to
the command's exit; CPU time is user + system of the command and of every
process it waited for.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: spawn.py RESULT_FILE -- COMMAND [ARG...]", file=sys.stderr)
        return 2
    result, command = argv[0], argv[2:]
    start = perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(command[0], command)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = perf_counter() - start
    with open(result, "w", encoding="utf-8") as out:
        json.dump(
            {
                "wall": wall,
                "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024,
                "code": os.waitstatus_to_exitcode(status),
            },
            out,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
