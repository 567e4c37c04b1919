"""Starts the benchmark's child processes from a small process.

A child forked from the benchmark process keeps that process's resident
size until it execs, and Linux counts that in the child's peak RSS
(ru_maxrss). Forked from here instead, a child's peak is its own.

Protocol: one JSON request per stdin line, {"cmd", "env", "cwd", "stderr",
"timeout"}; one JSON reply per stdout line, {"returncode", "seconds",
"peak_kb"}. A child still running at its timeout is killed. The spawner
exits when its stdin closes.
"""
import json
import os
import subprocess
import sys
import threading
import time


def main():
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stderr"], "w", encoding="utf-8") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], env=req["env"], cwd=req["cwd"],
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            took = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"returncode": proc.returncode, "seconds": took,
                          "peak_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
