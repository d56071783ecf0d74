"""Start the benchmark's child processes and report each one's exit and peak RSS.

    python3 launcher.py FD CORE

Linux starts a new program's peak-RSS count (``ru_maxrss``) at the RSS of
the process that started it, so a child started by the client would report
at least the client's own peak.  This small process, which holds nothing
else, starts every child instead.  It reads requests from the Unix
SOCK_SEQPACKET socket FD: a JSON message ``{"argv", "cwd", "deadline_s"}``
with the child's stdin, stdout and stderr attached as file descriptors.  It
answers ``{"pid"}`` once the child runs, kills the child at its deadline,
and answers ``{"exit", "maxrss_kb"}`` from ``os.wait4`` once it has ended.
It exits when the client closes the socket.  With CORE >= 0 it pins itself,
and so every child, to that core.
"""
import json
import os
import signal
import socket
import subprocess
import sys
import threading


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def main() -> int:
    sock = socket.socket(fileno=int(sys.argv[1]))
    if int(sys.argv[2]) >= 0:
        os.sched_setaffinity(0, {int(sys.argv[2])})
    while True:
        msg, fds, _, _ = socket.recv_fds(sock, 1 << 16, 3)
        if not msg:
            return 0
        req = json.loads(msg)
        try:
            proc = subprocess.Popen(req["argv"], stdin=fds[0], stdout=fds[1],
                                    stderr=fds[2], cwd=req["cwd"])
        except OSError as exc:
            sock.send(json.dumps({"error": str(exc)}).encode())
            continue
        finally:
            for fd in fds:
                os.close(fd)
        watchdog = threading.Timer(req["deadline_s"], _kill, (proc.pid,))
        watchdog.start()
        sock.send(json.dumps({"pid": proc.pid}).encode())
        _, status, usage = os.wait4(proc.pid, 0)
        watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        sock.send(json.dumps({"exit": proc.returncode,
                              "maxrss_kb": usage.ru_maxrss}).encode())


if __name__ == "__main__":
    sys.exit(main())
