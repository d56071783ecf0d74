"""Drive one CLI child process and time it from a single client.

The child and the client are pinned to different cores.  Children are
started by launcher.py, which runs on the child's core, reports each child's peak RSS from
``os.wait4`` on that child alone (``RUSAGE_CHILDREN`` keeps the maximum over
every child ever reaped) and kills a child that runs past its deadline; the
client then sees end of output.
"""
from __future__ import annotations

import json
import math
import os
import select
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ERROR_LINE = b"error unknown-edge\n"
READ_SIZE = 1 << 20
STALL_MS = 10_000  # after the first answer, a silent child this long is hung


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Cores:
    """Where the CLI child and the client run; None means unpinned."""

    cli: int | None
    client: int | None

    @classmethod
    def pick(cls) -> "Cores":
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) < 2:
            return cls(None, None)
        return cls(cpus[0], cpus[1])

    def pin_client(self) -> None:
        if self.client is not None:
            os.sched_setaffinity(0, {self.client})

    def pin_to_cli(self) -> None:
        """Run in-process work where the CLI child would run."""
        if self.cli is not None:
            os.sched_setaffinity(0, {self.cli})


class Launcher:
    """The small process that starts every child (see launcher.py)."""

    def __init__(self, cores: Cores, env: dict):
        self._sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        script = Path(__file__).with_name("launcher.py")
        core = -1 if cores.cli is None else cores.cli
        self._proc = subprocess.Popen(
            [sys.executable, str(script), str(theirs.fileno()), str(core)],
            pass_fds=[theirs.fileno()], env=env)
        theirs.close()

    def start(self, argv: list[str], cwd: Path, stderr_path: Path,
              deadline_s: float) -> "Child":
        """Start argv with pipes for stdin and stdout; it is killed at the deadline."""
        child_in, to_child = os.pipe()
        from_child, child_out = os.pipe()
        with open(stderr_path, "wb") as err:
            launched = time.perf_counter()
            request = {"argv": argv, "cwd": str(cwd), "deadline_s": max(deadline_s, 0.0)}
            socket.send_fds(self._sock, [json.dumps(request).encode()],
                            [child_in, child_out, err.fileno()])
        os.close(child_in)
        os.close(child_out)
        reply = self._reply()
        if "pid" not in reply:
            os.close(to_child)
            os.close(from_child)
            raise OSError(f"cannot start {argv[:3]}: {reply.get('error')}")
        return Child(self, reply["pid"], to_child, from_child, launched)

    def _reply(self) -> dict:
        return json.loads(self._sock.recv(1 << 16))

    def close(self) -> None:
        """Stop the launcher and wait for it."""
        self._sock.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:  # still waiting on a child
            self._proc.kill()
            self._proc.wait()


@dataclass
class Child:
    """A running child: the write end of its stdin and read end of its stdout."""

    launcher: Launcher
    pid: int
    stdin: int | None
    stdout: int | None
    launched: float

    def kill(self) -> None:
        try:
            os.kill(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def close_stdin(self) -> None:
        if self.stdin is not None:
            os.close(self.stdin)
            self.stdin = None

    def finish(self) -> tuple[int, float, float]:
        """Close the pipes and wait: (exit code, exit time, peak RSS in MB)."""
        self.close_stdin()
        if self.stdout is not None:
            os.close(self.stdout)
            self.stdout = None
        reply = self.launcher._reply()
        return reply["exit"], time.perf_counter(), reply["maxrss_kb"] / 1024


def complete(answer: bytes) -> bool:
    return answer.endswith(b"\n\n") or answer == ERROR_LINE


def read_answer(fd: int, poller: select.poll, stall_ms: int) -> bytes:
    """Read one serve answer in bulk: up to its blank line, or the error line.
    Returns what was read so far if the child closes its output first or
    sends nothing for `stall_ms`."""
    buf = b""
    while poller.poll(stall_ms):
        chunk = os.read(fd, READ_SIZE)
        if not chunk:
            break
        buf += chunk
        if complete(buf):
            break
    return buf


@dataclass
class ServeTimes:
    setup_s: float  # launch until the first answer is fully read
    latencies_s: list[float]  # requests 2..N, write until answer read
    wall_s: float  # launch until exit
    rss_mb: float
    exit_code: int
    answers: list[bytes]  # one per request sent, possibly incomplete


def serve_session(launcher: Launcher, argv: list[str], requests: list[bytes], cwd: Path,
                  stderr_path: Path, deadline_s: float) -> ServeTimes:
    """Closed loop, one client: each request goes out after the last answer."""
    child = launcher.start(argv, cwd, stderr_path, deadline_s)
    win, rout = child.stdin, child.stdout
    poller = select.poll()
    poller.register(rout, select.POLLIN)
    stall_ms = int(max(deadline_s, 0.0) * 1000)  # the first answer waits for set-up
    answers, latencies = [], []
    first_read = last_read = child.launched
    perf = time.perf_counter
    try:
        for i, line in enumerate(requests):
            start = perf()
            os.write(win, line)
            answer = read_answer(rout, poller, stall_ms)
            last_read = perf()
            answers.append(answer)
            if i == 0:
                first_read = last_read
                stall_ms = STALL_MS
            else:
                latencies.append(last_read - start)
            if not complete(answer):
                child.kill()
                break
    except BrokenPipeError:
        pass
    code, exited, rss = child.finish()
    return ServeTimes(first_read - child.launched, latencies, exited - child.launched,
                      rss, code, answers)


@dataclass
class DumpTimes:
    setup_s: float  # launch until the header line is read
    marks: list[tuple[float, int]]  # (time, records read so far) after each read
    wall_s: float
    rss_mb: float
    exit_code: int


def dump_session(launcher: Launcher, argv: list[str], out_path: Path, cwd: Path,
                 stderr_path: Path, deadline_s: float) -> DumpTimes:
    """Copy the child's output to a file in bulk reads, noting when each read
    returned; nothing is parsed until the child has exited."""
    child = launcher.start(argv, cwd, stderr_path, deadline_s)
    child.close_stdin()
    rout = child.stdout
    marks = []
    lines = 0
    perf = time.perf_counter
    with open(out_path, "wb") as out:
        while chunk := os.read(rout, READ_SIZE):
            now = perf()
            out.write(chunk)
            lines += chunk.count(b"\n")
            marks.append((now, lines - 1))  # the header is not a record
    code, exited, rss = child.finish()
    first = next((t for t, n in marks if n >= 0), exited)
    return DumpTimes(first - child.launched, marks, exited - child.launched, rss, code)


def stub_argv(mode: str, size: int, count: int = 0) -> list[str]:
    """A stand-in server with the CLI's output sizes (see stub_server.py)."""
    stub = Path(__file__).with_name("stub_server.py")
    return [sys.executable, str(stub), mode, str(size), str(count)]
