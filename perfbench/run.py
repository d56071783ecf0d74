"""End-to-end benchmark of the served path: ``bptol serve`` and ``bptol all``.

    python3 perfbench/run.py --workload serve-build --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The benchmark generates the graph, pairs
and requests from ``--seed``, runs the CLI from ``src/`` as a child process
driven by one client, checks every answer, and prints one JSON object as the
last line of its output.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` makes the traced run of tracing.py and reports per-layer
metrics.  Without ``--workload`` it runs every workload in turn.  See
README.md for the workloads, the metrics and what each layer metric should
move.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import instances
from checks import AnswerChecker, DefinitionChecker, Record
from session import (ERROR_LINE, Cores, Launcher, dump_session, percentile,
                     serve_session)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

RUN_LIMIT_S = 150  # start no session that would end after this
RUN_DEADLINE_S = 165  # kill any child still running; the run must end by 180 s
MIN_SESSIONS = 3  # sessions per run even past --seconds; untraced ones in a traced run
ENDPOINT_SHARE = 0.25
INVALID_SHARE = 0.02
DUMP_WINDOW_EDGES = 64
DUMP_CHECK_EDGES = 4096
DEFINITION_SAMPLE = 2  # records checked by definition per kind, see check_definition
TARGET_PAIRS = 2  # pairs whose tree-path targets are checked by definition


@dataclass(frozen=True)
class Workload:
    family: str  # "uniform" or "deep", see instances.py
    n: int
    m: int
    k: int
    command: str  # "serve" or "all"
    requests: int  # per serve session, the same in every session; all reads none

    def instance(self, seed: int) -> instances.Instance:
        make = {"uniform": instances.uniform_instance,
                "deep": instances.deep_instance}[self.family]
        return make(self.n, self.m, self.k, seed)


# Why each workload exists is in README.md.
WORKLOADS = {
    "serve-build": Workload("uniform", 100_000, 500_000, 1000, "serve", 500),
    "dump-deep": Workload("deep", 10_000, 40_000, 8, "all", 0),
}


class Run:
    """Inputs and bookkeeping shared by the sessions of one run."""

    def __init__(self, name: str, seed: int, cores: Cores):
        self.seed = seed
        self.wl = WORKLOADS[name]
        self.started = time.perf_counter()
        self.work = WORK / f"{name}-{os.getpid()}"  # runs in one checkout stay apart
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.inst = self.wl.instance(seed)
        self.graph_path = self.work / "graph.txt"
        self.pairs_path = self.work / "pairs.txt"
        self.inst.write(self.graph_path, self.pairs_path)
        self.cores = cores
        self.cores.pin_client()
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
        self.definition = DefinitionChecker(self.inst)
        gen = np.random.default_rng([seed, 6])
        self.targets = {(edge, pair)
                        for pair in gen.choice(self.inst.k, TARGET_PAIRS, replace=False).tolist()
                        for edge in self.definition.targets(pair)}
        self.checker = AnswerChecker(self.inst, watch=self.targets)
        self.requests = self.script(self.wl.requests) if self.wl.command == "serve" else []
        self.launcher = Launcher(self.cores, self.env)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []  # printed before the result line
        self.answered: list[int] = []  # edges with a checked answer
        self.measure_start = time.perf_counter()

    def close(self) -> None:
        self.launcher.close()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another workload's files are still there
            pass

    def argv(self) -> list[str]:
        return [sys.executable, "-m", "bptol.cli", self.wl.command,
                str(self.graph_path), str(self.pairs_path)]

    def deadline(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 5:
            self.problems.append(problem)

    def session(self, session: int, reference: dict):
        """One checked CLI session; `reference` carries what earlier sessions
        answered (see serve and dump)."""
        if self.wl.command == "serve":
            return self.serve(session, reference)
        return self.dump(session, reference)

    # -- serve ---------------------------------------------------------------

    def script(self, count: int) -> list[instances.Request]:
        """The run's seeded requests, which also ask for every target edge
        at seeded places after the first request."""
        requests = instances.request_script(self.inst, count, ENDPOINT_SHARE,
                                            INVALID_SHARE, self.seed)
        gen = np.random.default_rng([self.seed, 7])
        for edge in sorted({edge for edge, _ in self.targets}):
            at = 1 + int(gen.integers(len(requests)))
            requests.insert(at, instances.Request(f"edge {edge}\n".encode(), edge))
        return requests

    def serve(self, session: int, reference: dict):
        """Replay the run's requests in a new CLI session and check the answers;
        an answer byte-identical to an earlier session's (`reference` maps
        request index to its digest and verdict) keeps that verdict."""
        requests = self.requests
        times = serve_session(self.launcher, self.argv(), [r.line for r in requests],
                              ROOT, self.work / f"stderr-{session}.txt", self.deadline())
        self.attempted += len(requests)
        for i, (req, answer) in enumerate(zip(requests, times.answers)):
            digest = hashlib.blake2b(answer, digest_size=16).digest()
            if i in reference and reference[i][0] == digest:
                problem = reference[i][1]
            else:
                problem = self._check_request(req, answer)
                reference[i] = (digest, problem)
                if req.edge and not problem:
                    self.answered.append(req.edge)
            if problem:
                self.fail(1, f"request {req.line!r}: {problem}")
        self._check_exit(times.exit_code, len(requests) - len(times.answers), session)
        return times

    def _check_request(self, req: instances.Request, answer: bytes) -> str | None:
        if req.edge == 0:
            return None if answer == ERROR_LINE else f"invalid request got {answer[:60]!r}"
        if answer == ERROR_LINE:
            return "got the error line"
        return self.checker.check_answer(answer, req.edge)

    # -- all -----------------------------------------------------------------

    def dump(self, session: int, reference: dict):
        out = self.work / f"all-{session}.txt"
        times = dump_session(self.launcher, self.argv(), out, ROOT,
                             self.work / f"stderr-{session}.txt", self.deadline())
        m = self.inst.m
        self.attempted += m
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        if reference.get("digest") == digest:
            checked = reference["edges"]
        else:
            checked = self._check_dump(out)
            if "digest" in reference:
                self.fail(1, f"session {session}: output differs from an earlier session's")
            else:
                reference.update(digest=digest, edges=checked)
                self.answered.extend(range(1, checked + 1))
        if checked < m:
            self.fail(m - checked, f"session {session}: {m - checked} edges missing or wrong")
        self._check_exit(times.exit_code, 0, session)
        out.unlink()
        return times

    def _check_dump(self, out: Path) -> int:
        """Check a dump file; the number of leading edges that are right."""
        inst, k = self.inst, self.inst.k
        with open(out, "rb") as f:
            if f.readline() != f"{inst.n} {inst.m} {k}\n".encode():
                self.problems.append("dump header is wrong")
                return 0
            edge = 1
            while edge <= inst.m:
                edges = min(DUMP_CHECK_EDGES, inst.m - edge + 1)
                lines = [f.readline() for _ in range(edges * k)]
                if not lines[-1].endswith(b"\n"):
                    return edge - 1
                problem = self.checker.check_block([l[:-1] for l in lines], edge, edges)
                if problem:
                    self.problems.append(f"dump edges {edge}..: {problem}")
                    return edge - 1
                edge += edges
            if f.read(1):
                self.problems.append("dump has trailing output")
                return inst.m - 1
        return inst.m

    def _check_exit(self, code: int, unanswered: int, session: int) -> None:
        if code != 0:
            self.fail(max(1, unanswered), f"session {session} exited with {code}: "
                      f"{(self.work / f'stderr-{session}.txt').read_text()[-300:]}")
        elif unanswered:
            self.fail(unanswered, f"session {session}: {unanswered} requests unanswered")

    # -- definition check --------------------------------------------------

    def check_definition(self) -> None:
        """Check a seeded sample of records against the definition, off the clock:
        every target record (see DefinitionChecker.targets), whatever the CLI
        reported, and up to DEFINITION_SAMPLE each reported with a finite
        lower tolerance, with a finite upper tolerance, and with both infinite."""
        gen = np.random.default_rng([self.seed, 4])
        finite = self.checker.finite
        sample = [self.checker.watched[key] for key in sorted(self.targets)
                  if key in self.checker.watched]
        for kind in ([r for r in finite if r.lower is not None],
                     [r for r in finite if r.upper is not None]):
            sample += [kind[i] for i in gen.permutation(len(kind))[:DEFINITION_SAMPLE]]
        finite_keys = {(r.edge, r.pair) for r in finite}
        inf_records = 0
        for _ in range(50 * DEFINITION_SAMPLE):
            if not self.answered or inf_records == DEFINITION_SAMPLE:
                break
            edge = self.answered[int(gen.integers(len(self.answered)))]
            pair = int(gen.integers(self.inst.k))
            if (edge, pair) not in finite_keys:
                sample.append(Record(edge, pair, None, None))
                inf_records += 1
        for rec in sample:
            problem = self.definition.check(rec)
            if problem:
                self.fail(1, f"definition: {problem}")
        self.definition_checked = len(sample)


def dump_windows(marks: list[tuple[float, int]], m: int, k: int) -> list[float]:
    """Per-edge time over consecutive windows of DUMP_WINDOW_EDGES edges of a
    dump, from its (time, records read) marks.  The time a window's last
    record arrived is interpolated between the reads around it, so that
    windows line up across sessions."""
    times, counts = np.array(marks, dtype=float).reshape(-1, 2).T
    counts, first = np.unique(counts, return_index=True)  # reads that added a line
    times = times[first]
    # the first window starts after the first read, which also holds the header
    ends = np.arange(1, m // DUMP_WINDOW_EDGES + 1) * DUMP_WINDOW_EDGES * k
    ends = ends[ends <= (counts[-1] if len(counts) else -1)]
    if len(ends) < 2:
        return []
    arrived = np.interp(ends, counts, times)
    return (np.diff(arrived) / DUMP_WINDOW_EDGES).tolist()


def end_to_end(run: Run, seconds: float) -> dict:
    """Run sessions for `seconds` (at least MIN_SESSIONS) and summarise them.

    Every session replays the same input, so each timed unit (a serve
    request, or a window of a dump) is taken at its mean over the sessions,
    and the query figures over those per-unit means.  The machine's speed
    switches between a fast and a slow mode (see README.md); a unit's mean
    moves smoothly with the share of slow replays where a median would jump
    from one mode to the other, and the median over units leaves out the
    few units a long stall hit.  Set-up and wall time are the sessions'
    medians, peak RSS their largest."""
    wl = run.wl
    sessions = []
    reference: dict = {}
    while len(sessions) < MIN_SESSIONS or time.perf_counter() - run.measure_start < seconds:
        elapsed = time.perf_counter() - run.started
        per_session = elapsed / len(sessions) if sessions else 0
        if len(sessions) >= MIN_SESSIONS and elapsed + per_session > RUN_LIMIT_S:
            break
        sessions.append(run.session(len(sessions), reference))
    # serve: seconds per answer; all: seconds per edge over a window
    samples = [s.latencies_s if wl.command == "serve" else dump_windows(s.marks, wl.m, wl.k)
               for s in sessions]
    units = max(map(len, samples))
    if not units:
        raise RuntimeError("no answer was timed: " + "; ".join(run.problems))
    whole = [x for x in samples if len(x) == units]  # a session cut short has failed
    per_unit = np.mean(whole, axis=0).tolist()
    run.notes.append(f"{units} timed units, each the mean of {len(whole)} sessions")
    run.notes.append(f"{'query_p99_us':28s} {percentile(per_unit, 0.99) * 1e6:16.6f} us "
                     "(printed only, see README.md)")
    if wl.command == "all":
        run.notes.append(f"{'dump_records_per_s':28s} {wl.k * len(per_unit) / sum(per_unit):16.6f}"
                         " 1/s (printed only: query_rps times k)")
    for name, values in (("setup_s", [s.setup_s for s in sessions]),
                         ("wall_s", [s.wall_s for s in sessions]),
                         ("query_rps", [len(x) / sum(x) for x in samples if x])):
        run.notes.append(f"sessions {name} " + " ".join(f"{v:.6g}" for v in values))
    return {
        "setup_s": (statistics.median(s.setup_s for s in sessions), "s"),
        "query_p50_us": (statistics.median(per_unit) * 1e6, "us"),
        "query_rps": (len(per_unit) / sum(per_unit), "1/s"),
        "wall_s": (statistics.median(s.wall_s for s in sessions), "s"),
        "peak_rss_mb": (max(s.rss_mb for s in sessions), "MB"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, cores: Cores) -> None:
    """One run: print its metrics by name, then the JSON result line."""
    run = Run(name, seed, cores)
    try:
        if trace:
            import tracing
            metrics = tracing.traced_run(run, MIN_SESSIONS)
        else:
            metrics = end_to_end(run, seconds)
        run.check_definition()
    finally:
        run.close()

    print(f"workload {name} seed {seed} trace {int(trace)}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric:28s} {value:16.6f} {unit}")
    print(f"{'failed_frac':28s} {run.failed / max(run.attempted, 1):16.6f} "
          f"({run.failed}/{run.attempted}; definition-checked records: "
          f"{run.definition_checked})")
    for note in run.notes:
        print(note)
    for problem in run.problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="default: every workload in turn, one JSON line each")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "bptol" / "cli.py").is_file():
        print(f"perfbench: no bptol sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    cores = Cores.pick()
    for name in [args.workload] if args.workload else list(WORKLOADS):
        run_workload(name, args.seed, args.seconds, bool(args.trace), cores)
    return 0


if __name__ == "__main__":
    sys.exit(main())
