"""Traced run: per-layer spans and counters for one workload.

The traced run imports ``bptol`` from ``src/`` and calls the layers the way
the CLI does, with spans taken by this file around each call:

    cli.read -> graphs.parse_graph -> graphs.validate -> graphs.parse_pairs
    -> oracle.preprocess [graphs.capacity_ranks, mst.build, tree_index.build,
                          replacement.upper, replacement.lower]
    -> graphs.edge_between -> oracle.query_edge -> cli answer formatting

``preprocess`` is called once.  Its stages are called by ``preprocess``
itself, through module-level names that this file wraps with spans for the
duration of that call, so each stage runs once, in preprocess's own order,
and ``oracle.contexts_s`` is preprocess's self time: its span minus its
child spans.

The run also makes a few untraced CLI sessions, and checks the sum of the
stage spans plus interpreter start-up against their median set-up time; the
gap is reported as ``trace.overhead_s`` and a warning is printed when it
exceeds TRACE_GAP_SHARE of that set-up time.
"""
from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from session import dump_session, percentile, serve_session, stub_argv

SRC = Path(__file__).resolve().parent.parent / "src"
PERF = time.perf_counter
TRACE_REQUESTS = 1000  # scripted requests whose edges and endpoints are timed
STARTUP_RUNS = 3
TRACE_GAP_SHARE = 0.25

# (module, attribute, span) wrapped while preprocess runs.
PREPROCESS_STAGES = (
    ("bptol.oracle", "capacity_ranks", "graphs.capacity_ranks_s"),
    ("bptol.oracle", "build_max_spanning_tree", "mst.build_s"),
    ("bptol.oracle", "build_index", "tree_index.build_s"),
    ("bptol.replacement", "compute_upper_replacements", "replacement.upper_s"),
    ("bptol.replacement", "compute_lower_replacements", "replacement.lower_s"),
)


class Spans:
    """Span durations by name, kept in memory until the run ends."""

    def __init__(self):
        self.seconds: dict[str, float] = {}

    @contextmanager
    def span(self, name: str):
        start = PERF()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + PERF() - start

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def wrapping(self, stages):
        """Wrap module-level functions with spans; restore them on exit."""
        saved = []
        try:
            for module, attr, name in stages:
                mod = sys.modules[module]
                fn = getattr(mod, attr, None)
                if fn is None:
                    print(f"trace: {module}.{attr} is gone; {name} reads 0",
                          file=sys.stderr)
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.timed(name, fn))
                self.seconds.setdefault(name, 0.0)
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)


def _timed_calls(fn, args_list) -> tuple[list[float], list]:
    times, results = [], []
    for args in args_list:
        start = PERF()
        results.append(fn(*args))
        times.append(PERF() - start)
    return times, results


def _startup_s(run) -> float:
    """Interpreter start plus importing the CLI, as a launch pays it."""
    argv = [sys.executable, "-c", "import bptol.cli"]
    times = []
    for _ in range(STARTUP_RUNS):
        child = run.launcher.start(argv, run.work, run.work / "startup-stderr.txt",
                                   run.deadline())
        code, exited, _ = child.finish()
        if code != 0:
            raise RuntimeError(f"importing bptol.cli failed with exit code {code}")
        times.append(exited - child.launched)
    return statistics.median(times)


def _untraced_setup(run, sessions: int) -> float:
    """Median set-up time of CLI sessions made and checked as the end-to-end
    run makes them."""
    reference: dict = {}
    return statistics.median(run.session(i, reference).setup_s for i in range(sessions))


def _client_overhead_us(run, bytes_per_answer: int) -> float:
    """What the client alone costs per answer, against a stub of the same size."""
    args = dict(cwd=run.work, stderr_path=run.work / "stub-stderr.txt",
                deadline_s=run.deadline())
    if run.wl.command == "serve":
        times = serve_session(run.launcher, stub_argv("echo", bytes_per_answer),
                              [b"edge 1\n"] * TRACE_REQUESTS, **args)
        return statistics.median(times.latencies_s) * 1e6
    out = run.work / "stub-all.txt"
    times = dump_session(run.launcher, stub_argv("stream", bytes_per_answer, run.inst.m),
                         out, **args)
    out.unlink()
    (t0, _), (t1, _) = times.marks[0], times.marks[-1]
    return (t1 - t0) / run.inst.m * 1e6


def traced_run(run, untraced_sessions: int) -> dict:
    sys.path.insert(0, str(SRC))
    import bptol
    import bptol.cli
    import bptol.oracle
    import bptol.replacement

    wl = run.wl
    setup_untraced = _untraced_setup(run, untraced_sessions)
    startup = _startup_s(run)

    run.cores.pin_to_cli()
    spans = Spans()
    with spans.span("cli.read_s"):
        graph_text = Path(run.graph_path).read_text(encoding="utf-8")
        pairs_text = Path(run.pairs_path).read_text(encoding="utf-8")
    with spans.span("graphs.parse_graph_s"):
        g = bptol.parse_graph(graph_text)
    with spans.span("graphs.validate_s"):
        violation = bptol.validate(g)
    if violation is not None:
        raise RuntimeError(f"generated graph is invalid: {violation.message}")
    with spans.span("graphs.parse_pairs_s"):
        pairs = bptol.parse_pairs(pairs_text, g.n)
    del graph_text, pairs_text
    with spans.wrapping(PREPROCESS_STAGES), spans.span("oracle.preprocess_s"):
        oracle = bptol.preprocess(g, pairs)

    script = run.script(TRACE_REQUESTS)
    endpoints = [tuple(map(int, r.line.split())) for r in script
                 if r.edge and not r.line.startswith(b"edge")]
    first_between, _ = _timed_calls(g.edge_between, endpoints[:1])
    between, _ = _timed_calls(g.edge_between, endpoints[1:])

    edges = [r.edge for r in script if r.edge]
    answer_lines = bptol.cli._answer_lines
    query_times, results = _timed_calls(oracle.query_edge, [(e,) for e in edges])
    answer_times, answers = _timed_calls(answer_lines, [(oracle, e) for e in edges])
    run.cores.pin_client()

    finite = sum(x != bptol.INFINITY for r in results for pair in r for x in pair)
    blank_line = 1 if wl.command == "serve" else 0  # all's records have none
    answer_bytes = [sum(len(line) + 1 for line in a) + blank_line for a in answers]
    bytes_per_answer = statistics.mean(answer_bytes)
    # serve's first answer names its edge by endpoints; all's header needs none
    first_answer = first_between[0] + answer_times[0] if wl.command == "serve" else 0.0
    stage_sum = (startup + spans.seconds["cli.read_s"]
                 + spans.seconds["graphs.parse_graph_s"]
                 + spans.seconds["graphs.validate_s"]
                 + spans.seconds["graphs.parse_pairs_s"]
                 + spans.seconds["oracle.preprocess_s"] + first_answer)
    children = sum(spans.seconds[name] for _, _, name in PREPROCESS_STAGES
                   if name in spans.seconds)
    depth = oracle.index.depth
    height = max(depth(v) for v in range(1, g.n + 1))
    tree_edges = oracle.tree.is_tree_edge
    bridges = sum(1 for e in g.edge_ids() if tree_edges[e] and oracle.tables.L[e] is None)

    out = {"cli.startup_s": (startup, "s")}
    for name in ("cli.read_s", "graphs.parse_graph_s", "graphs.validate_s",
                 "graphs.parse_pairs_s", *(s for _, _, s in PREPROCESS_STAGES),
                 "oracle.preprocess_s"):
        out[name] = (spans.seconds.get(name, 0.0), "s")
    out.update({
        "oracle.contexts_s": (spans.seconds["oracle.preprocess_s"] - children, "s"),
        "graphs.edge_between_first_s": (first_between[0], "s"),
        "graphs.edge_between_p50_us": (statistics.median(between) * 1e6, "us"),
        "oracle.query_p50_us": (statistics.median(query_times) * 1e6, "us"),
        "oracle.query_p99_us": (percentile(query_times, 0.99) * 1e6, "us"),
        "cli.format_p50_us": (statistics.median(
            a - q for a, q in zip(answer_times, query_times)) * 1e6, "us"),
        "tree_index.height": (height, "count"),
        "mst.non_tree_edges": (g.m - len(oracle.tree.edge_ids), "count"),
        "replacement.bridges": (bridges, "count"),
        "oracle.finite_frac": (finite / (2 * len(pairs) * len(edges)), "ratio"),
        "cli.bytes_per_answer": (bytes_per_answer, "B"),
        "client.overhead_us": (_client_overhead_us(run, round(bytes_per_answer)), "us"),
        "trace.overhead_s": (abs(setup_untraced - stage_sum), "s"),
    })
    gap = setup_untraced - stage_sum
    limit = TRACE_GAP_SHARE * setup_untraced
    print(f"trace: untraced setup_s {setup_untraced:.6f} (median of {untraced_sessions}), "
          f"stage sum {stage_sum:.6f}, gap {gap:+.6f} s, limit {limit:.6f} s")
    if abs(gap) > limit:
        run.notes.append(f"warning: stage sum {stage_sum:.6f} s is off the untraced "
                         f"setup_s {setup_untraced:.6f} s by more than {limit:.6f} s")
    return out
