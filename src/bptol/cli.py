"""Command-line interface.

Subcommands:

* ``validate GRAPH`` — parse + validity report; exit 0 iff valid.
* ``serve GRAPH PAIRS`` — preprocess, then answer edge queries from stdin,
  one per line ("edge 3" or endpoint form "1 2"); each answer is k lines
  ``i s t lower upper`` (pair index 1-based) followed by a blank line.
* ``all GRAPH PAIRS`` — header ``n m k`` then the full m*k dump, edge-major,
  identical record-for-record with what serve would answer per edge.
* ``verify [MAX_N] [INSTANCES] [SEED]`` — randomized cross-check of the fast
  oracle against the brute-force reference; prints the first counterexample
  verbatim on failure.
* ``bench [N] [M] [K] [QUERIES] [SEED]`` — timing report, one "key value"
  line each; query times cover one served answer (kernel, record
  formatting and join), as ``serve`` computes it.

Exit codes: 0 success, 1 validation/verification failure (including parse
errors), 2 I/O or usage errors.  Tolerances print as integers or lowercase
"inf"; all output is LF-terminated and deterministic for fixed inputs.
"""
from __future__ import annotations

import argparse
import functools
import math
import random
import sys
import time
from pathlib import Path

from .graphs import (CapacitatedGraph, ParseError, parse_graph, parse_pairs,
                     serialize_graph, validate)
from .oracle import ToleranceOracle, preprocess
from .randgraph import (random_benchmark_graph, random_connected_graph,
                        random_query_edges, sample_pairs)
from .reference import MAX_ENUMERATION_N, PairAnalysis

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2

VERIFY_DEFAULTS = (8, 500, 42)
BENCH_DEFAULTS = (100_000, 500_000, 1_000, 100_000, 7)
PAIRS_PER_VERIFY_INSTANCE = 6


def _load_validated(graph_path: str, break_ties: bool) -> CapacitatedGraph:
    """Parse + validate or raise; ParseError and Violation map to exit 1."""
    g = parse_graph(Path(graph_path).read_bytes())
    violation = validate(g, allow_equal_capacities=break_ties)
    if violation is not None:
        raise _ValidationFailure(violation.message)
    return g


def _load_oracle(args) -> ToleranceOracle:
    """The oracle for ``serve`` and ``all``: the validated graph, preprocessed
    with its pairs file."""
    g = _load_validated(args.graph, args.break_ties)
    return preprocess(g, parse_pairs(Path(args.pairs).read_bytes(), g.n))


class _ValidationFailure(Exception):
    pass


# -- subcommands --------------------------------------------------------------

def cmd_validate(args) -> int:
    g = _load_validated(args.graph, args.break_ties)
    print(f"valid n={g.n} m={g.m}")
    return EXIT_OK


@functools.lru_cache(maxsize=1)
def _pair_records(oracle: ToleranceOracle) -> tuple[list[str], list[str]]:
    """Each pair's "i s t " prefix and its all-inf record, built once for the
    oracle last asked about; callers only read them."""
    prefixes = [f"{i} {s} {t} " for i, (s, t) in enumerate(oracle.pairs.tolist(), start=1)]
    return prefixes, [p + "inf inf" for p in prefixes]


def _answer_lines(oracle: ToleranceOracle, e: int) -> list[str]:
    """The k records answering edge e.  Only pairs with a finite side are
    formatted, the rest are copied from the all-inf records."""
    prefixes, unbounded = _pair_records(oracle)
    lines = unbounded.copy()
    for i, lo, up in oracle.finite_entries(e):
        lines[i] = f"{prefixes[i]}{lo} {up}"  # INFINITY prints as "inf"
    return lines


def _answer_text(oracle: ToleranceOracle, e: int) -> str:
    """The k records answering edge e as ``serve`` and ``all`` write them,
    each ending in a newline."""
    lines = _answer_lines(oracle, e)
    lines.append("")
    return "\n".join(lines)


def _resolve_request(g: CapacitatedGraph, line: str) -> int | None:
    """EdgeId for a request line, or None when it names no edge."""
    try:
        a, b = line.split()  # any other field count raises ValueError too
        if a == "edge":
            e = int(b)
            return e if 1 <= e <= g.m else None
        return g.edge_between(int(a), int(b))
    except ValueError:
        return None


def cmd_serve(args) -> int:
    oracle = _load_oracle(args)
    out = sys.stdout
    for line in sys.stdin:
        if not line.strip():
            continue
        e = _resolve_request(oracle.graph, line)
        if e is None:
            out.write("error unknown-edge\n")
        else:
            out.write(_answer_text(oracle, e))
            out.write("\n")  # each answer ends with a blank line
        out.flush()
    return EXIT_OK


def cmd_all(args) -> int:
    oracle = _load_oracle(args)
    g = oracle.graph
    out = sys.stdout
    out.write(f"{g.n} {g.m} {len(oracle.pairs)}\n")
    for e in g.edge_ids():
        out.write(_answer_text(oracle, e))
    return EXIT_OK


def _verify_one(g: CapacitatedGraph, pairs) -> tuple[int, str | None]:
    """Cross-check one instance; (comparison count, first mismatch or None)."""
    oracle = preprocess(g, pairs)
    answers = {e: oracle.query_edge(e) for e in g.edge_ids()}
    checked = 0
    for i, (s, t) in enumerate(pairs.tolist()):
        analysis, pair = PairAnalysis(g, s, t), f"pair ({s},{t})"
        if oracle.bottleneck_value(i) != analysis.bottleneck:
            return checked, (f"bottleneck mismatch {pair}: fast {oracle.bottleneck_value(i)} "
                             f"brute {analysis.bottleneck}")
        for e in g.edge_ids():
            fast = answers[e][i]
            ref = analysis.tolerances(e)
            checked += 1
            if fast != ref:
                return checked, f"tolerance mismatch edge {e} {pair}: fast {fast} brute {ref}"
            lower, upper = fast
            if lower != math.inf and upper != math.inf:
                return checked, f"both tolerances finite for edge {e} {pair}: {fast}"
            for tol, sign, side in ((lower, -1, "lower"), (upper, +1, "upper")):
                if tol == math.inf:
                    continue
                if tol <= 0:
                    return checked, f"non-positive finite {side} tolerance {tol} edge {e} {pair}"
                if not analysis.still_optimal(e, sign * tol):
                    return checked, (f"{side} tolerance {tol} of edge {e} {pair} breaks "
                                     f"optimality at the claimed-safe shift")
                if analysis.still_optimal(e, sign * (tol + 1)):
                    return checked, (f"{side} tolerance {tol} of edge {e} {pair} survives "
                                     f"one past the claimed supremum")
    return checked, None


def cmd_verify(args) -> int:
    max_n, instances, seed = args.max_n, args.instances, args.seed
    if not 2 <= max_n <= MAX_ENUMERATION_N:
        raise ValueError(f"MAX_N must be in 2..{MAX_ENUMERATION_N}, got {max_n}")
    if instances < 1:
        raise ValueError(f"INSTANCES must be at least 1, got {instances}")
    rng = random.Random(seed)
    total = 0
    for index in range(instances):
        g = random_connected_graph(rng, max_n)
        pairs = sample_pairs(rng, g.n, PAIRS_PER_VERIFY_INSTANCE)
        checked, mismatch = _verify_one(g, pairs)
        total += checked
        if mismatch is not None:
            print(f"FAIL instance {index} seed {seed}")
            print(mismatch)
            print("graph:")
            sys.stdout.write(serialize_graph(g))
            print(f"pairs: {[*map(tuple, pairs.tolist())]}")
            return EXIT_INVALID
    print(f"instances {instances}")
    print(f"max_n {max_n}")
    print(f"seed {seed}")
    print(f"comparisons {total}")
    print("result PASS")
    return EXIT_OK


def cmd_bench(args) -> int:
    n, m, k, queries, seed = args.n, args.m, args.k, args.queries, args.seed
    if k < 0:
        raise ValueError(f"K must be nonnegative, got {k}")
    if queries < 1:
        raise ValueError(f"QUERIES must be at least 1, got {queries}")

    t0 = time.perf_counter()
    g = random_benchmark_graph(n, m, seed)
    generate_seconds = time.perf_counter() - t0

    pairs = sample_pairs(random.Random(seed ^ 0x5EED), n, k)

    t0 = time.perf_counter()
    oracle = preprocess(g, pairs)
    preprocess_seconds = time.perf_counter() - t0

    edge_stream = random_query_edges(m, queries, seed ^ 0xBE7C)
    times = []
    for e in edge_stream.tolist():
        t0 = time.perf_counter()
        _answer_text(oracle, e)
        times.append(time.perf_counter() - t0)
    times.sort()
    mean = sum(times) / len(times)
    p99 = times[min(len(times) - 1, int(len(times) * 0.99))]

    for key, value in (("n", n), ("m", m), ("k", len(pairs)),
                       ("queries", queries), ("seed", seed),
                       ("generate_seconds", f"{generate_seconds:.6f}"),
                       ("preprocess_seconds", f"{preprocess_seconds:.6f}"),
                       ("query_mean_seconds", f"{mean:.9f}"),
                       ("query_p99_seconds", f"{p99:.9f}")):
        print(f"{key} {value}")
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bptol",
        description="Bottleneck-path tolerance preprocessing and queries.")
    sub = parser.add_subparsers(dest="command", required=True)
    ties = argparse.ArgumentParser(add_help=False)
    ties.add_argument("--break-ties", action="store_true",
                      help="accept duplicate capacities (results then hold for "
                           "an infinitesimally perturbed instance)")

    p = sub.add_parser("validate", parents=[ties], help="check a graph file")
    p.add_argument("graph")
    p.set_defaults(func=cmd_validate)

    for name, func, text in (("serve", cmd_serve, "answer edge queries from stdin"),
                             ("all", cmd_all, "dump tolerances for every (edge, pair)")):
        p = sub.add_parser(name, parents=[ties], help=text)
        p.add_argument("graph")
        p.add_argument("pairs")
        p.set_defaults(func=func)

    p = sub.add_parser("verify", help="randomized cross-check against the "
                                      "brute-force reference")
    for name, default in zip(("max_n", "instances", "seed"), VERIFY_DEFAULTS):
        p.add_argument(name, nargs="?", type=int, default=default, metavar=name.upper())
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="timing report")
    for name, default in zip(("n", "m", "k", "queries", "seed"), BENCH_DEFAULTS):
        p.add_argument(name, nargs="?", type=int, default=default, metavar=name.upper())
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ValidationFailure as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
