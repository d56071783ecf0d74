"""Command-line interface: subcommands, exit codes, stream protocol."""

import gc
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from bptol import cli
from bptol.graphs import CapacitatedGraph, serialize_graph
from bptol.oracle import preprocess
from bptol.randgraph import random_connected_graph, sample_pairs
from bptol.reference import PairAnalysis

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

G1 = str(DATA / "g1.txt")
G1_PAIRS = str(DATA / "g1_pairs.txt")
G2 = str(DATA / "g2.txt")
G2_PAIRS = str(DATA / "g2_pairs.txt")
G2_PAIR14 = str(DATA / "g2_pair14.txt")
K2 = str(DATA / "k2.txt")
K2_PAIRS = str(DATA / "k2_pairs.txt")


def run_cli(*args, stdin=""):
    return subprocess.run(
        [sys.executable, "-m", "bptol.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_validate_accepts_good_graph():
    r = run_cli("validate", G1)
    assert r.returncode == 0
    assert "valid" in r.stdout


def test_validate_rejects_duplicate_capacity():
    r = run_cli("validate", str(DATA / "dup_cap.txt"))
    assert r.returncode == 1
    assert "capacity" in (r.stdout + r.stderr)


def test_validate_break_ties_allows_duplicates():
    r = run_cli("validate", "--break-ties", str(DATA / "dup_cap.txt"))
    assert r.returncode == 0


@pytest.mark.parametrize("command", ["validate", "serve", "all"])
def test_break_ties_is_described_by_each_command(command):
    r = run_cli(command, "--help")
    assert r.returncode == 0
    assert "accept duplicate capacities" in r.stdout


def test_validate_missing_file_is_usage_error():
    r = run_cli("validate", str(DATA / "no_such_file.txt"))
    assert r.returncode == 2


def test_validate_rejects_malformed_graph():
    r = run_cli("validate", str(DATA / "bad_tokens.txt"))
    assert r.returncode == 1
    assert "line 3" in (r.stdout + r.stderr)


def test_serve_endpoint_form():
    r = run_cli("serve", G1, G1_PAIRS, stdin="2 3\n")
    assert r.returncode == 0
    assert r.stdout == "1 1 3 2 inf\n\n"


def test_serve_edge_form():
    r = run_cli("serve", G2, G2_PAIR14, stdin="edge 5\n")
    assert r.returncode == 0
    assert r.stdout == "1 1 4 inf 4\n\n"


def test_serve_unknown_edge_continues_session():
    r = run_cli("serve", G1, G1_PAIRS, stdin="9 9\nedge 2\n")
    assert r.returncode == 0
    assert r.stdout == "error unknown-edge\n1 1 3 2 inf\n\n"


def test_serve_malformed_request():
    r = run_cli("serve", G1, G1_PAIRS, stdin="edge two\n1 2 3\n")
    assert r.returncode == 0
    assert r.stdout.count("error unknown-edge") == 2


def test_serve_with_no_pairs_answers_blank_lines():
    # k=0: every valid request is answered by zero records and the blank
    # line that ends an answer; an invalid one still gets its error line.
    r = run_cli("serve", G1, str(DATA / "no_pairs.txt"),
                stdin="edge 1\n2 3\nedge 4\n3 1\n9 9\n")
    assert r.returncode == 0, r.stderr
    assert r.stdout == "\n\nerror unknown-edge\n\nerror unknown-edge\n"


def test_serve_empty_session():
    r = run_cli("serve", G1, G1_PAIRS, stdin="")
    assert r.returncode == 0
    assert r.stdout == ""


def test_all_matches_golden_files():
    for graph, pairs, golden in (
        (G1, G1_PAIRS, "g1_all.txt"),
        (G2, G2_PAIRS, "g2_all.txt"),
    ):
        r = run_cli("all", graph, pairs)
        assert r.returncode == 0
        assert r.stdout == (GOLDEN / golden).read_text()


def test_all_is_deterministic_across_runs():
    first = run_cli("all", G2, G2_PAIRS)
    second = run_cli("all", G2, G2_PAIRS)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_all_bridge_case():
    r = run_cli("all", K2, K2_PAIRS)
    assert r.returncode == 0
    assert r.stdout == "2 1 1\n1 1 2 inf inf\n"


def test_all_rejects_extra_pair_lines(tmp_path):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("1\n1 3\n2 3\n")
    r = run_cli("all", G1, str(pairs))
    assert r.returncode == 1
    assert "line 3: unexpected trailing content '2 3'" in r.stderr
    assert r.stdout == ""


def test_files_the_line_scan_reads(tmp_path):
    # CRLF line ends send both files to the line scan, with the same answers;
    # bytes that are not UTF-8 are an I/O-level usage error.
    graph, pairs = tmp_path / "graph.txt", tmp_path / "pairs.txt"
    graph.write_bytes(Path(G2).read_bytes().replace(b"\n", b"\r\n"))
    pairs.write_bytes(Path(G2_PAIRS).read_bytes().replace(b"\n", b"\r\n"))
    r = run_cli("all", str(graph), str(pairs))
    assert r.returncode == 0, r.stderr
    assert r.stdout == (GOLDEN / "g2_all.txt").read_text()
    graph.write_bytes(b"4 5\n1 2 \xff\n")
    r = run_cli("validate", str(graph))
    assert r.returncode == 2
    assert "usage error: 'utf-8' codec can't decode byte 0xff" in r.stderr


def test_all_with_no_pairs_emits_header_only():
    r = run_cli("all", G1, str(DATA / "no_pairs.txt"))
    assert r.returncode == 0
    assert r.stdout == "3 3 0\n"


def test_one_vertex_graph_has_no_edges_to_answer(tmp_path):
    # n=1 gives a spanning tree with no edges, so rooting walks no tour.
    graph, pairs = tmp_path / "graph.txt", tmp_path / "pairs.txt"
    graph.write_text("1 0\n")
    pairs.write_text("0\n")
    r = run_cli("all", str(graph), str(pairs))
    assert r.returncode == 0, r.stderr
    assert r.stdout == "1 0 0\n"
    r = run_cli("serve", str(graph), str(pairs), stdin="edge 1\n1 1\n")
    assert r.returncode == 0, r.stderr
    assert r.stdout == "error unknown-edge\nerror unknown-edge\n"


def test_all_and_serve_are_exact_at_int64_extremes(tmp_path):
    # Pair (1,3) rides edges 1 and 2; every finite answer is a difference of
    # two capacities, at unit size near 2**62 and near 2**64 at the ends.
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("1\n1 3\n")
    for caps, answers in (
        ((2**62 + 2, 2**62 + 1, 2**62), ("2 inf", "1 inf", "inf 1")),
        ((2**63 - 1, 2**63 - 2, -2**63),
         ("18446744073709551615 inf", "18446744073709551614 inf",
          "inf 18446744073709551614")),
    ):
        graph = tmp_path / "graph.txt"
        graph.write_text("3 3\n1 2 {}\n2 3 {}\n1 3 {}\n".format(*caps))
        r = run_cli("all", str(graph), str(pairs))
        assert r.returncode == 0, r.stderr
        assert r.stdout == "3 3 1\n" + "".join(f"1 1 3 {a}\n" for a in answers)
        r = run_cli("serve", str(graph), str(pairs), stdin="1 3\nedge 2\n")
        assert r.returncode == 0, r.stderr
        assert r.stdout == f"1 1 3 {answers[2]}\n\n1 1 3 {answers[1]}\n\n"


def test_tied_capacities_print_zero_tolerances(tmp_path):
    # Under --break-ties edges 2 and 3 tie at 3 and edge 3 is the tree edge;
    # a difference of 0 is finite and prints as 0, not inf.
    graph = tmp_path / "graph.txt"
    graph.write_text("3 3\n1 2 5\n2 3 3\n1 3 3\n")
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("1\n1 3\n")
    r = run_cli("all", "--break-ties", str(graph), str(pairs))
    assert r.returncode == 0, r.stderr
    assert r.stdout == "3 3 1\n1 1 3 inf inf\n1 1 3 inf 0\n1 1 3 0 inf\n"
    r = run_cli("serve", "--break-ties", str(graph), str(pairs),
                stdin="1 3\nedge 2\n")
    assert r.returncode == 0, r.stderr
    assert r.stdout == "1 1 3 0 inf\n\n1 1 3 inf 0\n\n"


def test_serve_agrees_with_all_record_for_record():
    dump = run_cli("all", G2, G2_PAIRS).stdout.splitlines()
    n, m, k = map(int, dump[0].split())
    records = dump[1:]
    stdin = "".join(f"edge {e}\n" for e in range(1, m + 1))
    r = run_cli("serve", G2, G2_PAIRS, stdin=stdin)
    assert r.returncode == 0
    served = [line for line in r.stdout.splitlines() if line]
    assert served == records


def _expected_dump(g, pairs) -> str:
    """What ``all`` writes: the header, then each edge's ``serve`` answer."""
    oracle = preprocess(g, pairs)
    return f"{g.n} {g.m} {len(pairs)}\n" + "".join(
        cli._answer_text(oracle, e) for e in g.edge_ids())


def _dump(capsys, tmp_path, g, pairs, *flags) -> str:
    graph, pairs_file = tmp_path / "graph.txt", tmp_path / "pairs.txt"
    graph.write_text(serialize_graph(g))
    pairs_file.write_text("".join([f"{len(pairs)}\n", *(f"{s} {t}\n" for s, t in pairs)]))
    assert cli.main(["all", *flags, str(graph), str(pairs_file)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("ties", [False, True])
def test_all_is_the_per_edge_answers_block_by_block(monkeypatch, capsys, tmp_path, ties):
    # A small CHUNK makes a dump span several blocks, end on a ragged last
    # block, and reach one edge per block when k > CHUNK.
    chunk = 7
    monkeypatch.setattr(cli, "CHUNK", chunk)
    rng = random.Random(4242 + ties)
    kinds = set()
    for _ in range(40):
        g = random_connected_graph(rng, 12)
        if ties:  # coarsened capacities tie often
            g = CapacitatedGraph(g.n, [(g.edge_u[e], g.edge_v[e], g.edge_cap[e] // 8)
                                       for e in g.edge_ids()])
        pairs = sample_pairs(rng, g.n, rng.randint(1, 12)).tolist()
        block = max(1, chunk // len(pairs))
        if len(pairs) > chunk:
            kinds.add("one edge per block")
        elif g.m > block and g.m % block:
            kinds.add("ragged last block")
        flags = ["--break-ties"] if ties else []
        assert _dump(capsys, tmp_path, g, pairs, *flags) == _expected_dump(g, pairs)
    assert kinds == {"one edge per block", "ragged last block"}


def test_all_block_by_block_with_no_pairs_or_no_edges(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(cli, "CHUNK", 2)
    g = random_connected_graph(random.Random(5), 8)
    assert _dump(capsys, tmp_path, g, []) == f"{g.n} {g.m} 0\n"
    assert _dump(capsys, tmp_path, CapacitatedGraph(1, []), []) == "1 0 0\n"


def test_each_oracle_gets_its_own_all_inf_answer():
    # Two oracles, alternated in one process: the cached all-inf text and the
    # spliced records always belong to the oracle asked about.
    g = CapacitatedGraph(4, [(1, 2, 10), (2, 3, 8), (3, 4, 6), (1, 3, 4), (2, 4, 2)])
    first, second = preprocess(g, [(1, 2), (3, 4)]), preprocess(g, [(3, 1)])
    unbounded = {first: "1 1 2 inf inf\n2 3 4 inf inf\n", second: "1 3 1 inf inf\n"}
    seen = set()
    for _ in range(2):
        for oracle in (first, second, first):
            for e in g.edge_ids():
                want = "".join(f"{i} {s} {t} {lo} {up}\n" for i, ((s, t), (lo, up)) in
                               enumerate(zip(oracle.pairs.tolist(), oracle.query_edge(e)), 1))
                assert cli._answer_text(oracle, e) == want
                assert cli._answer_lines(oracle, e) == want.splitlines()
                if want == unbounded[oracle]:
                    seen.add(oracle)
    assert seen == {first, second}
    # the cache holds no oracle alive
    gone = weakref.ref(first)
    del first, oracle, unbounded, seen
    gc.collect()
    assert gone() is None


def test_verify_small_run_passes():
    r = run_cli("verify", "5", "25", "7")
    assert r.returncode == 0, r.stdout + r.stderr
    assert "result PASS" in r.stdout


def test_verify_prints_the_first_counterexample(monkeypatch, capsys):
    # A reference whose bottleneck is one too high fails the first pair; the
    # report names the instance, the mismatch, the graph and the pairs as
    # plain ints, so it can be pasted back into a test.
    class OffByOne(PairAnalysis):
        def __init__(self, g, s, t):
            super().__init__(g, s, t)
            self.bottleneck += 1

    monkeypatch.setattr(cli, "PairAnalysis", OffByOne)
    assert cli.main(["verify", "4", "1", "5"]) == 1
    assert capsys.readouterr().out == (
        "FAIL instance 0 seed 5\n"
        "bottleneck mismatch pair (2,1): fast -4 brute -3\n"
        "graph:\n"
        "4 5\n2 4 -4\n2 3 -8\n3 4 0\n1 2 -12\n1 3 12\n"
        "pairs: [(2, 1), (1, 3), (3, 2), (2, 4), (4, 3), (4, 1)]\n")


def test_verify_takes_no_flag_spellings():
    # each parameter has one spelling, so no value can land in the wrong slot
    r = run_cli("verify", "--seed", "7")
    assert r.returncode == 2
    assert r.stdout == ""


def test_verify_single_edge_family():
    r = run_cli("verify", "2", "10", "3")
    assert r.returncode == 0
    assert "result PASS" in r.stdout


def test_bench_degenerate_run():
    r = run_cli("bench", "2", "1", "1", "1", "7")
    assert r.returncode == 0
    keys = {line.split()[0] for line in r.stdout.splitlines()}
    assert {"n", "m", "k", "queries", "preprocess_seconds",
            "query_mean_seconds"} <= keys


def test_bench_small_graph_timings():
    r = run_cli("bench", "100", "200", "1", "1000", "7")
    assert r.returncode == 0
    values = dict(line.split() for line in r.stdout.splitlines())
    assert float(values["preprocess_seconds"]) < 1.0


def test_bench_times_the_answer_text_serve_writes(monkeypatch, capsys):
    # each timed query builds the whole answer text, records joined, once
    calls = 0
    answer_text = cli._answer_text

    def counted(oracle, e):
        nonlocal calls
        calls += 1
        return answer_text(oracle, e)

    monkeypatch.setattr(cli, "_answer_text", counted)
    assert cli.main(["bench", "100", "200", "3", "50", "7"]) == 0
    assert calls == 50
    assert "query_mean_seconds" in capsys.readouterr().out


def test_bench_infeasible_size_is_usage_error():
    r = run_cli("bench", "10", "200", "1", "1", "7")
    assert r.returncode == 2


def test_bench_without_queries_is_usage_error():
    r = run_cli("bench", "10", "20", "1", "0", "7")
    assert r.returncode == 2
    assert "QUERIES" in r.stderr and "0" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("args,name,value", [
    (("verify", "8", "-3", "1"), "INSTANCES", "-3"),  # would pass with 0 comparisons
    (("bench", "10", "20", "-2", "5", "7"), "K", "-2"),
    (("verify", "13", "1", "1"), "MAX_N", "13"),  # passed whenever no n=13 was drawn
])
def test_inputs_that_check_nothing_are_usage_errors(args, name, value):
    r = run_cli(*args)
    assert r.returncode == 2
    assert name in r.stderr and value in r.stderr
    assert r.stdout == ""


def test_unknown_subcommand_is_usage_error():
    r = run_cli("frobnicate")
    assert r.returncode == 2


def test_cli_import_leaves_scipy_out():
    # importing scipy.sparse.csgraph alone takes 0.5-0.7 s, more than the
    # whole set-up of a small run, and every CLI start would pay it
    check = ("import bptol.cli, sys; "
             "assert not any(m.startswith('scipy') for m in sys.modules)")
    r = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                       timeout=120)
    assert r.returncode == 0, r.stderr
