import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bptol import (CapacitatedGraph, ParseError, capacity_ranks,
                   diamond_example, parse_graph, parse_pairs, preprocess,
                   random_benchmark_graph, random_connected_graph, sample_pairs,
                   serialize_graph, single_edge_example, triangle_example, validate)
from bptol import graphs
from bptol.graphs import CHUNK, MAX_VERTICES, descending_edges

from naive import naive_unreached

G1_TEXT = "3 3\n1 2 5\n2 3 3\n1 3 1\n"
G2_TEXT = "4 5\n1 2 10\n2 3 8\n3 4 6\n1 3 4\n2 4 2\n"


def test_parse_fixture_files():
    g = parse_graph(G1_TEXT)
    assert g == triangle_example()
    assert parse_graph(G2_TEXT) == diamond_example()
    assert parse_graph("2 1\n1 2 7\n") == single_edge_example()


def test_serialize_round_trip():
    for g in (triangle_example(), diamond_example(), single_edge_example()):
        assert parse_graph(serialize_graph(g)) == g
    assert serialize_graph(triangle_example()) == G1_TEXT


def test_parse_accepts_blank_trailing_lines():
    assert parse_graph(G1_TEXT + "\n  \n") == triangle_example()


def test_parse_accepts_bytes():
    assert parse_graph(G1_TEXT.encode()) == triangle_example()


@pytest.mark.parametrize("text,line", [
    ("", 1),
    ("3\n", 1),
    ("a b\n", 1),
    ("0 0\n", 1),
    ("3 -1\n", 1),
    ("3 2\n1 2 5\n", 3),                       # missing edge line
    ("3 3\n1 2 x\n", 2),                       # bad line, then missing lines
    ("3 2\n1 2 5\nbogus\n", 3),
    ("3 2\n1 2 5\n2 3 x\n", 3),
    ("3 2\n1 2 5\n2 9 1\n", 3),                # vertex out of range
    ("3 2\n1 2 5\n1 2 4\n", 3),                # parallel edge
    ("3 2\n2 1 5\n1 2 4\n", 3),                # parallel, reversed endpoints
    ("2 1\n1 2 99999999999999999999\n", 2),    # capacity overflow
    ("2 1\n1 2 7\ntrailing\n", 3),
    # of two defects on different lines, the earlier line wins
    ("3 4\n2 3 1\n1 2 5\n2 1 4\n1 3 x\n", 4),      # parallel, then bad token
    ("3 4\n2 3 1\n1 3 x\n1 2 5\n2 1 4\n", 3),      # bad token, then parallel
    ("3 3\n2 3 1\n1 9 5\n1 2 99999999999999999999\n", 3),  # range, then overflow
    ("3 3\n2 3 1\n1 2 99999999999999999999\n1 9 5\n", 3),  # overflow, then range
    ("3 2\n1 2 -9223372036854775808\n2 3 9223372036854775808\n", 3),
    ("3 2\n1 2 9223372036854775807\n2 9223372036854775808 1\n", 3),
    ("3037000499 0\n", 1),                    # endpoint keys would overflow int64
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as info:
        parse_graph(text)
    assert info.value.line_no == line
    assert f"line {line}:" in str(info.value)


@pytest.mark.parametrize("text,message", [
    ("3 2\n1 2 5\n2 1 4\n", "line 3: parallel edge 2-1 (first on line 2)"),
    ("3 2\n1 2 5\n2 9223372036854775808 1\n",
     "line 3: vertex id 9223372036854775808 out of range 1..3"),
    ("2 1\n1 2 9223372036854775808\n",
     "line 2: capacity 9223372036854775808 outside signed 64-bit range"),
    ("2 1\n1 2 -9223372036854775809\n",
     "line 2: capacity -9223372036854775809 outside signed 64-bit range"),
    ("3 2\n1 2 5\n2 3 1.5\n", "line 3: non-integer field in '2 3 1.5'"),
    ("3 2\n1 2 5\n2 3\n", "line 3: expected 'u v c', got '2 3'"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as info:
        parse_graph(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text,rows", [
    ("3 3\n1 2 +5\n2 3 007\n1 3 1_000\n", [(1, 2, 5), (2, 3, 7), (1, 3, 1000)]),
    ("3 2\r\n1\t2\t5\r\n+2 03 -1\r\n", [(1, 2, 5), (2, 3, -1)]),
    ("2 1\n1 2 -9223372036854775808\n", [(1, 2, -2**63)]),
    ("2 1\n1 2 9223372036854775807\n", [(1, 2, 2**63 - 1)]),
    ("2 1\n\u0661 \u0662 \u0663\n", [(1, 2, 3)]),  # int() reads any Unicode digit
])
def test_parse_accepts_what_int_accepts(text, rows):
    assert parse_graph(text) == CapacitatedGraph(int(text.split()[0]), rows)


def test_constructor_rejects_values_outside_int64():
    with pytest.raises(OverflowError):
        CapacitatedGraph(2, [(1, 2, 2**63)])
    with pytest.raises(ValueError):
        CapacitatedGraph(MAX_VERTICES + 1, [])
    for ends in ((1, 5), (0, 1), (1, -1)):  # vertex ids outside 1..n
        with pytest.raises(ValueError):
            CapacitatedGraph(3, [(*ends, 1), (1, 2, 2), (2, 3, 3)])
    top = MAX_VERTICES
    g = CapacitatedGraph(top, [(1, 2, 5), (top, top - 1, 6)])  # the largest key fits
    assert g.edge_between(top - 1, top) == 2 and g.edge_between(1, top) is None


def test_parse_allows_self_loop_then_validate_rejects():
    g = parse_graph("2 2\n1 1 3\n1 2 7\n")
    v = validate(g)
    assert v is not None and v.kind == "self-loop" and v.witness == (1,)
    g = parse_graph("3 4\n1 2 7\n3 3 1\n3 3 2\n2 3 4\n")  # a repeated self-loop
    v = validate(g)
    assert v is not None and v.kind == "self-loop" and v.witness == (2,)


def test_validate_fixtures_pass():
    for g in (triangle_example(), diamond_example(), single_edge_example()):
        assert validate(g) is None


def test_validate_disconnected():
    g = CapacitatedGraph(4, [(1, 2, 5), (3, 4, 2)])
    v = validate(g)
    assert v is not None and v.kind == "disconnected"
    assert v.witness == (1, 3)


def _path(rng, n):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return list(zip(perm, perm[1:]))


def _components(rng, n, count):
    # a random tree inside each of `count` random vertex classes
    classes = [[] for _ in range(count)]
    for v in range(1, n + 1):
        classes[rng.randrange(count)].append(v)
    pairs = []
    for members in classes:
        rng.shuffle(members)
        pairs += [(v, rng.choice(members[:i])) for i, v in enumerate(members) if i]
    return pairs


@pytest.mark.parametrize("shape", ["path", "path-missing-edge", "star-missing-leaf",
                                   "three-components", "five-components"])
def test_validate_connectivity_matches_naive(shape):
    rng = random.Random(shape)
    n = 2000
    if shape.startswith("path"):
        pairs = _path(rng, n)
        if shape == "path-missing-edge":
            del pairs[rng.randrange(len(pairs))]
    elif shape == "star-missing-leaf":
        pairs = [(n, v) for v in range(1, n) if v != 1234]  # centre is the largest id
    else:
        pairs = _components(rng, n, 3 if shape == "three-components" else 5)
    g = CapacitatedGraph(n, [(u, v, c) for c, (u, v) in enumerate(pairs)])
    unreached = naive_unreached(g)
    assert (unreached is None) == (shape == "path")
    v = validate(g)
    if unreached is None:
        assert v is None
    else:
        assert v is not None and v.kind == "disconnected"
        assert v.witness == (1, unreached)
        assert v.message == f"vertices 1 and {unreached} lie in different components"


@pytest.mark.parametrize("edges,kind,witness", [
    ([(1, 2, 1), (2, 3, 2), (3, 2, 3), (1, 2, 4)], "parallel-edges", (2, 3)),
    ([(1, 2, 9), (2, 3, 5), (3, 4, 9), (4, 1, 5), (1, 3, 2), (2, 4, 5)],
     "duplicate-capacity", (2, 4)),
])
def test_validate_witnesses(edges, kind, witness):
    v = validate(CapacitatedGraph(4, edges))
    assert v is not None and v.kind == kind and v.witness == witness
    assert all(type(x) is int for x in v.witness)


def test_validate_duplicate_capacity_and_break_ties():
    g = CapacitatedGraph(3, [(1, 2, 5), (2, 3, 5), (1, 3, 1)])
    v = validate(g)
    assert v is not None and v.kind == "duplicate-capacity" and v.witness == (1, 2)
    assert validate(g, allow_equal_capacities=True) is None


def test_validate_order_self_loop_first():
    # one graph violating everything: the first check in order wins
    g = CapacitatedGraph(3, [(1, 1, 5), (1, 2, 5), (1, 2, 5)])
    v = validate(g)
    assert v is not None and v.kind == "self-loop"


def test_adjacency_and_lookups():
    g = diamond_example()
    assert g.endpoints(4) == (1, 3)
    assert g.capacity(3) == 6
    assert [type(x) for x in (*g.endpoints(4), g.capacity(3), g.edge_between(2, 4))] == [int] * 4
    assert g.edge_between(2, 4) == 5
    assert g.edge_between(4, 2) == 5
    assert g.edge_between(1, 4) is None
    assert list(g.edge_ids()) == [1, 2, 3, 4, 5]


def test_edge_between_misses_and_repeats():
    g = diamond_example()
    assert g.edge_between(0, 2) is None
    assert g.edge_between(4, 5) is None
    assert g.edge_between(3, 3) is None
    for e in g.edge_ids():
        u, v = g.endpoints(e)
        assert g.edge_between(u, v) == g.edge_between(v, u) == e
    # unvalidated input: a repeated endpoint pair resolves to its last edge
    g = CapacitatedGraph(3, [(1, 2, 1), (2, 1, 2), (2, 3, 3)])
    assert g.edge_between(1, 2) == 2
    assert CapacitatedGraph(1, []).edge_between(1, 1) is None


def test_capacity_ranks_sentinel_and_order():
    g = triangle_example()  # caps 5, 3, 1
    rank = capacity_ranks(g)
    assert rank[0] == 3              # sentinel: above every real edge
    assert list(rank[1:]) == [2, 1, 0]


@pytest.mark.parametrize("coarsen", [1, 8])
def test_capacity_order_is_sorted_once(coarsen, monkeypatch):
    # Coarsened capacities tie; ties go to the smaller edge id.  Once a graph
    # is built, validating and preprocessing it sort nothing more.
    rng = random.Random(57 + coarsen)
    sorts = 0

    def counted(fn):
        def wrapper(*args, **kwargs):
            nonlocal sorts
            sorts += 1
            return fn(*args, **kwargs)
        return wrapper

    ties = 0
    for _ in range(60):
        base = random_connected_graph(rng, 40)
        g = CapacitatedGraph(base.n, [(*base.endpoints(e), base.capacity(e) // coarsen)
                                      for e in base.edge_ids()])
        caps = g.edge_cap.tolist()
        ties += g.m - len(set(caps[1:]))
        assert g.capacity_order.tolist() == sorted(g.edge_ids(), key=lambda e: (caps[e], e))
        assert not g.capacity_order.flags.writeable
        assert np.array_equal(capacity_ranks(g)[g.capacity_order], np.arange(g.m))
        pairs = [(1, g.n)] + [tuple(rng.sample(range(1, g.n + 1), 2)) for _ in range(3)]
        with monkeypatch.context() as patched:
            for name in ("argsort", "sort", "lexsort"):
                patched.setattr(np, name, counted(getattr(np, name)))
            validate(g)
            preprocess(g, pairs)
        assert sorts == 0
    assert (ties > 0) == (coarsen > 1)


def test_parse_pairs(monkeypatch):
    cases = [("1\n1 3\n", [[1, 3]]),
             ("2\n1 3\n3 2\n", [[1, 3], [3, 2]]),
             ("0\n", []),
             ("1\n1 3\n\n \n", [[1, 3]])]  # blank trailing lines
    for _ in range(2):  # the bulk path, then the line scan
        for text, rows in cases:
            pairs = parse_pairs(text, 3)
            assert pairs.tolist() == rows
            assert pairs.dtype == np.int64 and pairs.shape == (len(rows), 2)
            assert not pairs.flags.writeable
        monkeypatch.setattr(np, "loadtxt", _refuse)
    with pytest.raises(ParseError):
        parse_pairs("1\n1 1\n", 3)       # s == t
    with pytest.raises(ParseError):
        parse_pairs("1\n1 9\n", 3)       # out of range
    with pytest.raises(ParseError):
        parse_pairs("x\n", 3)


@pytest.mark.parametrize("text,message", [
    ("1\n1 3\n2 3\n", "line 3: unexpected trailing content '2 3'"),
    ("0\n1 3\n", "line 2: unexpected trailing content '1 3'"),
    ("1\n1 9\n", "line 2: vertex id 9 out of range 1..3"),
    # of two defects on different lines, the earlier line wins
    ("3\n1 3\n2 2\n1 x\n", "line 3: source equals target (2)"),
    ("3\n1 3\n1 x\n2 2\n", "line 3: non-integer field in '1 x'"),
    ("2\n1 1\n", "line 2: source equals target (1)"),  # then a missing line
])
def test_parse_pairs_error_messages(text, message):
    with pytest.raises(ParseError) as info:
        parse_pairs(text, 3)
    assert str(info.value) == message


# Tokens int() and np.loadtxt might read differently, and separators that
# str.split() takes for whitespace (splitlines() also ends a line at \x0b).
FUZZ_TOKENS = ["0", "9", "-1", "+", "-", "+5", "007", "1_000", "\u0661", "\uff15", "1.0",
               "1e3", "0x10", "\x00", "2\x00", "9223372036854775807",
               "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
               "1234567890123456789", "99999999999999999999"]
FUZZ_SEPARATORS = [" ", "\u3000", "\x0b"]


def _fuzz_body(rng, n, count, width):
    """count lines of width fields, mostly valid, some with a bad token, a
    wrong field count or no fields, then maybe a trailing line."""
    lines = []
    for _ in range(count):
        fields = [str(rng.randint(1, n)) for _ in range(2)]
        fields += [rng.choice(["5", "-7", "+5", "007", "-9223372036854775808",
                               "9223372036854775807", "1234567890123456789"])] * (width - 2)
        roll = rng.random()
        if roll < 0.1:
            fields[rng.randrange(width)] = rng.choice(FUZZ_TOKENS)
        elif roll < 0.13:
            fields = fields[:-1] if rng.random() < 0.5 else fields + ["1"]
        elif roll < 0.16:
            fields = []
        lines.append(rng.choice(FUZZ_SEPARATORS).join(fields))
    lines += rng.choice([[], [], [""], ["", "1 2"]])
    return lines


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.line_no


def _same_outcome(a, b):
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


def _refuse(*args, **kwargs):
    raise ValueError("bulk path refused")


# Lines the bulk reader could take apart differently from splitlines(): blank
# or whitespace-only body lines (loadtxt skips them), every separator
# splitlines() knows besides \n, \x1f (whitespace to str.split(), no line end),
# no final newline, trailing blank lines, no body, and missing lines.
SEPARATOR_CASES = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                   "\u2028", "\u2029"]
LINE_CASES = [
    "3 2\n1 2 5\n\n2 3 7\n", "3 2\n1 2 5\n \t\n2 3 7\n", "3 2\n\n1 2 5\n2 3 7\n",
    "3 2\n1 2 5\n2 3 7", "3 2\n1 2 5\n2 3 7\n\n \n\t\n", "3 2\n1 2 5\n2 3 7 \t",
    "3 2\n1\x1f2 5\n2 3 7\n", "3 2\n1 2 5\n2 3\x007\n", "3 0\n", "3 0", "3 0\n\n",
    "3 0\n1 2 5\n", "3 3\n1 2 5\n2 3 7\n", "3 3\n1 2 5\n2 3 7", "3 3\n1 2 5\n2 3 7\n\n",
    "3 2\n1 2 5\n2 3 7\n1 3 1\n", "3 2\n1 2 5\n2 3 7\n\n1 3 1", "\n3 2\n1 2 5\n2 3 7\n",
    "", "\n", " 3 2\n 1 2 5\n\t2 3 7\n",
    *("3 2" + sep + "1 2 5" + sep + "2 3 7" + sep for sep in SEPARATOR_CASES),
    *("3 2\n1 2 5" + sep + "2 3 7\n" for sep in SEPARATOR_CASES),
    *("3 2\n1 2 5\n2 3 7\n" + sep for sep in SEPARATOR_CASES),
]
PAIR_CASES = ["2\n1 3\n\n2 3\n", "2\n1 3\n \n2 3\n", "2\n1 3\n2 3", "2\n1 3\n2 3\n\n",
              "0\n", "0\n\n", "3\n1 3\n2 3\n", "1\n1 3\n2 3\n",
              *("2" + sep + "1 3" + sep + "2 3" + sep for sep in SEPARATOR_CASES)]


def test_bulk_path_reads_like_the_scan(monkeypatch):
    # Each text is read as str and as UTF-8 bytes, in bulk where the reader
    # may, then by the line scan alone; all four outcomes must agree.
    rng = random.Random(8)
    texts = [(text, parse_graph) for text in LINE_CASES]
    texts += [(text, lambda text: parse_pairs(text, 5)) for text in PAIR_CASES]
    for _ in range(2000):
        n, m = rng.randint(2, 8), rng.randint(0, 6)
        texts.append(("\n".join([f"{n} {m}", *_fuzz_body(rng, n, m, 3)]), parse_graph))
    for _ in range(500):
        k = rng.randint(0, 6)
        texts.append(("\n".join([f"{k}", *_fuzz_body(rng, 5, k, 2)]),
                      lambda text: parse_pairs(text, 5)))
    bulk = [(_outcome(parse, text), _outcome(parse, text.encode())) for text, parse in texts]
    monkeypatch.setattr(graphs, "_bulk_readable", lambda data: False)
    for (text, parse), outcomes in zip(texts, bulk):
        expected = _outcome(parse, text)
        assert _same_outcome(_outcome(parse, text.encode()), expected), repr(text)
        assert all(_same_outcome(got, expected) for got in outcomes), repr(text)
    parsed = sum(not isinstance(outcome, tuple) for outcome, _ in bulk)
    assert 0.2 * len(texts) < parsed < 0.8 * len(texts)
    # bytes that are not UTF-8 fail as decoding does
    for data in (b"3 2\n1 2 \xff\n2 3 7\n", b"\xff", b"3 2\n1 2 5\x85\n2 3 7\n"):
        with pytest.raises(UnicodeDecodeError):
            parse_graph(data)


def test_valid_ascii_input_is_read_in_bulk(monkeypatch):
    # If np.loadtxt refused every input (say, by warning on some numpy), the
    # line scan would read all of it and only the time would show.
    def refuse(*args):
        raise AssertionError("line scan used")

    monkeypatch.setattr(graphs, "_scan_lines", refuse)
    cases = [G2_TEXT, G2_TEXT.rstrip("\n"), G2_TEXT + "\n \n", G2_TEXT.replace(" ", "\t")]
    for text in cases:
        for data in (text, text.encode()):
            assert parse_graph(data) == diamond_example()
    for data in ("2\n1 3\n3 2\n", b"2\n1 3\n3 2"):
        assert parse_pairs(data, 3).tolist() == [[1, 3], [3, 2]]


def test_parse_holds_no_line_list():
    # tracemalloc peaks on numpy 2.4: 16.3 MB for str and bytes input alike
    # while the reader built a list of lines, 9.0 MB for both reading bytes in
    # bulk, where the constructor's sorts set the peak.
    text = serialize_graph(random_benchmark_graph(20_000, 100_000, 7))
    for data in (text, text.encode()):
        tracemalloc.start()
        try:
            g = parse_graph(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.m == 100_000
        assert peak <= 10_000_000


@st.composite
def graph_texts(draw):
    n = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    count = draw(st.integers(1, len(pairs)))
    chosen = draw(st.permutations(pairs))[:count]
    caps = draw(st.lists(st.integers(-10**6, 10**6), min_size=count,
                         max_size=count, unique=True))
    return n, list(zip(chosen, caps))


@given(graph_texts())
@settings(max_examples=60)
def test_round_trip_property(data):
    n, rows = data
    g = CapacitatedGraph(n, [(u, v, c) for (u, v), c in rows])
    assert parse_graph(serialize_graph(g)) == g


def test_benchmark_graph_favours_no_vertex_ids():
    # Uniform chords put their lower endpoint in the first quarter of ids
    # with probability 1 - (3/4)^2 = 0.4375, attachment-tree edges with
    # about 0.60; together about 0.47.  Keeping the smallest candidate keys
    # instead pushed the share to 0.82.
    n, m = 20_000, 100_000
    g = random_benchmark_graph(n, m, seed=7)
    assert (g.n, g.m) == (n, m)
    assert validate(g) is None  # connected, simple, distinct capacities
    lower = np.minimum(g.edge_u[1:], g.edge_v[1:])
    assert (lower <= n // 4).mean() < 0.5
    # a complete graph needs every pair off the tree as a chord
    assert validate(random_benchmark_graph(6, 15, seed=7)) is None


def _unordered(pairs):
    return [(min(s, t), max(s, t)) for s, t in pairs.tolist()]


def test_sample_pairs_asked_for_all_takes_each_pair_once():
    rng = random.Random(14)
    for n in range(2, 41):
        total = n * (n - 1) // 2
        pairs = sample_pairs(rng, n, total + rng.randint(0, 3))
        assert sorted(_unordered(pairs)) == list(combinations(range(1, n + 1), 2))


@pytest.mark.parametrize("n", [10**5, 3 * 10**9])  # no list of all pairs fits
def test_sample_pairs_draws_distinct_pairs_at_large_n(n):
    pairs = sample_pairs(random.Random(5), n, 500)
    assert len(set(_unordered(pairs))) == 500
    assert all(1 <= s <= n and 1 <= t <= n and s != t for s, t in pairs.tolist())
    assert pairs.dtype == np.int64 and pairs.shape == (500, 2) and not pairs.flags.writeable


@pytest.mark.parametrize("tied", [False, True])
def test_descending_edges_follow_capacity_order(tied):
    # m crosses a chunk boundary; on the tied graph edge id breaks each tie
    g = random_benchmark_graph(3000, CHUNK + 2000, seed=11)
    if tied:
        caps = g.edge_cap[1:] // 100
        g = CapacitatedGraph(g.n, np.stack([g.edge_u[1:], g.edge_v[1:], caps], axis=1))
    expected = sorted(g.edge_ids(), key=lambda e: (g.capacity(e), e), reverse=True)
    assert expected == g.capacity_order[::-1].tolist()
    keep = np.random.default_rng(3).random(g.m + 1) < 0.3
    for mask, edges in ((None, expected), (keep, [e for e in expected if keep[e]])):
        assert list(descending_edges(g, mask)) == [(e, *g.endpoints(e)) for e in edges]
