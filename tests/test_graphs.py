import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bptol import (CapacitatedGraph, ParseError, QueryPair, capacity_ranks,
                   diamond_example, parse_graph, parse_pairs, serialize_graph,
                   single_edge_example, triangle_example, validate)

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
    ("3 2\n1 2 5\nbogus\n", 3),
    ("3 2\n1 2 5\n2 3 x\n", 3),
    ("3 2\n1 2 5\n2 9 1\n", 3),                # vertex out of range
    ("3 2\n1 2 5\n1 2 4\n", 3),                # parallel edge
    ("3 2\n2 1 5\n1 2 4\n", 3),                # parallel, reversed endpoints
    ("2 1\n1 2 99999999999999999999\n", 2),    # capacity overflow
    ("2 1\n1 2 7\ntrailing\n", 3),
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as info:
        parse_graph(text)
    assert info.value.line_no == line
    assert f"line {line}:" in str(info.value)


def test_parse_allows_self_loop_then_validate_rejects():
    g = parse_graph("2 2\n1 1 3\n1 2 7\n")
    v = validate(g)
    assert v is not None and v.kind == "self-loop" and v.witness == (1,)


def test_validate_fixtures_pass():
    for g in (triangle_example(), diamond_example(), single_edge_example()):
        assert validate(g) is None


def test_validate_disconnected():
    g = CapacitatedGraph(4, [(1, 2, 5), (3, 4, 2)])
    v = validate(g)
    assert v is not None and v.kind == "disconnected"
    assert v.witness == (1, 3)


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
    assert g.degree(3) == 3
    assert sorted(g.incident(1)) == [(2, 1), (3, 4)]
    assert [e for _, e in g.incident(2)] == [1, 2, 5]  # input order
    assert g.endpoints(4) == (1, 3)
    assert g.capacity(3) == 6
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


def test_parse_pairs():
    assert parse_pairs("1\n1 3\n", 3) == [QueryPair(1, 3)]
    assert parse_pairs("2\n1 3\n3 2\n", 3) == [QueryPair(1, 3), QueryPair(3, 2)]
    assert parse_pairs("0\n", 3) == []
    with pytest.raises(ParseError):
        parse_pairs("1\n1 1\n", 3)       # s == t
    with pytest.raises(ParseError):
        parse_pairs("1\n1 9\n", 3)       # out of range
    with pytest.raises(ParseError):
        parse_pairs("x\n", 3)


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
