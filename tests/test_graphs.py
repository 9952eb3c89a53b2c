"""Graph value object, text/JSON parsing, masked reachability and
shortest paths."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import all_simple_paths
from kitelink.errors import (
    DuplicateEdge,
    LoopEdge,
    MalformedLine,
    VertexOutOfRange,
)
from kitelink.graphs import (
    MAX_VERTICES,
    Graph,
    connected_avoiding,
    format_graph,
    graph_as_json,
    parse_graph,
    parse_graph_json,
    shortest_avoiding,
    vertex_mask,
)


def test_adjacency_is_sorted_and_deduplicated():
    g = Graph(4, [(3, 0), (0, 1), (1, 0), (2, 0)])
    assert g.neighbors(0) == (1, 2, 3)
    assert g.m == 3
    assert g.edges == ((0, 1), (0, 2), (0, 3))


def test_constructor_rejects_bad_edges():
    with pytest.raises(LoopEdge):
        Graph(3, [(1, 1)])
    with pytest.raises(VertexOutOfRange):
        Graph(3, [(0, 3)])
    with pytest.raises(VertexOutOfRange):
        Graph(-1, [])


def test_vertex_count_over_the_cap_is_rejected_before_allocation():
    assert Graph(MAX_VERTICES, []).n == MAX_VERTICES
    with pytest.raises(VertexOutOfRange):
        Graph(MAX_VERTICES + 1, [])
    with pytest.raises(VertexOutOfRange):
        parse_graph("100000000 0\n")
    with pytest.raises(VertexOutOfRange):
        parse_graph_json('{"n": 100000000, "edges": []}')


def test_has_edge_and_masks():
    g = Graph(5, [(0, 2), (2, 4)])
    assert g.has_edge(2, 0) and g.has_edge(2, 4)
    assert not g.has_edge(0, 4)
    assert not g.has_edge(0, 9)
    assert not g.has_edge(-1, 0) and not g.has_edge(0, -1) and not g.has_edge(4, -1)
    assert g.adjacency_mask(2) == (1 << 0) | (1 << 4)
    assert g.degree(2) == 2 and g.min_degree() == 0


def test_parse_format_roundtrip():
    text = "4 3\n0 1\n1 2\n2 3\n"
    g = parse_graph(text)
    assert format_graph(g) == text
    assert parse_graph(format_graph(g)) == g


def test_parse_rejections():
    with pytest.raises(MalformedLine):
        parse_graph("")
    with pytest.raises(MalformedLine):
        parse_graph("3\n")
    with pytest.raises(MalformedLine):
        parse_graph("2 1\n")
    with pytest.raises(MalformedLine):
        parse_graph("2 1\n0 1 2\n")
    with pytest.raises(MalformedLine):
        parse_graph("2 1\n0 1\njunk\n")
    with pytest.raises(DuplicateEdge):
        parse_graph("3 2\n0 1\n1 0\n")
    with pytest.raises(LoopEdge):
        parse_graph("3 1\n2 2\n")
    with pytest.raises(VertexOutOfRange):
        parse_graph("3 1\n0 3\n")


def test_json_roundtrip_and_rejections():
    g = Graph(4, [(0, 1), (2, 3)])
    assert parse_graph_json(graph_as_json(g)) == g
    assert parse_graph_json('{"n": 2, "edges": [[0, 1]]}').m == 1
    with pytest.raises(MalformedLine):
        parse_graph_json("{not json")
    with pytest.raises(MalformedLine):
        parse_graph_json({"n": 3})
    with pytest.raises(MalformedLine):
        parse_graph_json({"n": 3, "edges": [[0, 1, 2]]})
    with pytest.raises(DuplicateEdge):
        parse_graph_json({"n": 3, "edges": [[0, 1], [1, 0]]})
    # Edges that are not a list, and JSON booleans where integers belong.
    for text in (
        '{"n": 3, "edges": null}',
        '{"n": 3, "edges": 5}',
        '{"n": true, "edges": []}',
        '{"n": 3, "edges": [[true, 2]]}',
        '{"n": 3, "edges": [[0, false]]}',
    ):
        with pytest.raises(MalformedLine):
            parse_graph_json(text)


@pytest.mark.parametrize(
    "edges, error, message",
    [
        ([(0, 3)], VertexOutOfRange, "edge (0, 3) outside 0..2"),
        ([(2, 2)], LoopEdge, "loop at vertex 2"),
        ([(0, 1), (1, 0)], DuplicateEdge, "edge (1, 0) listed twice"),
    ],
)
def test_both_parsers_reject_bad_edges_alike(edges, error, message):
    text = f"3 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    obj = {"n": 3, "edges": [list(e) for e in edges]}
    for parse, source in ((parse_graph, text), (parse_graph_json, obj)):
        with pytest.raises(error) as exc:
            parse(source)
        assert str(exc.value) == message


def test_connected_avoiding_on_path_graph():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert connected_avoiding(g, 0, 4, 0)
    assert not connected_avoiding(g, 0, 4, 1 << 2)
    # endpoints are exempt from the ban mask
    assert connected_avoiding(g, 0, 4, (1 << 0) | (1 << 4))
    assert connected_avoiding(g, 3, 3, (1 << 3))


_EDGE_SETS = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda e: e[0] != e[1]),
    max_size=18,
)


@settings(max_examples=200, deadline=None)
@given(edges=_EDGE_SETS, a=st.integers(0, 6), b=st.integers(0, 6), banned=st.integers(0, 127))
def test_connected_avoiding_matches_path_enumeration(edges, a, b, banned):
    g = Graph(7, edges)
    mask = banned & ~((1 << a) | (1 << b))
    blocked = frozenset(v for v in range(7) if mask >> v & 1)
    expected = a == b or any(True for _ in all_simple_paths(g, a, b, blocked))
    assert connected_avoiding(g, a, b, banned) == expected


@settings(max_examples=200, deadline=None)
@given(edges=_EDGE_SETS, a=st.integers(0, 6), b=st.integers(0, 6), banned=st.integers(0, 127))
def test_shortest_avoiding_matches_path_enumeration(edges, a, b, banned):
    g = Graph(7, edges)
    mask = banned & ~((1 << a) | (1 << b))
    blocked = frozenset(v for v in range(7) if mask >> v & 1)
    lengths = [len(p) for p in all_simple_paths(g, a, b, blocked)]
    path = shortest_avoiding(g, a, b, banned)
    if a == b:
        assert path == [a]
    elif not lengths:
        assert path is None
    else:
        assert path[0] == a and path[-1] == b and len(path) == min(lengths)
        assert all(g.has_edge(u, v) for u, v in zip(path, path[1:]))
        assert not vertex_mask(path) & mask
