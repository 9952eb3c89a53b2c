"""Graph value object, text/JSON parsing, masked reachability and
shortest paths."""

from __future__ import annotations

import sys

import pytest
from hypothesis import example, given, settings
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
)


@st.composite
def _edge_list_and_variant(draw):
    # An edge list over n <= 10 with repeats in both orientations, and a
    # shuffled copy with every entry's orientation drawn afresh.
    n = draw(st.integers(0, 10))
    edges = []
    if n >= 2:
        edge = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(
            lambda e: (e[0], (e[0] + e[1]) % n)
        )
        edges = draw(st.lists(edge, max_size=30))
    if edges:
        edges += [(v, u) for u, v in draw(st.lists(st.sampled_from(edges), max_size=10))]
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    variant = [(v, u) if f else (u, v) for (u, v), f in zip(draw(st.permutations(edges)), flips)]
    return n, edges, variant


@settings(max_examples=300, deadline=None)
@given(case=_edge_list_and_variant())
@example(case=(4, [(3, 0), (0, 1), (1, 0), (2, 0)], [(0, 2), (1, 0), (0, 3)]))
def test_adjacency_is_sorted_and_deduplicated(case):
    n, edges, variant = case
    keys = sorted({(min(u, v), max(u, v)) for u, v in edges})
    g = Graph(n, edges)
    assert g.edges == tuple(keys)
    assert g.m == len(keys)
    for v in range(n):
        assert g.neighbors(v) == tuple(sorted({a + b - v for a, b in keys if v in (a, b)}))
    h = Graph(n, variant)
    assert h == g and hash(h) == hash(g)
    for key in keys:
        assert Graph(n, [e for e in edges if (min(e), max(e)) != key]) != g
    assert Graph(n + 1, edges) != g


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
    with pytest.raises(MalformedLine, match="vertex count: 'x' is not an integer"):
        parse_graph("x 1\n0 1\n")
    with pytest.raises(MalformedLine, match="edge endpoint: '1.5' is not an integer"):
        parse_graph("3 1\n0 1.5\n")
    with pytest.raises(MalformedLine, match="negative count in header"):
        parse_graph("3 -1\n")
    with pytest.raises(MalformedLine, match="blank line inside edge list"):
        parse_graph("3 2\n0 1\n\n1 2\n")
    # blank lines before the header are skipped
    assert parse_graph("\n  \n3 1\n0 2\n") == Graph(3, [(0, 2)])


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
    # Nesting past any recursion limit, and an integer past Python's digit
    # limit for converting one, where it has a limit.
    texts = ['{"n": 1, "edges": %s}' % ("[" * 100_000 + "]" * 100_000)]
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5_001:
        texts.append('{"n": 1%s, "edges": []}' % ("0" * 5_000))
    for text in texts:
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
    # Among the shortest paths, the one that comes back is the least as
    # a vertex sequence from a.
    g = Graph(7, edges)
    mask = banned & ~((1 << a) | (1 << b))
    blocked = frozenset(v for v in range(7) if mask >> v & 1)
    paths = list(all_simple_paths(g, a, b, blocked))
    path = shortest_avoiding(g, a, b, banned)
    if not paths:
        assert path is None
    else:
        assert tuple(path) == min(paths, key=lambda p: (len(p), p))
