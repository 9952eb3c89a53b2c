"""Path/Cycle value objects and the splicing helpers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kitelink.errors import (
    InteriorOverlap,
    InvalidCycle,
    SegmentsNotChainable,
    VertexNotOnPath,
)
from kitelink.graphs import Graph
from kitelink.paths import Cycle, Path, concat_paths, normalize_cycle, subpath


def test_path_basics():
    p = Path((3, 1, 4))
    assert p.first == 3 and p.last == 4 and len(p) == 3
    assert list(p) == [3, 1, 4]
    assert 1 in p and 2 not in p
    assert p.reverse() == Path((4, 1, 3))
    assert p.index(4) == 2
    assert list(p.edges()) == [(1, 3), (1, 4)]


def test_path_single_vertex_is_legal():
    p = Path((7,))
    assert p.first == p.last == 7
    assert list(p.edges()) == []
    assert p.reverse() == p


def test_path_rejections():
    with pytest.raises(VertexNotOnPath):
        Path(())
    with pytest.raises(InteriorOverlap):
        Path((1, 2, 1))
    with pytest.raises(VertexNotOnPath):
        Path((1, 2)).index(9)


def test_path_walk_check():
    g = Graph(4, [(0, 1), (1, 2)])
    assert Path((0, 1, 2)).is_walk_in(g)
    assert not Path((0, 2)).is_walk_in(g)
    assert Path((3,)).is_walk_in(g)


def test_cycle_normalization():
    assert Cycle((2, 0, 1)) == Cycle((0, 1, 2))
    assert Cycle((1, 2, 0)) == Cycle((2, 1, 0))
    assert Cycle((5, 3, 4, 6)).vertices == (3, 4, 6, 5)
    with pytest.raises(InvalidCycle):
        Cycle((0, 1))
    with pytest.raises(InvalidCycle):
        Cycle((0, 1, 0))


def test_cycle_edges_wrap():
    c = Cycle((0, 1, 2, 3))
    assert sorted(c.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert c.is_walk_in(g)
    assert not Cycle((0, 1, 3)).is_walk_in(g)


def test_path_and_cycle_on_the_same_vertices_differ():
    p, c = Path((0, 1, 2)), Cycle((0, 1, 2))
    assert p.vertices == c.vertices
    assert p != c and c != p
    assert hash(p) != hash(c)
    assert len({p, c}) == 2
    assert repr(p) == "Path([0, 1, 2])" and repr(c) == "Cycle([0, 1, 2])"


def test_subpath_orientation():
    p = Path((5, 2, 8, 1, 9))
    assert subpath(p, 2, 1) == Path((2, 8, 1))
    assert subpath(p, 1, 2) == Path((1, 8, 2))
    assert subpath(p, 8, 8) == Path((8,))
    with pytest.raises(VertexNotOnPath):
        subpath(p, 2, 7)


def test_concat_to_path_and_cycle():
    got = concat_paths([Path((0, 1)), Path((1, 2, 3))])
    assert got == Path((0, 1, 2, 3))
    got = concat_paths([Path((0, 1, 2)), Path((2, 3)), Path((3, 0))])
    assert got == Cycle((0, 1, 2, 3))
    # degenerate single-vertex stems splice transparently
    assert concat_paths([Path((4,)), Path((4, 5))]) == Path((4, 5))


def test_concat_rejections():
    with pytest.raises(SegmentsNotChainable):
        concat_paths([])
    with pytest.raises(SegmentsNotChainable):
        concat_paths([Path((0, 1)), Path((2, 3))])
    with pytest.raises(InteriorOverlap):
        concat_paths([Path((0, 1, 2)), Path((2, 1))])
    with pytest.raises(InteriorOverlap):
        concat_paths([Path((0, 1, 2)), Path((2, 3, 1, 0))])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=3, max_size=12, unique=True))
def test_normalize_cycle_is_rotation_and_reflection_invariant(vs):
    base = normalize_cycle(vs)
    for shift in range(len(vs)):
        rotated = vs[shift:] + vs[:shift]
        assert normalize_cycle(rotated) == base
        assert normalize_cycle(rotated[::-1]) == base
    assert base[0] == min(vs)
    assert sorted(base) == sorted(vs)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=2, max_size=10, unique=True), st.data())
def test_subpath_endpoints_and_membership(vs, data):
    p = Path(vs)
    a = data.draw(st.sampled_from(vs))
    b = data.draw(st.sampled_from(vs))
    q = subpath(p, a, b)
    assert q.first == a and q.last == b
    assert set(q.vertices) <= set(vs)
    lo, hi = sorted((p.index(a), p.index(b)))
    assert len(q) == hi - lo + 1
