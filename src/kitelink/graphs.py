"""Immutable simple graphs on dense integer vertices, plus parsing.

Vertices are always 0..n-1.  Edges are unordered pairs stored as (u, v)
with u < v.  The text format is a header line "n m" followed by m lines
"u v"; a JSON alternative is {"n": ..., "edges": [[u, v], ...]}.
"""

from __future__ import annotations

import json
from typing import Iterable

from .errors import (
    DuplicateEdge,
    LoopEdge,
    MalformedLine,
    VertexOutOfRange,
)

# The largest vertex count a Graph accepts, checked before anything is
# allocated.  It bounds the per-vertex lists, not the adjacency
# bitmasks the edges fill: a mask is as wide as its vertex's highest
# neighbour, so all masks together can take n² bits.  Building a Graph
# from a ready edge list raised peak memory (resource.getrusage, Python
# 3.11 on a 2-core Xeon) by 75 MB on C_32000(1,2,3,4) in 0.12-0.14 s,
# 66 MB of it masks, and by 339 MB on K_{7,49993} with its hubs
# numbered last in 0.54 s, 319 MB of it masks; at this cap that K_{7,m}
# would hold about 1.3 GB of masks (not run).
# The tier-1 tests build hosts of up to 1,504 vertices, and CI checks
# the connectivity of hosts of 1,000 and 4,000.  The dense generators
# are bounded by their vertex pairs (generators.MAX_PAIRS), not by this.
MAX_VERTICES = 100_000


def check_vertex_count(n: int) -> None:
    """Raise VertexOutOfRange unless 0 <= n <= MAX_VERTICES."""
    if not 0 <= n <= MAX_VERTICES:
        raise VertexOutOfRange(f"vertex count {n} outside 0..{MAX_VERTICES}")


class Graph:
    """An immutable simple undirected graph.

    Each vertex's adjacency bitmask is built with its neighbour tuple,
    and the edge list is read off the neighbour tuples.  Equality and
    hashing read the neighbour tuples, one per vertex, so two graphs are
    equal exactly when they have the same n and the same edges.
    """

    __slots__ = ("n", "m", "_adj", "_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        check_vertex_count(n)
        self.n = n
        adj: list[list[int]] = [[] for _ in range(n)]
        masks = [0] * n
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise LoopEdge(f"loop at vertex {u}")
            if masks[u] >> v & 1:
                continue
            m += 1
            adj[u].append(v)
            adj[v].append(u)
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.m = m
        self._adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(nbrs)) for nbrs in adj
        )
        self._masks: tuple[int, ...] = tuple(masks)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge (u, v), u < v, in increasing order, read off the
        sorted neighbour tuples."""
        return tuple((u, v) for u, nbrs in enumerate(self._adj) for v in nbrs if u < v)

    def vertices(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def min_degree(self) -> int:
        return min((len(a) for a in self._adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and self._masks[u] >> v & 1 == 1

    def adjacency_mask(self, v: int) -> int:
        return self._masks[v]

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def connected_avoiding(g: Graph, a: int, b: int, banned: int) -> bool:
    """True when a and b lie in one component of g minus the banned set.

    ``banned`` is a bitmask of forbidden vertices; a and b themselves are
    always allowed.
    """
    # Not a call of layers_avoiding: this loop keeps no layer list and
    # stops as soon as a frontier touches b.  As that one-line call,
    # find_kite_exhaustive ran 11-21% slower: 300 calls over five small
    # circulants took 488-521 ms with this loop and 543-631 ms with that
    # call (best of 7, three alternations, on a 2-core Xeon).
    if a == b:
        return True
    target = 1 << b
    seen = (1 << a) | banned & ~target
    frontier = 1 << a
    while frontier:
        nxt = 0
        v = frontier
        while v:
            low = v & -v
            nxt |= g.adjacency_mask(low.bit_length() - 1)
            v ^= low
        if nxt & target:
            return True
        frontier = nxt & ~seen
        seen |= frontier
    return False


def layers_avoiding(g: Graph, root: int, banned: int, stop: int) -> list[int]:
    """Breadth-first layers around root in g minus banned, as bitmasks,
    ending with the first layer that meets stop (or the last layer)."""
    layers = [1 << root]
    seen = layers[0] | banned
    while not layers[-1] & stop:
        nxt = 0
        v = layers[-1]
        while v:
            low = v & -v
            nxt |= g.adjacency_mask(low.bit_length() - 1)
            v ^= low
        nxt &= ~seen
        if not nxt:
            break
        seen |= nxt
        layers.append(nxt)
    return layers


def shortest_avoiding(g: Graph, a: int, b: int, banned: int) -> list[int] | None:
    """The lexicographically least shortest a-b path in g minus the
    banned set, or None.

    ``banned`` is a bitmask as in connected_avoiding, and again a and b
    are always allowed.  The path walks from a down the breadth-first
    layers around b, stepping each time to the lowest neighbour in the
    next layer.
    """
    layers = layers_avoiding(g, b, banned & ~(1 << a), 1 << a)
    if not layers[-1] >> a & 1:
        return None
    path = [a]
    for layer in reversed(layers[:-1]):
        m = g.adjacency_mask(path[-1]) & layer
        path.append((m & -m).bit_length() - 1)
    return path


def vertex_mask(vertices: Iterable[int]) -> int:
    """The bitmask with bit v set for every v in vertices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _edge_key(u: int, v: int, n: int, seen: set[tuple[int, int]]) -> tuple[int, int]:
    """Edge u-v as stored, (min, max), after adding it to seen; rejects
    an endpoint outside 0..n-1, a loop and an edge already in seen."""
    if not (0 <= u < n and 0 <= v < n):
        raise VertexOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
    if u == v:
        raise LoopEdge(f"loop at vertex {u}")
    key = (u, v) if u < v else (v, u)
    if key in seen:
        raise DuplicateEdge(f"edge ({u}, {v}) listed twice")
    seen.add(key)
    return key


def _parse_int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise MalformedLine(f"{what}: {tok!r} is not an integer") from None


def parse_graph(text: str) -> Graph:
    """Parse the "n m" text format. Duplicate edge lines are rejected."""
    lines = text.splitlines()
    idx = 0
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx >= len(lines):
        raise MalformedLine("empty input")
    head = lines[idx].split()
    if len(head) != 2:
        raise MalformedLine(f"header must be 'n m', got {lines[idx]!r}")
    n = _parse_int(head[0], "vertex count")
    m = _parse_int(head[1], "edge count")
    if n < 0 or m < 0:
        raise MalformedLine("negative count in header")
    idx += 1
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    taken = 0
    while taken < m:
        if idx >= len(lines):
            raise MalformedLine(f"expected {m} edge lines, found {taken}")
        line = lines[idx]
        idx += 1
        if not line.strip():
            raise MalformedLine("blank line inside edge list")
        parts = line.split()
        if len(parts) != 2:
            raise MalformedLine(f"edge line must be 'u v', got {line!r}")
        u = _parse_int(parts[0], "edge endpoint")
        v = _parse_int(parts[1], "edge endpoint")
        edges.append(_edge_key(u, v, n, seen))
        taken += 1
    for rest in lines[idx:]:
        if rest.strip():
            raise MalformedLine(f"unexpected trailing line {rest!r}")
    return Graph(n, edges)


def format_graph(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def load_json(text: str, what: str) -> object:
    """json.loads(text); text the parser rejects raises MalformedLine
    with the message f"{what}: {error}"."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        # JSONDecodeError is a ValueError, as is an integer over Python's
        # digit limit; nesting too deep for the parser is a RecursionError.
        raise MalformedLine(f"{what}: {e}") from None


def parse_graph_json(obj: object) -> Graph:
    """Parse the JSON form (a dict or a JSON string)."""
    if isinstance(obj, str):
        obj = load_json(obj, "invalid JSON")
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise MalformedLine("JSON graph needs 'n' and 'edges' keys")
    n, items = obj["n"], obj["edges"]
    # JSON true and false arrive as bool, a subclass of int: reject them.
    if type(n) is not int:
        raise MalformedLine("'n' must be an integer")
    if not isinstance(items, (list, tuple)):
        raise MalformedLine("'edges' must be a list of pairs")
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for item in items:
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise MalformedLine(f"edge entry {item!r} must be a pair")
        u, v = item
        if not (type(u) is int and type(v) is int):
            raise MalformedLine(f"edge entry {item!r} must hold integers")
        edges.append(_edge_key(u, v, n, seen))
    return Graph(n, edges)


def graph_as_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges]}
