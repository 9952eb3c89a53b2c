"""Paths and cycles as value objects, with the splicing operations the
constructive proofs lean on.

A Path is a sequence of distinct vertices; whether consecutive vertices
are adjacent is a property relative to a host graph and is checked by the
verifiers, not here.  Single-vertex paths are legal: they show up as
degenerate proof segments.  Cycles are normalized so equality is
independent of rotation and direction.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import (
    InteriorOverlap,
    InvalidCycle,
    SegmentsNotChainable,
    VertexNotOnPath,
)


class _Walk:
    """What Path and Cycle share: a tuple of distinct vertices that
    compares, hashes and prints together with its kind.  A closed walk's
    edges wrap around from the last vertex to the first."""

    __slots__ = ("vertices",)
    _closed = False

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices)

    def __contains__(self, v: int) -> bool:
        return v in self.vertices

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.vertices))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.vertices)})"

    def edges(self) -> Iterator[tuple[int, int]]:
        vs = self.vertices
        for a, b in zip(vs, vs[1:] + vs[:1] if self._closed else vs[1:]):
            yield (a, b) if a < b else (b, a)


class Path(_Walk):
    __slots__ = ()

    def __init__(self, vertices: Sequence[int]):
        vs = tuple(vertices)
        if not vs:
            raise VertexNotOnPath("a path needs at least one vertex")
        if len(set(vs)) != len(vs):
            raise InteriorOverlap(f"path repeats a vertex: {vs}")
        self.vertices = vs

    @property
    def first(self) -> int:
        return self.vertices[0]

    @property
    def last(self) -> int:
        return self.vertices[-1]

    def reverse(self) -> "Path":
        return Path(self.vertices[::-1])

    def index(self, v: int) -> int:
        try:
            return self.vertices.index(v)
        except ValueError:
            raise VertexNotOnPath(f"{v} not on {self!r}") from None


def normalize_cycle(vertices: Sequence[int]) -> tuple[int, ...]:
    """Rotate to start at the smallest vertex, then pick the direction with
    the lexicographically smaller sequence.  Tolerates arbitrary input so
    unvalidated candidates can still be put in canonical form.  A tuple
    already in that form is returned as it is."""
    vs = tuple(vertices)
    if not vs:
        return vs
    if vs[0] == min(vs) and (len(vs) < 3 or vs[1] < vs[-1]):
        return vs
    i = vs.index(min(vs))
    fwd = vs[i:] + vs[:i]
    rev = (fwd[0],) + fwd[1:][::-1]
    return min(fwd, rev)


class Cycle(_Walk):
    """A simple cycle on >= 3 distinct vertices, stored in canonical form."""

    __slots__ = ()
    _closed = True

    def __init__(self, vertices: Sequence[int]):
        vs = tuple(vertices)
        if len(vs) < 3:
            raise InvalidCycle(f"cycle needs at least 3 vertices, got {vs}")
        if len(set(vs)) != len(vs):
            raise InvalidCycle(f"cycle repeats a vertex: {vs}")
        self.vertices = normalize_cycle(vs)


def subpath(p: Path, a: int, b: int) -> Path:
    """The contiguous segment of p between a and b, oriented a -> b."""
    ia, ib = p.index(a), p.index(b)
    if ia <= ib:
        return Path(p.vertices[ia : ib + 1])
    return Path(p.vertices[ib : ia + 1][::-1])


def concat_paths(segments: Sequence[Path]) -> Path | Cycle:
    """Chain segments end-to-start into one path, or a cycle if closed.

    Consecutive segments must share exactly their junction vertex; apart
    from junctions (and the closing vertex of a cycle) no vertex may
    repeat anywhere in the chain.
    """
    if not segments:
        raise SegmentsNotChainable("no segments given")
    merged: list[int] = list(segments[0].vertices)
    for seg in segments[1:]:
        if seg.first != merged[-1]:
            raise SegmentsNotChainable(
                f"segment starting at {seg.first} does not continue from {merged[-1]}"
            )
        merged.extend(seg.vertices[1:])
    closed = len(merged) > 1 and merged[0] == merged[-1]
    if closed:
        merged.pop()
    if len(set(merged)) != len(merged):
        raise InteriorOverlap(f"chained segments revisit a vertex: {merged}")
    return Cycle(merged) if closed else Path(merged)
