"""Immutable simple-graph values and the structural operations on them.

Vertices are dense integers ``0..n-1``.  Adjacency is stored as one bitmask
row per vertex (bit ``u`` of ``rows[v]`` is set iff ``uv`` is an edge), which
keeps neighbourhood intersection, degree counting and vertex-incremental
search cheap.  Every operation returns a new value; nothing here mutates, so
graphs are safe to share across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


def _bits(mask: int) -> Iterator[int]:
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def _twin_classes(rows: tuple[int, ...]) -> list[int]:
    """For each vertex v, the vertex mask of v's class of the relation
    "swapping u and v is an automorphism".

    Two vertices are twins when their open neighbourhoods coincide, or their
    closed neighbourhoods coincide; chains of such transpositions compose to
    automorphisms, so a search that commutes with automorphisms needs one
    representative per class.  No vertex u has both an open twin v and a
    closed twin w: w is adjacent to u, so w lies in N(u) = N(v) and v in
    N(w), hence in N[u]; but open twins are non-adjacent.  So of v's
    open-twin class and closed-twin class one is {v} alone, their union is
    v's class, and v is adjacent to its class-mates iff the class is closed.

    This is the package's one twin relation: canon branches on one vertex
    per class, canonical augmentation in search takes label-order prefixes
    of the classes, the book walk (which also answers the clique question)
    skips whole classes, and colouring keeps one vertex per open class.
    """
    open_cls: dict[int, int] = {}
    closed_cls: dict[int, int] = {}
    for v, row in enumerate(rows):
        bit = 1 << v
        open_cls[row] = open_cls.get(row, 0) | bit
        closed_cls[row | bit] = closed_cls.get(row | bit, 0) | bit
    return [open_cls[row] | closed_cls[row | 1 << v]
            for v, row in enumerate(rows)]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on labelled vertices 0..n-1."""

    rows: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.rows)

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(len(self.rows)):
            for v in _bits(self.rows[u] >> u + 1 << u + 1):
                yield u, v

    def validate(self) -> None:
        """Check symmetry, empty diagonal and row width; raise ValueError."""
        n = len(self.rows)
        for v, row in enumerate(self.rows):
            if row >> n:
                raise ValueError(f"row {v} has bits beyond vertex range")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
            for u in _bits(row):
                if not self.rows[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric at ({u}, {v})")


def empty_graph(n: int) -> Graph:
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    return Graph((0,) * n)


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for order {n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(tuple(rows))


def add_edge(g: Graph, u: int, v: int) -> Graph:
    """Return g plus the edge uv (g itself if already present)."""
    n = g.order
    if u == v:
        raise ValueError(f"loop at vertex {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u}, {v}) out of range for order {n}")
    if g.rows[u] >> v & 1:
        return g
    rows = list(g.rows)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    return Graph(tuple(rows))


def remove_edge(g: Graph, u: int, v: int) -> Graph:
    n = g.order
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u}, {v}) out of range for order {n}")
    if not g.rows[u] >> v & 1:
        return g
    rows = list(g.rows)
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return Graph(tuple(rows))


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every edge between the two sides."""
    n1, n2 = g1.order, g2.order
    high = ((1 << n2) - 1) << n1
    low = (1 << n1) - 1
    rows = [row | high for row in g1.rows]
    rows += [(row << n1) | low for row in g2.rows]
    return Graph(tuple(rows))


def relabel(g: Graph, perm: Iterable[int]) -> Graph:
    """Apply the permutation old->new to vertex labels."""
    p = list(perm)
    n = g.order
    if sorted(p) != list(range(n)):
        raise ValueError("not a permutation of the vertex set")
    rows = [0] * n
    for v in range(n):
        acc = 0
        for u in _bits(g.rows[v]):
            acc |= 1 << p[u]
        rows[p[v]] = acc
    return Graph(tuple(rows))
