"""Canonical labelling via equitable degree refinement and backtracking.

The vertex partition is refined until equitable (within every cell, all
vertices have the same number of neighbours in every cell).  If cells remain
non-singleton, the search individualizes each vertex of the first smallest
non-singleton cell in label order, re-refines, and recurses; branches whose
chosen vertex is a twin of an already-explored one are skipped, because the
swap is an automorphism and yields the same leaves.  The canonical labelling
is the leaf whose relabelled adjacency rows compare smallest, so equal
canonical forms certify isomorphism and distinct forms refute it.

Twin pruning is what keeps large blow-up joins tractable: their refinement
stabilizes with one cell per interchangeable vertex class, and without the
pruning the search would branch factorially inside those classes.
"""

from __future__ import annotations

from collections import deque

from .graphs import Graph

CanonicalForm = bytes


def _mask_of(vertices: list[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _twin_roots(rows: tuple[int, ...]) -> list[int]:
    """Union-find roots of the relation "swapping u and v is an automorphism".

    Two vertices are merged when their open neighbourhoods coincide, or their
    closed neighbourhoods coincide; chains of such transpositions compose to
    automorphisms, so one representative per class suffices while branching.
    """
    n = len(rows)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in range(n):
        ru = rows[u]
        cu = ru | 1 << u
        for v in range(u + 1, n):
            if rows[v] == ru or rows[v] | 1 << v == cu:
                parent[find(v)] = find(u)
    return [find(v) for v in range(n)]


def _refine(rows: tuple[int, ...], cells: list[list[int]],
            queue: deque[int]) -> list[list[int]]:
    """Refine cells to equitability; queue holds splitter masks to process."""
    while queue:
        smask = queue.popleft()
        out: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups: dict[int, list[int]] = {}
            for v in cell:
                groups.setdefault((rows[v] & smask).bit_count(), []).append(v)
            if len(groups) == 1:
                out.append(cell)
            else:
                for cnt in sorted(groups):
                    frag = groups[cnt]
                    out.append(frag)
                    queue.append(_mask_of(frag))
        cells = out
    return cells


def canon_rows(rows: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Return (canonical adjacency rows, permutation old-label -> new-label)."""
    n = len(rows)
    if n == 0:
        return (), ()
    if n == 1:
        return (0,), (0,)

    twin = _twin_roots(rows)
    cells0 = _refine(rows, [list(range(n))], deque([(1 << n) - 1]))

    best_rows: list[int] | None = None
    best_perm: list[int] | None = None

    def leaf(cells: list[list[int]]) -> None:
        nonlocal best_rows, best_perm
        perm = [0] * n
        for pos, cell in enumerate(cells):
            perm[cell[0]] = pos
        new_rows = [0] * n
        for v in range(n):
            acc = 0
            m = rows[v]
            while m:
                lsb = m & -m
                acc |= 1 << perm[lsb.bit_length() - 1]
                m ^= lsb
            new_rows[perm[v]] = acc
        if best_rows is None or new_rows < best_rows:
            best_rows = new_rows
            best_perm = perm

    def search(cells: list[list[int]]) -> None:
        target = -1
        size = n + 1
        for i, cell in enumerate(cells):
            if 1 < len(cell) < size:
                target = i
                size = len(cell)
        if target < 0:
            leaf(cells)
            return
        cell = cells[target]
        seen_roots: set[int] = set()
        for v in cell:
            root = twin[v]
            if root in seen_roots:
                continue
            seen_roots.add(root)
            rest = [u for u in cell if u != v]
            child = cells[:target] + [[v], rest] + cells[target + 1:]
            queue = deque([1 << v, _mask_of(rest)])
            search(_refine(rows, child, queue))

    search(cells0)
    assert best_rows is not None and best_perm is not None
    return tuple(best_rows), tuple(best_perm)


def pack_rows(rows: tuple[int, ...]) -> bytes:
    """Fixed-width byte encoding of labelled adjacency rows (order included)."""
    n = len(rows)
    width = (n + 7) // 8
    return n.to_bytes(4, "big") + b"".join(r.to_bytes(width, "big") for r in rows)


def canonical_form(g: Graph) -> CanonicalForm:
    """Relabelling-invariant fingerprint identifying g's isomorphism class."""
    rows, _ = canon_rows(g.rows)
    return pack_rows(rows)


def canonical_graph(g: Graph) -> Graph:
    """The canonically labelled representative of g's isomorphism class."""
    rows, _ = canon_rows(g.rows)
    return Graph(rows)


def canonical_permutation(g: Graph) -> tuple[int, ...]:
    """Permutation old->new such that relabel(g, perm) is canonical."""
    _, perm = canon_rows(g.rows)
    return perm


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.order != g2.order or g1.edge_count() != g2.edge_count():
        return False
    return canon_rows(g1.rows)[0] == canon_rows(g2.rows)[0]


def dedup_by_isomorphism(graphs: list[Graph]) -> list[Graph]:
    """One canonical representative per isomorphism class, canonically sorted."""
    out: dict[bytes, Graph] = {}
    for g in graphs:
        rows, _ = canon_rows(g.rows)
        out.setdefault(pack_rows(rows), Graph(rows))
    return [out[key] for key in sorted(out)]
