"""Canonical labelling via equitable degree refinement and backtracking.

The vertex partition is refined until equitable (within every cell, all
vertices have the same number of neighbours in every cell).  If cells remain
non-singleton, the search individualizes each vertex of the first smallest
non-singleton cell in label order, re-refines, and descends; branches whose
chosen vertex is a twin of an already-explored one are skipped, because the
swap is an automorphism and yields the same leaves.  The canonical labelling
is the first leaf, in depth-first order, whose relabelled adjacency rows
compare smallest, so equal canonical forms certify isomorphism and distinct
forms refute it.

The search walks an explicit stack rather than recursing: a twin cell is
individualized one vertex per level, so an empty or complete graph on n
vertices is n levels deep.

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
    """Class labels of the relation "swapping u and v is an automorphism".

    Two vertices are twins when their open neighbourhoods coincide, or their
    closed neighbourhoods coincide; chains of such transpositions compose to
    automorphisms, so one representative per class suffices while branching.
    No vertex u has both an open twin v and a closed twin w: w is adjacent
    to u, so w lies in N(u) = N(v) and v in N(w), hence in N[u]; but open
    twins are non-adjacent.  So each class is one open-twin or one
    closed-twin class, labelled by its first vertex: the smaller of the
    first vertex with v's open row and the first with v's closed row.
    """
    first_open: dict[int, int] = {}
    first_closed: dict[int, int] = {}
    for v, row in enumerate(rows):
        first_open.setdefault(row, v)
        first_closed.setdefault(row | 1 << v, v)
    return [min(first_open[row], first_closed[row | 1 << v])
            for v, row in enumerate(rows)]


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
    best_rows: list[int] | None = None
    best_perm: list[int] | None = None
    # each entry is (cells, target, v): individualize v in cells[target]
    # and refine, except the root entry, whose cells are still unrefined
    stack = [([list(range(n))], 0, -1)]
    while stack:
        cells, target, v = stack.pop()
        if v < 0:
            cells = _refine(rows, cells, deque([(1 << n) - 1]))
        else:
            rest = [u for u in cells[target] if u != v]
            cells = _refine(rows, cells[:target] + [[v], rest]
                            + cells[target + 1:], deque([1 << v, _mask_of(rest)]))
        target = -1
        size = n + 1
        for i, cell in enumerate(cells):
            if 1 < len(cell) < size:
                target = i
                size = len(cell)
        if target >= 0:
            seen_roots: set[int] = set()
            branches = []
            for u in cells[target]:
                if twin[u] not in seen_roots:
                    seen_roots.add(twin[u])
                    branches.append(u)
            # pushed in reverse, so branches are explored in label order
            stack.extend((cells, target, u) for u in reversed(branches))
            continue
        perm = [0] * n
        for pos, cell in enumerate(cells):
            perm[cell[0]] = pos
        new_rows = [0] * n
        for u in range(n):
            acc = 0
            m = rows[u]
            while m:
                lsb = m & -m
                acc |= 1 << perm[lsb.bit_length() - 1]
                m ^= lsb
            new_rows[perm[u]] = acc
        if best_rows is None or new_rows < best_rows:
            best_rows = new_rows
            best_perm = perm

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
