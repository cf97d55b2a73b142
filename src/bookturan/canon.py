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

Automorphisms found at the leaves prune as well (McKay, Congr. Numer. 30,
1981).  A later leaf whose relabelled rows equal the first leaf's exhibits
an automorphism that maps the first leaf's path onto its own, node by
node; so the rest of the subtree it lies in, below the deepest node it
shares with the first path, only repeats leaves already seen, and the
search jumps back to that node.  No leaf it skips is the first to reach
the smallest rows, so the canonical labelling does not change (see
_label).

The search starts from the refined root partition.  canon computes it
once per graph, so canonical augmentation can reject an extension on that
partition alone and hand the others to canon_rows without refining them
twice.  It walks an explicit stack rather than recursing, so a deep search
needs no call stack.

Twin pruning is what keeps large blow-up joins tractable: their refinement
stabilizes with one cell per interchangeable vertex class.  A cell whose
vertices are all twins of each other is split into label-ordered singletons
at once, with no branching and no refinement (see _label), so an empty or
complete graph on n vertices costs one refinement, not n.  A leaf relabels
each distinct adjacency row once and reuses the result for every vertex with
that row, so a blow-up with a handful of twin classes pays a handful of
relabellings per leaf, not one per vertex.

A graph with few twin classes is compared more cheaply through its twin
quotient (_twin_form): one vertex per class, coloured by the class's size
and by whether it is a clique, and labelled from the partition into colour
cells.  Vertex-coloured canonical labelling of this kind is standard
(McKay & Piperno, J. Symb. Comput. 60, 2014).  verify compares extremal
classes this way, so a blow-up join of any order costs a labelling of at
most a handful of vertices.
"""

from __future__ import annotations

from collections import deque

from .graphs import Graph, _twin_classes

CanonicalForm = bytes
Cells = list[list[int]]


def _mask_of(vertices: list[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _refine(rows: tuple[int, ...], cells: Cells, queue: deque[int],
            watch: int = -1) -> Cells | None:
    """Refine cells to equitability; queue holds splitter masks to process.

    A split cell is replaced in place by its fragments, in ascending order
    of their neighbour counts, and every cell keeps its vertices in label
    order.  With a watch vertex, return None as soon as it is not in the
    first cell: cells only split in place, so a vertex that has left the
    first cell never returns to it.  Checking before each splitter is
    enough, because every split queues its fragments as splitters.
    """
    while queue:
        if watch >= 0 and watch not in cells[0]:
            return None
        smask = queue.popleft()
        out: Cells = []
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


def canon(rows: tuple[int, ...], first: int) -> Cells | None:
    """Refined root partition of rows for canon_rows, or None when vertex
    first cannot take canonical position 0 (first = -1 watches no vertex).

    The root partition is the equitable refinement of the unit partition.
    Individualization and twin splits replace a cell by pieces in place, so
    the vertex at canonical position 0 always lies in the root's first
    cell; a vertex outside it is rejected as soon as refinement moves it
    out.  The first split is by degree, in ascending order, so that vertex
    has minimum degree.
    """
    return _refine(rows, [list(range(len(rows)))],
                   deque([(1 << len(rows)) - 1]), first)


def _label(rows: tuple[int, ...],
           cells: Cells) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Best leaf of the search below the refined partition cells.

    A target cell C whose vertices all lie in one twin class is split into
    label-ordered singletons at once, which is exactly the chain the
    branching search would walk.  C lies in one open-twin or one
    closed-twin class, so a vertex outside C is adjacent to all of C or to
    none, and the vertices of C are pairwise all adjacent or all not.
    Individualizing the first vertex u of C therefore changes no count seen
    by any cell: refinement splits nothing, and C - u is then the unique
    smallest non-singleton cell, again inside one twin class.

    A leaf costs one relabelling per distinct row, not one per vertex.  The
    relabelled row of u depends only on rows[u] and the leaf's permutation,
    so vertices with equal rows (open twins) get equal relabelled rows, and
    reusing the first one computed changes no leaf's rows: the leaves
    visited, their order and the comparison between them are those of a
    per-vertex relabelling.  Twin classes are computed at the first branch,
    so a graph whose root partition is discrete never needs them.

    A later leaf whose rows equal the first leaf's ends the subtree it lies
    in (McKay's first-path jump-back).  Refinement, the choice of target
    cell and individualization are equivariant under automorphisms acting
    on ordered partitions, and the vertex individualized at a node takes the
    leaf position where its target cell starts.  So gamma, which maps the
    vertex at position p of the first leaf to the vertex at position p of
    this leaf, is an automorphism (the rows are equal) that maps the first
    path onto this leaf's path node by node.  Let nu be the deepest node on
    both paths: gamma fixes nu and maps nu's child on the first path onto
    nu's child c on this path, so the leaves below c are the images of
    those below the first path's child and have their rows.  The twin
    shortcut and the one branch per twin class keep each subtree's set of
    leaf rows, since the branches they leave out differ from kept ones by
    twin swaps, which are automorphisms fixing the node.  Hence every leaf
    left below c repeats rows already seen.  A dropped leaf is never the
    first to reach the smallest rows, so best_perm, the first such leaf's
    permutation, does not change.  Below mark the stack holds the pending
    siblings on the first path; mark falls to the stack height after every
    pop that goes below it, so stack[mark:] is the rest of c's subtree.
    """
    n = len(rows)
    twin: list[int] | None = None
    best_rows: list[int] | None = None
    best_perm: list[int] | None = None
    # each entry is (cells, target, v): individualize v in cells[target]
    # and refine
    stack: list[tuple[Cells, int, int]] = []
    first_rows: list[int] | None = None
    mark = 0
    while True:
        target = -1
        size = n + 1
        for i, cell in enumerate(cells):
            if 1 < len(cell) < size:
                target = i
                size = len(cell)
        if target >= 0:
            if twin is None:
                twin = _twin_classes(rows)
            seen = 0
            branches = []
            for u in cells[target]:
                if not seen >> u & 1:
                    seen |= twin[u]
                    branches.append(u)
            if len(branches) == 1:
                cells = (cells[:target] + [[u] for u in cells[target]]
                         + cells[target + 1:])
                continue
            # pushed in reverse, so branches are explored in label order
            stack.extend((cells, target, u) for u in reversed(branches))
        else:
            perm = [0] * n
            for pos, cell in enumerate(cells):
                perm[cell[0]] = pos
            new_rows = [0] * n
            relabelled: dict[int, int] = {}
            for u, row in enumerate(rows):
                acc = relabelled.get(row)
                if acc is None:
                    acc = 0
                    m = row
                    while m:
                        lsb = m & -m
                        acc |= 1 << perm[lsb.bit_length() - 1]
                        m ^= lsb
                    relabelled[row] = acc
                new_rows[perm[u]] = acc
            if first_rows is None:
                first_rows = best_rows = new_rows
                best_perm = perm
                mark = len(stack)
            elif new_rows == first_rows:
                del stack[mark:]
            elif new_rows < best_rows:
                best_rows = new_rows
                best_perm = perm
        if not stack:
            break
        cells, target, v = stack.pop()
        if len(stack) < mark:
            mark = len(stack)
        rest = [u for u in cells[target] if u != v]
        cells = _refine(rows, cells[:target] + [[v], rest] + cells[target + 1:],
                        deque([1 << v, _mask_of(rest)]))

    assert best_rows is not None and best_perm is not None
    return tuple(best_rows), tuple(best_perm)


def canon_rows(rows: tuple[int, ...], root: Cells | None = None
               ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Return (canonical adjacency rows, permutation old-label -> new-label).

    root, when given, is canon's refined root partition of these rows; it
    saves refining them again and changes nothing in the result.  It may
    also be the equitable refinement of an ordered partition of the
    vertices into colour cells, sorted by colour: the result is then a
    canonical form of the vertex-coloured graph, because refinement is
    equivariant and cells only split in place, so every leaf gives each
    colour the same positions.  The twin shortcut and the first-path jump-back of _label
    stay sound under such a root, because both only use automorphisms that
    preserve the ordered root partition, hence the colours: the twin swaps
    stay inside one cell, and a jump-back's automorphism maps the vertex at
    each position of one leaf to the vertex at that position of another,
    which lies in the same root cell.
    """
    return _label(rows, canon(rows, -1) if root is None else root)


def _twin_form(rows: tuple[int, ...], labelled: dict | None = None
               ) -> tuple[tuple[tuple[int, bool], ...], tuple[int, ...]]:
    """Isomorphism key of rows built from its coloured twin quotient:
    (sorted class colours, canonical quotient rows).

    The quotient has one vertex per twin class (graphs._twin_classes), in
    order of the classes' lowest vertices, coloured by (class size, whether
    the class is a clique).  It is labelled by canon_rows from the equitable
    refinement of its colour cells, sorted by colour, so the colour at each
    canonical position is read off the sorted colours.

    Sound: two graphs get equal keys iff they are isomorphic.
    - Twin classes are isomorphism-invariant: the relation is defined by
      neighbourhoods alone, so an isomorphism maps classes onto classes,
      keeping their sizes, and the quotients are isomorphic as coloured
      graphs.
    - Each class is independent or a clique (see _twin_classes), which the
      colour records.
    - Between two classes every edge is present or none is: a twin a' of a
      has a's neighbours outside {a, a'}, so a vertex b of another class
      sees a iff it sees a', and chains of twins reach the whole class.
    - So G is rebuilt, up to isomorphism, from its coloured quotient: blow
      each quotient vertex up into an independent set or a clique of its
      size, and join two blown-up classes completely iff their quotient
      vertices are adjacent.  Isomorphic coloured quotients therefore give
      isomorphic graphs, and G and G' are isomorphic iff their coloured
      quotients are.
    - canon_rows from colour cells is a canonical form of the coloured
      quotient (see its root argument), so equal keys certify isomorphism
      and distinct keys refute it.

    labelled, when given, maps (quotient rows, ordered colour cells) to the
    labelled quotient rows, and is filled as quotients are labelled, so a
    caller that keeps one dict labels each distinct coloured quotient once.
    Reuse changes no key: the labelling is a function of the quotient rows
    and the root partition, and the root is refined from those cells alone.
    """
    classes = list(dict.fromkeys(_twin_classes(rows)))
    # one member's row per class: it sees all of another class or none
    member_rows = [rows[(c & -c).bit_length() - 1] for c in classes]
    colours = [(c.bit_count(), bool(row & c))
               for c, row in zip(classes, member_rows)]
    qrows = tuple(_mask_of([j for j, d in enumerate(classes)
                            if d != c and row & d])
                  for c, row in zip(classes, member_rows))
    cells = [[i for i, col in enumerate(colours) if col == want]
             for want in sorted(set(colours))]
    key = qrows, tuple(map(tuple, cells))
    labelled = {} if labelled is None else labelled
    if key not in labelled:
        root = _refine(qrows, cells, deque(_mask_of(cell) for cell in cells))
        labelled[key] = canon_rows(qrows, root)[0]
    return tuple(sorted(colours)), labelled[key]


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
