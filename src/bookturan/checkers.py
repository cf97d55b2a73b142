"""Decision procedures for the defining predicates: clique containment,
generalized-book containment, exact colorability, chromatic number,
color-criticality, and the candidacy predicate combining them.

Containment is ordinary subgraph containment (not induced): the pages of an
embedded book may be adjacent to each other in the host.  A book is found by
one clique walk (_book_clique), which also serves the search's incremental
book test; the witness names the first spine in descending label order and
its k lowest common neighbours as pages.  The clique question is the same
walk with no pages: an r-clique is the spine of a book with k = 0, so
contains_clique returns the first such spine.

Both decisions use the graph's twin automorphisms, given as vertex masks by
graphs._twin_classes, which the pentagon blow-ups joined with Turan graphs
have in plenty: the book walk skips the twins of a spine vertex whose walk
failed, and colorability is refuted on one vertex per open-twin class.
Each rule only cuts work that cannot succeed, so every answer and every
witness is that of the plain search; the soundness arguments are in the
docstrings of _book_clique and is_r_colorable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _bits, _twin_classes, remove_edge


@dataclass(frozen=True)
class BookWitness:
    """An embedded book: clique induces K_r, every page sees the whole clique."""

    clique: frozenset[int]
    pages: frozenset[int]


@dataclass(frozen=True)
class ColoringWitness:
    """Proper coloring; classes[v] is the color of vertex v (colors 0..c-1)."""

    classes: tuple[int, ...]


def greedy_clique(g: Graph) -> list[int]:
    """Deterministic greedy clique (max degree first, ties by label)."""
    n = g.order
    if n == 0:
        return []
    rows = g.rows
    order = sorted(range(n), key=lambda v: (-rows[v].bit_count(), v))
    v0 = order[0]
    clique = [v0]
    cand = rows[v0]
    while cand:
        u = min(_bits(cand), key=lambda w: (-(rows[w] & cand).bit_count(), w))
        clique.append(u)
        cand &= rows[u]
    return sorted(clique)


def contains_clique(g: Graph, r: int) -> frozenset[int] | None:
    """Some r-clique's vertex set, or None: the first spine of the book
    walk with k = 0 pages, or for r = 1 the highest vertex."""
    if r < 1:
        raise ValueError(f"clique size must be >= 1, got {r}")
    n = g.order
    if r > n:
        return None
    if r == 1:
        return frozenset({n - 1})
    rows = g.rows
    found = _book_clique(rows, r, 0, (1 << n) - 1, twins=_twin_classes(rows))
    return None if found is None else frozenset(found[0])


def _book_clique(rows: tuple[int, ...], r: int, k: int, within: int,
                 common: int = -1, twins: list[int] | None = None,
                 ) -> tuple[list[int], int] | None:
    """First r-clique (r >= 2) inside the vertex mask within with at least k
    common neighbours, as (clique in ascending label order, common
    neighbourhood), or None.

    Spine vertices are chosen from the highest label down.  Each level of
    the walk takes its highest candidate w; the next level's candidates are
    those below w and adjacent to every vertex chosen so far, and its common
    neighbourhood is the one so far cut by N(w) (common = -1 before the
    first choice).  The levels above the last two live on an explicit
    stack, so a spine longer than the interpreter's recursion limit needs
    no call stack; the last two are one pair of nested loops.

    Twin rule: with twins (twins[v] the mask of v's class, as
    graphs._twin_classes gives it), once the walk under spine vertex w has
    failed, w's twins leave the candidates of w's level, not just w.  Sound
    when the walk starts from common = -1.  Let w' < w be a twin of w among
    those candidates; the transposition s = (w w') is an automorphism.  It
    fixes the vertices chosen above the level, which lie above w, and so
    their common neighbourhood too.  Every candidate above w has already
    left the level, so the failed walk under w covered every clique of the
    level that holds w.  A clique C of the level that holds w' and not w
    then fails too: s(C) holds w, lies in the level's candidates with w
    added, and is a clique of the level whose common neighbourhood is the
    image of C's, hence as large.  So the dropped vertices start or join no
    success, the walk meets the same first success, and the witness is
    unchanged.  The argument never uses k, so it holds for k = 0 too.
    contains_generalized_book and contains_clique (k = 0) pass twins.  The
    search's book tests run on graphs of a dozen vertices, where finding
    the classes costs about what they save, and its spine test in
    _max_free_degree starts from a common neighbourhood that twin swaps
    need not fix.
    """
    stack: list[tuple[int, int, int]] = []  # (w, candidates left, common)
    need = r
    while True:
        if need > 2:
            if within.bit_count() >= need:
                w = within.bit_length() - 1
                within ^= 1 << w
                stack.append((w, within, common))
                row = rows[w]
                within &= row
                common &= row
                need -= 1
                continue
        else:
            while within.bit_count() >= 2:
                w = within.bit_length() - 1
                within ^= 1 << w
                row = rows[w]
                last = within & row
                pair = common & row
                while last:
                    u = last.bit_length() - 1
                    shared = pair & rows[u]
                    if shared.bit_count() >= k:
                        spine = [u, w]
                        for frame in reversed(stack):
                            spine.append(frame[0])
                        return spine, shared
                    last ^= 1 << u
                    if twins:
                        last &= ~twins[u]
                if twins:
                    within &= ~twins[w]
        if not stack:
            return None
        w, within, common = stack.pop()
        need += 1
        if twins:
            within &= ~twins[w]


def contains_generalized_book(g: Graph, r: int, k: int) -> BookWitness | None:
    """Witness of an embedded book with spine size r and k pages, or None.

    Containment is decided by the clique/common-neighbourhood pattern: a book
    embeds iff some r-clique has at least k common outside neighbours.  The
    witness is the first such clique in descending label order (the one
    with the highest top vertex, then the highest next vertex, and so on)
    with its k lowest common neighbours as pages.
    """
    if r < 2:
        raise ValueError(f"book spine needs r >= 2, got {r}")
    if k < 1:
        raise ValueError(f"book needs k >= 1 pages, got {k}")
    rows = g.rows
    found = _book_clique(rows, r, k, (1 << len(rows)) - 1,
                         twins=_twin_classes(rows))
    if found is None:
        return None
    clique, common = found
    return BookWitness(frozenset(clique), frozenset(list(_bits(common))[:k]))


def contains_subgraph(host: Graph, pattern: Graph) -> dict[int, int] | None:
    """Generic backtracking subgraph embedding (pattern edges must map to
    host edges; pattern non-edges are unconstrained).  Cross-validation
    oracle for the specialized book checker; not meant to be fast.
    """
    hn, pn = host.order, pattern.order
    if pn > hn:
        return None
    prows, hrows = pattern.rows, host.rows
    order = sorted(range(pn), key=lambda v: (-prows[v].bit_count(), v))
    assignment: dict[int, int] = {}
    used = 0

    def rec(idx: int) -> bool:
        nonlocal used
        if idx == pn:
            return True
        a = order[idx]
        req = prows[a]
        for h in range(hn):
            if used >> h & 1:
                continue
            if hrows[h].bit_count() < req.bit_count():
                continue
            ok = True
            for b in _bits(req):
                if b in assignment and not hrows[h] >> assignment[b] & 1:
                    ok = False
                    break
            if ok:
                assignment[a] = h
                used |= 1 << h
                if rec(idx + 1):
                    return True
                del assignment[a]
                used &= ~(1 << h)
        return False

    return dict(assignment) if rec(0) else None


def is_r_colorable(g: Graph, r: int) -> ColoringWitness | None:
    """A proper r-coloring, or None.  Exact backtracking, saturation-first
    vertex order (ties by degree then label), one fresh color allowed per
    step, and a greedy clique pre-colored to break color symmetry.

    Open-twin rule: when g has open twins (vertices with equal
    neighbourhoods, which are pairwise non-adjacent), the induced subgraph
    on the first vertex of each open-twin class and every other vertex is
    searched first, and a "no" there is the answer.  Sound: open twins u
    and v have equal neighbourhoods, so a coloring of g - v extends to g by
    giving v the color of u, and g is r-colorable iff that subgraph is.  A
    "yes" there falls through to the search on g itself, so the witness is
    unchanged.  A color count above the order is taken as the order: no
    search uses more colors than vertices.
    """
    if r < 1:
        raise ValueError(f"color count must be >= 1, got {r}")
    rows = g.rows
    # drop each vertex with a non-adjacent twin below it
    reps = [v for v, c in enumerate(_twin_classes(rows))
            if not c & (1 << v) - 1 or rows[v] & c]
    if len(reps) < len(rows):
        index = {v: i for i, v in enumerate(reps)}
        keep = sum(1 << v for v in reps)
        sub = tuple(sum(1 << index[u] for u in _bits(rows[v] & keep))
                    for v in reps)
        if _coloring(Graph(sub), r) is None:
            return None
    classes = _coloring(g, r)
    return None if classes is None else ColoringWitness(classes)


def _coloring(g: Graph, r: int) -> tuple[int, ...] | None:
    """The color classes that is_r_colorable's search finds, or None."""
    n = g.order
    if n == 0:
        return ()
    r = min(r, n)
    rows = g.rows
    clique = greedy_clique(g)
    if len(clique) > r:
        return None

    colors = [-1] * n
    nbr_count = [[0] * r for _ in range(n)]  # per-vertex color multiplicities
    nbr_mask = [0] * n

    def assign(v: int, c: int) -> None:
        colors[v] = c
        for u in _bits(rows[v]):
            nbr_count[u][c] += 1
            if nbr_count[u][c] == 1:
                nbr_mask[u] |= 1 << c

    def unassign(v: int, c: int) -> None:
        colors[v] = -1
        for u in _bits(rows[v]):
            nbr_count[u][c] -= 1
            if nbr_count[u][c] == 0:
                nbr_mask[u] &= ~(1 << c)

    for i, v in enumerate(clique):
        assign(v, i)
    uncolored = [v for v in range(n) if colors[v] == -1]

    def pick(max_used: int) -> list[int] | None:
        """Search frame for the next vertex: [vertex, untried colours, colours
        used before it], or None once every vertex is coloured."""
        best_v = -1
        best_key = None
        for v in uncolored:
            if colors[v] != -1:
                continue
            key = (nbr_mask[v].bit_count(), rows[v].bit_count(), -v)
            if best_key is None or key > best_key:
                best_key = key
                best_v = v
        if best_v == -1:
            return None
        limit = min(r, max_used + 1)
        return [best_v, ~nbr_mask[best_v] & ((1 << limit) - 1), max_used]

    # depth-first over an explicit stack (one frame per coloured vertex, so
    # long paths and cycles cannot exhaust the interpreter's recursion
    # limit), trying each frame's colours in ascending order
    frame = pick(len(clique))
    if frame is None:
        return tuple(colors)
    stack = [frame]
    while stack:
        frame = stack[-1]
        v, avail, max_used = frame
        if colors[v] != -1:
            unassign(v, colors[v])
        if not avail:
            stack.pop()
            continue
        c = (avail & -avail).bit_length() - 1
        frame[1] = avail & avail - 1
        assign(v, c)
        frame = pick(max(max_used, c + 1))
        if frame is None:
            return tuple(colors)
        stack.append(frame)
    return None


def chromatic_number(g: Graph) -> int:
    """Least c such that g is c-colorable; 0 for the empty graph."""
    if g.order == 0:
        return 0
    c = max(1, len(greedy_clique(g)))
    while is_r_colorable(g, c) is None:
        c += 1
    return c


def is_color_critical(g: Graph) -> bool:
    """Whether deleting some single edge lowers the chromatic number."""
    if g.edge_count() == 0:
        raise ValueError("color-criticality is defined on graphs with edges")
    chi = chromatic_number(g)
    for u, v in g.edges():
        if is_r_colorable(remove_edge(g, u, v), chi - 1) is not None:
            return True
    return False


def is_nonpartite_book_free(g: Graph, r: int, k: int) -> bool:
    """The candidacy predicate: not r-colorable and no embedded book."""
    if r < 3:
        raise ValueError(f"need r >= 3, got {r}")
    if contains_generalized_book(g, r, k) is not None:
        return False
    return is_r_colorable(g, r) is None
