"""Decision procedures for the defining predicates: clique containment,
generalized-book containment, exact colorability, chromatic number,
color-criticality, and the candidacy predicate combining them.

Containment is ordinary subgraph containment (not induced): the pages of an
embedded book may be adjacent to each other in the host.  A book is found by
one clique walk (_book_clique), which also serves the search's incremental
book test; the witness names the first spine in descending label order and
its k lowest common neighbours as pages.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _bits, remove_edge


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


def _twin_quotient(rows: tuple[int, ...]):
    """Collapse interchangeable vertices for clique search.

    First merge vertices with equal open neighbourhoods (a clique can use at
    most one of them), then merge the representatives with equal closed
    neighbourhoods (a clique can use all of them).  Returns the quotient
    node member-lists, their weights, and the quotient adjacency masks.
    """
    n = len(rows)
    by_open: dict[int, list[int]] = {}
    for v in range(n):
        by_open.setdefault(rows[v], []).append(v)
    reps = sorted(cls[0] for cls in by_open.values())
    by_closed: dict[int, list[int]] = {}
    for v in reps:
        by_closed.setdefault(rows[v] | 1 << v, []).append(v)
    nodes = sorted(by_closed.values())
    t = len(nodes)
    adj = [0] * t
    for i in range(t):
        for j in range(i + 1, t):
            if rows[nodes[i][0]] >> nodes[j][0] & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    weights = [len(members) for members in nodes]
    return nodes, weights, adj


def contains_clique(g: Graph, r: int) -> frozenset[int] | None:
    """Some r-clique's vertex set, or None; deterministic branch order."""
    if r < 1:
        raise ValueError(f"clique size must be >= 1, got {r}")
    n = g.order
    if r > n:
        return None
    nodes, weights, adj = _twin_quotient(g.rows)
    t = len(nodes)
    suffix = [0] * (t + 1)
    for i in range(t - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[i]

    def dfs(start: int, chosen: list[int], weight: int, cand: int) -> list[int] | None:
        if weight >= r:
            return chosen
        for i in range(start, t):
            if not cand >> i & 1:
                continue
            if weight + suffix[i] < r:
                return None
            res = dfs(i + 1, chosen + [i], weight + weights[i], cand & adj[i])
            if res is not None:
                return res
        return None

    found = dfs(0, [], 0, (1 << t) - 1)
    if found is None:
        return None
    out: list[int] = []
    need = r
    for i in found:
        take = min(weights[i], need)
        out.extend(nodes[i][:take])
        need -= take
    return frozenset(out)


def _book_clique(rows: tuple[int, ...], r: int, k: int, within: int,
                 common: int = -1) -> tuple[list[int], int] | None:
    """First r-clique inside the vertex mask within with at least k common
    neighbours, as (clique, common neighbourhood), or None.

    Vertices are taken from the highest label down; a recursive call gets
    the candidates below and adjacent to every vertex chosen so far, and
    their common neighbourhood so far (-1 before the first choice).
    """
    if r == 1:
        while within:
            w = within.bit_length() - 1
            within ^= 1 << w
            shared = common & rows[w]
            if shared.bit_count() >= k:
                return [w], shared
        return None
    while within.bit_count() >= r:
        w = within.bit_length() - 1
        within ^= 1 << w
        row = rows[w]
        found = _book_clique(rows, r - 1, k, within & row, common & row)
        if found is not None:
            found[0].append(w)
            return found
    return None


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
    found = _book_clique(g.rows, r, k, (1 << g.order) - 1)
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
    """
    if r < 1:
        raise ValueError(f"color count must be >= 1, got {r}")
    n = g.order
    if n == 0:
        return ColoringWitness(())
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
        return ColoringWitness(tuple(colors))
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
            return ColoringWitness(tuple(colors))
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
