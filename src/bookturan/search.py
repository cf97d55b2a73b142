"""Independent verification engines.

Three routes to the same quantity, kept deliberately separate so they can
cross-check each other:

* exhaustive isomorphism-free enumeration (canonical augmentation) for small
  orders;
* branch-and-bound edge maximization over book-free classes, seeded with the
  constructed families as certified incumbents, for moderate orders;
* an optimizer over blow-up/join family shapes for any order: it sweeps
  the split and the pentagon blow-up profile exhaustively, skipping only
  splits and profiles whose edge bound (Mantel's, for the blow-up) is
  strictly below an attained count, and takes the join part as the
  balanced Turan graph T_{r-2}, the only edge maximizer among complete
  (r-2)-partite graphs by Turan's theorem.

Generation uses canonical augmentation (McKay, J. Algorithms 26, 1998)
along the min-degree deletion chain: a child produced by adding one vertex
at label 0 is kept iff deleting the vertex at *canonical position 0*
yields the generating parent class.  Parents are pairwise non-isomorphic,
so each class is produced exactly once globally (children of one parent
are deduplicated by canonical form).  The canonical labelling orders
vertices by ascending degree, so canonical position 0 has minimum degree;
only extensions whose new vertex has minimum degree in the child are ever
built, a child whose new vertex is not in the first cell of its equitable
refinement is rejected before it is labelled, and a child whose new vertex
already lands at position 0 is accepted without canonically labelling its
parent again (see _extensions and _children).  Permuting the twins of the
parent is an automorphism, so two neighbourhoods that differ only by such
a swap give isomorphic children, and only the one that takes a label-order
prefix of each twin class, the lexicographically first of its orbit, is
built.  Each class still enters at its first passing extension, so this
changes the node count only.  Book-freeness is kept one vertex at a time:
a book-free parent gains a book only through the new vertex, so only
r-cliques inside its closed neighbourhood are tested, with the same clique
walk that decides book containment in checkers.  The acceptance test only
serves children that are expanded further, so the last order is not
generated as a level: both engines walk the tree depth first in work units
(_unit), whose last order streams the neighbourhoods of each parent,
builds only the children that reach the running incumbent, canonically
labels the non-r-colorable ones and deduplicates them.  Enumeration is one
unpruned unit grown from K1.  Branch-and-bound splits the tree into units
and bounds what a prefix P can still gain: every later vertex v keeps
G[P + v] book-free, so it has at most M(P) neighbours in P, where M(P) is
the largest degree of a book-free one-vertex extension of P.  M(P) is
bounded from above by packing vertex-disjoint books of P + v, v joined to
all of P: each one costs v at least one neighbour (see _max_free_degree
and _unit).

Determinism: traversal order is fixed, every work unit starts from the same
constructed incumbent and never shares state, and results merge by canonical
order, so reports are identical across runs and across worker counts.  The
only early stop is a node limit per work unit (for branch-and-bound, every
class it expands), so a report, truncated or not, is a function of the
parameters and the node limit alone.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache
from multiprocessing import get_context

from .canon import (_quotient_form, _twin_form, canon, canon_rows,
                    dedup_by_isomorphism, pack_rows)
from .checkers import _book_clique, is_nonpartite_book_free, is_r_colorable
from .constructions import (_c5_join, _family_specs, _Spec,
                            dihedral_profile, extremal_family_graphs,
                            turan_part_sizes)
from .formulas import CaseParams, ex_nonpartite_value, turan_edge_count
from .graphs import Graph, _twin_classes


@dataclass(frozen=True)
class SearchBudget:
    """Limits for a search run.  node_limit caps the nodes of each work unit
    (every class branch-and-bound expands is one); exceeding it flags the
    report as non-exhaustive and never produces a wrong optimum claim.  The
    cut is a node count, never the clock, so truncated reports are
    deterministic.  Every neighbourhood the walk generates is one node,
    whether or not its child is built, so the limit bounds the walk."""

    node_limit: int | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if self.node_limit is not None and self.node_limit <= 0:
            raise ValueError("node_limit must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


class BudgetExceeded(Exception):
    pass


class _State:
    __slots__ = ("nodes", "node_limit")

    def __init__(self, node_limit: int | None):
        self.nodes = 0
        self.node_limit = node_limit

    def tick(self) -> None:
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise BudgetExceeded


@dataclass(frozen=True)
class ExtremalReport:
    """Outcome of a search or optimization run.

    extremal holds one canonical representative per extremal isomorphism
    class, sorted by canonical form.  exhaustive is True only when the
    optimum is certified globally optimal over all candidate graphs, which
    only enumeration and completed branch-and-bound runs can claim.
    """

    params: CaseParams
    method: str
    optimum: int | None
    extremal: tuple[Graph, ...]
    exhaustive: bool
    nodes: int

    @property
    def extremal_canon(self) -> frozenset[bytes]:
        return frozenset(pack_rows(g.rows) for g in self.extremal)

    def format_line(self) -> str:
        """Deterministic report record: equal reports give equal lines."""
        opt = str(self.optimum) if self.optimum is not None else "none"
        return (f"{self.params} method={self.method} optimum={opt}"
                f" classes={len(self.extremal)} nodes={self.nodes}"
                f" exhaustive={str(self.exhaustive).lower()}")


def _child_rows(rows: tuple[int, ...], comb: tuple[int, ...]) -> tuple[int, ...]:
    """rows with one vertex added at label 0, joined to the vertices comb of
    rows; vertex u of rows becomes vertex u + 1."""
    new = [row << 1 for row in rows]
    mask = 0
    for i in comb:
        new[i] |= 1
        mask |= 2 << i
    return (mask, *new)


def _extensions(prows: tuple[int, ...], minpop: int,
                state: _State) -> Iterator[tuple[tuple[int, ...], int]]:
    """One-vertex extensions of prows, as (neighbourhood comb, degree t of
    the new vertex), by descending t >= minpop and then lexicographic
    neighbourhood.  Every neighbourhood generated costs one state tick;
    _free_child builds its child, if the caller needs it.

    Degree rule: only neighbourhoods that leave the new vertex at minimum
    degree in the child are tried, i.e. t <= min degree of prows + 1, every
    vertex of degree t - 1 in prows is a neighbour, and the other neighbours
    have degree at least t.  Sound, because canon_rows orders vertices by
    ascending degree (_refine splits degree groups in ascending order), so
    the vertex w at canonical position 0 of any class G has minimum degree
    t.  G is accepted from its canonical parent P = [G - w] only, and the
    neighbourhood that rebuilds G from P passes the rule: a neighbour of w
    has degree at least t - 1 in P, a non-neighbour at least t.  Children
    of one parent are deduplicated and accepted on their class alone, so
    skipping the other neighbourhoods of the same class loses nothing.  The
    leaf step and the minpop edge bound of _unit follow the same
    canonical-deletion chain, so they keep every class they kept.

    Twin rule: only neighbourhoods S that take a label-order prefix of each
    twin class of prows (graphs._twin_classes) are tried, that is, S holds
    all the twins below each of its vertices.  Sound: permuting the vertices
    inside a twin class is an automorphism sigma of the parent; extended to
    fix the new vertex, it maps P + S onto P + sigma(S).  So S and sigma(S)
    fare alike under the degree rule (twins have equal degree), the book
    rule, the partition precheck of _children (refinement is
    isomorphism-invariant) and, at the leaf step of _unit, the edge bound
    and colorability, and give one canonical form.  The prefix form comes
    first among the sets of its orbit in the order tried: all have the same
    t, and its i-th smallest vertex is at most that of any other.  So the
    first passing extension of each class is a prefix form, _children
    returns the same list in the same order, and the leaf step keeps the
    same classes in the same order (its incumbent only rises, so where S
    passes, its prefix form passed earlier).  Only the node count changes.
    Twins have equal degree, so the forced neighbours and the candidates
    each hold whole twin classes; _prefix_combinations builds the prefix
    forms among the candidates, in combinations order.  The classes are
    found at the first t where the candidates outnumber the neighbours
    still to choose; before it, the one choice takes every class whole.
    """
    n = len(prows)
    degs = [row.bit_count() for row in prows]
    below: list[int] | None = None  # the mask of u's twins below u
    for t in range(min(degs) + 1, max(minpop, 0) - 1, -1):
        forced = tuple(u for u in range(n) if degs[u] == t - 1)
        pick = t - len(forced)
        if pick < 0:
            continue
        free = [u for u in range(n) if degs[u] >= t]
        if below is None and len(free) > pick:
            below = [c & (1 << u) - 1 for u, c in enumerate(_twin_classes(prows))]
        for comb in _prefix_combinations(free, pick, below or [0] * n, forced):
            state.tick()
            yield comb, t


def _prefix_combinations(free: list[int], pick: int, below: list[int],
                         chosen: tuple[int, ...] = (), taken: int = 0
                         ) -> Iterator[tuple[int, ...]]:
    """chosen followed by each pick-subset of the ascending list free that
    holds below[u] with each of its vertices u (a vertex below free counts
    iff it is in the mask taken), in combinations(free, pick) order.  u is
    taken only once below[u] is, so no other subset is built."""
    if pick == 0:
        yield chosen
        return
    for i, u in enumerate(free[:len(free) - pick + 1]):
        if below[u] & ~taken:  # a twin below u is left out
            continue
        if pick == 1:
            yield chosen + (u,)
        else:
            yield from _prefix_combinations(free[i + 1:], pick - 1, below,
                                            chosen + (u,), taken | 1 << u)


def _free_child(prows: tuple[int, ...], comb: tuple[int, ...],
                book: tuple[int, int] | None) -> tuple[int, ...] | None:
    """The child _child_rows(prows, comb) of the book-free prows, or None if
    it contains the book (r, k); every child is kept when book is None.

    Book rule: a child is kept iff no r-clique inside the closed
    neighbourhood N[0] of the new vertex 0 has k common neighbours.  The
    parent is book-free, so every book of the child uses vertex 0: as a
    spine vertex, and then the spine lies in N[0], or as a page, and then
    the spine lies in N(0).  Conversely an r-clique with k common
    neighbours is the spine of a book wherever it lies.
    """
    crows = _child_rows(prows, comb)
    if book is None or _book_clique(crows, *book, crows[0] | 1) is None:
        return crows
    return None


def _children(prows: tuple[int, ...], minpop: int, book: tuple[int, int] | None,
              state: _State) -> list[tuple[tuple[int, ...], int]]:
    """Accepted canonical-augmentation children of one parent class.

    prows must be canonically labelled.  Returns (canonical child rows,
    degree of the new vertex); only children whose new vertex carries at
    least minpop edges are generated.

    Partition precheck: an extension whose new vertex 0 leaves the first
    cell of its equitable refinement is rejected before labelling (canon),
    since the vertex at canonical position 0 always lies in that cell.
    Sound: if G is accepted from P, then G - w is isomorphic to P for the
    vertex w at canonical position 0 of G, so P has an extension X that
    rebuilds G with its new vertex at w.  The ordered refinement is
    isomorphism-invariant and w lies in G's first cell, so X's new vertex
    lies in X's first cell; X also passes the degree rule (see
    _extensions).  Children are deduplicated and accepted on their class
    alone, so skipping other extensions of G loses nothing.  Only the order
    of the accepted children can differ from a search without the
    precheck: each class enters at its first extension that passes.
    """
    out: list[tuple[tuple[int, ...], int]] = []
    seen: set[tuple[int, ...]] = set()
    for comb, t in _extensions(prows, minpop, state):
        crows = _free_child(prows, comb, book)
        root = None if crows is None else canon(crows, 0)
        if root is None:
            continue
        ckey, perm = canon_rows(crows, root)
        if ckey in seen:
            continue
        seen.add(ckey)
        # delete the vertex at canonical position 0; accept the child iff
        # that recovers the generating parent class.  If that vertex is the
        # new one (perm[0] == 0), the deletion is prows relabelled by perm,
        # whose canonical form is prows: no canon call.
        if perm[0] == 0 or canon_rows(
                tuple(row >> 1 for row in ckey[1:]))[0] == prows:
            out.append((ckey, t))
    return out


def _levels(order: int, book: tuple[int, int] | None,
            state: _State) -> list[tuple[tuple[int, ...], int]]:
    """(canonical rows, edge count) of every book-free class of the given
    order (at least 1), generated level by level with no pruning."""
    level: list[tuple[tuple[int, ...], int]] = [((0,), 0)]
    for _ in range(2, order + 1):
        level = [(crows, e + t) for prows, e in level
                 for crows, t in _children(prows, 0, book, state)]
    return level


def generate_graphs(n: int, book: tuple[int, int] | None = None) -> list[Graph]:
    """All isomorphism classes of order n (book-free classes if book given),
    one canonical representative each."""
    if n < 0:
        raise ValueError("order must be non-negative")
    if n == 0:
        return [Graph(())]
    return [Graph(rows) for rows, _ in _levels(n, book, _State(None))]


def _report(params: CaseParams, method: str,
            candidates: dict[tuple[int, ...], int], exhaustive: bool,
            nodes: int) -> ExtremalReport:
    """The report of an exhaustive engine: the largest edge count among the
    candidates (canonical rows with their edge counts) and its classes,
    sorted by canonical form."""
    best = max(candidates.values(), default=None)
    extremal = tuple(Graph(rows) for rows in sorted(
        (rows for rows, e in candidates.items() if e == best), key=pack_rows))
    return ExtremalReport(params=params, method=method, optimum=best,
                          extremal=extremal, exhaustive=exhaustive, nodes=nodes)


def enumerate_extremal(params: CaseParams,
                       budget: SearchBudget | None = None) -> ExtremalReport:
    """Ground-truth oracle: enumerate every book-free class of order n and
    keep the non-r-colorable ones of maximum size.  No edge pruning at all,
    so the optimum needs no admissibility argument.  Runs single-threaded;
    budget.workers is ignored.  A truncated run reports no optimum.

    The whole search is one work unit: _unit grown from K1 to order n with
    prune=False, so minpop = 0 at every order.  Sound: let G be any
    book-free class of order n and w its vertex at canonical position 0.
    G - w is isomorphic to a class P of order n - 1, which the walk reaches,
    since below order n it accepts what _levels does.  Among P's
    extensions, the one that rebuilds G passes the degree rule, and the
    twin rule tries a prefix form in its orbit, which gives an isomorphic
    child (see _extensions).  So every class reaches the leaf step at least
    once; duplicates cannot change the optimum, and the extremal set is
    kept by canonical form.  The depth-first preorder meets the classes of
    order n - 1 in _levels(n - 1) order, each level being its parents'
    children in parent order, so the leaf step sees the parents in the
    order, and with the running incumbent, of a generated level.
    Every generated neighbourhood is ticked, whether or not its child is
    built, so nodes= counts what a generated level of order n would, and a
    truncated run stops at tick node_limit + 1.  The acceptance rule at
    order n is still checked, by the generate_graphs class counts."""
    budget = budget or SearchBudget()
    n = params.n
    if n == 1:
        return _report(params, "enumeration", {}, True, 0)
    found, nodes, exhaustive = _unit(((0,), 0, n, n, params.r, params.k,
                                      None, budget.node_limit, False))
    return _report(params, "enumeration", found if exhaustive else {},
                   exhaustive, nodes)


def _max_free_degree(prows: tuple[int, ...], r: int, k: int) -> int:
    """An upper bound on M(P): the largest degree of a new vertex v that
    leaves P + v free of B_{r,k}, with no degree rule.  No test ticks a node
    counter.

    Start with v joined to all of P.  P is book-free, so every book of
    P + v uses v: as a page of an r-clique inside N(v) with k - 1 common
    neighbours in P, or on the spine beside an (r - 1)-clique inside N(v)
    with k common neighbours in N(v).  Its edges at v end in its spine, or
    in its other spine vertices and k pages.  Find one such book, drop
    those vertices from N(v), count it and repeat until P + v is
    book-free.  Sound: each dropped set lies inside the N(v) it was found
    in, so the dropped sets are disjoint, and each book survives in any
    extension whose neighbourhood keeps all of its dropped set.  So every
    book-free extension leaves out at least count vertices of P, and
    M(P) <= j - count.  The cut in _unit needs only an upper bound, so
    ties still survive.
    """
    j = len(prows)
    nbhd = (1 << j) - 1
    count = 0
    while True:
        found = _book_clique(prows, r, k - 1, nbhd)
        pages = 0
        if found is None:
            found = _book_clique(prows, r - 1, k, nbhd, nbhd)
            if found is None:
                return j - count
            rest = found[1]
            for _ in range(k):
                rest &= rest - 1
            pages = found[1] ^ rest
        nbhd &= ~(pages | sum(1 << u for u in found[0]))
        count += 1


def _unit(args) -> tuple[dict[tuple[int, ...], int], int, bool]:
    """Expand one class (a work unit) depth first down to the stop order.

    args is (rows, e0, stop, n, r, k, inc0, node_limit, prune).  Returns
    what the unit reaches at the stop order, in generation order, as
    canonical rows with edge counts: below order n, the class's accepted
    children; at order n, the leaves that reach the running incumbent,
    which starts at inc0.  Also returns the node count and whether the unit
    finished within the node limit.  Units share nothing, so a result does
    not depend on how units are assigned to workers.  prune is False only
    for enumerate_extremal's single unit from K1: minpop is then 0 at every
    order.

    Leaf step, from each parent of order n - 1: stream its neighbourhoods
    and keep each child that reaches the running incumbent, is book-free
    and is not r-colorable; the incumbent rises to it.  The edge count is
    tested before _free_child builds the child and walks it for a book.
    Sound: the incumbent only rises, so a child below it is dropped either
    way, and the ticks, in _extensions, do not move.  Only the winners are
    canonically labelled; with no acceptance test a class may come more
    than once, and is kept once under its canonical form.  A truncated unit
    keeps the leaves it found.

    Neighbourhood bound.  A class G of order n is reached through its
    canonical-deletion chain, whose prefix P of order j is an induced
    subgraph of G.  Every later vertex v of G keeps G[P + v] book-free, as
    an induced subgraph of a book-free graph, so v has at most M(P)
    neighbours in P, and M(P) <= m = _max_free_degree(P).  A child of P
    adds a vertex of degree t; each of the n - j - 1 vertices after it then
    has at most m + 1 neighbours in the child, the +1 being the child's own
    new vertex, and they span at most turan_edge_count(n - j - 1, r + k - 1)
    edges among themselves, since a book-free graph has no K_{r+k}.  So a
    child with t < local_inc - e - (that capacity) cannot reach the
    incumbent and is not built.  The cut is strict: a graph with exactly
    local_inc edges meets the bound at every prefix of its chain, so ties
    survive and the extremal set is complete.  At the leaf level no vertex
    follows, and the bound is t >= local_inc - e.

    m is computed once per expanded node, and only once an incumbent
    exists.  m <= j, so the bound is never weaker than letting every future
    vertex join all of P.
    """
    (rows, e0, stop, n, r, k, inc0, node_limit, prune) = args
    state = _State(node_limit)
    local_inc: int | None = inc0
    found: dict[tuple[int, ...], int] = {}
    completed = True

    def dfs(prows: tuple[int, ...], e: int) -> None:
        nonlocal local_inc
        j = len(prows)
        bound = prune and local_inc is not None
        if j < n - 1:
            minpop = 0
            if bound:
                rest = n - j - 1
                minpop = (local_inc - e
                          - rest * (_max_free_degree(prows, r, k) + 1)
                          - turan_edge_count(rest, min(r + k - 1, rest)))
            for crows, t in _children(prows, minpop, (r, k), state):
                if j + 1 < stop:
                    dfs(crows, e + t)
                else:
                    found[crows] = e + t
            return
        for comb, t in _extensions(prows, local_inc - e if bound else 0, state):
            ce = e + t
            if local_inc is not None and ce < local_inc:
                continue
            crows = _free_child(prows, comb, (r, k))
            if crows is None or is_r_colorable(Graph(crows), r) is not None:
                continue
            local_inc = ce
            found[canon_rows(crows)[0]] = ce

    assert len(rows) < stop <= n, "a work unit grows its class"
    try:
        dfs(rows, e0)
    except BudgetExceeded:
        completed = False
    return found, state.nodes, completed


def branch_bound_extremal(params: CaseParams,
                          budget: SearchBudget | None = None) -> ExtremalReport:
    """Maximize edges over non-r-colorable book-free graphs of order n by
    isomorphism-free vertex-incremental search along the min-degree
    deletion chain, the generator of enumerate_extremal.

    Pruning: (i) a child is not built once its edges plus the neighbourhood
    bound of _unit cannot tie the incumbent; (ii) book containment is
    checked incrementally on each added vertex; (iii) the incumbent starts
    from the constructed families, giving a certified lower bound.  Ties
    with the incumbent are never pruned, so the full extremal set survives.
    enumerate_extremal runs the same walk, _unit, as one unit without the
    bound, and is the reference these rules are tested against.

    Every class is a work unit, run by _unit with prune=True: each class of
    order below the split depth is expanded by one order, and each class at
    the split depth is searched to order n.  Units run in a pool of
    budget.workers processes, capped at the CPUs this process may use, when
    that leaves more than one; each order's results are concatenated in
    parent order.
    """
    budget = budget or SearchBudget()
    n, r, k = params.n, params.r, params.k

    seeds: list[Graph] = []
    if params.in_closed_form_range:
        seeds = [g for g in extremal_family_graphs(params, mode="theorem14")
                 if is_nonpartite_book_free(g, r, k)]
    inc0 = max((g.edge_count() for g in seeds), default=None)

    if n <= r:  # every graph this small is r-colorable: nothing is feasible
        return _report(params, "branch_bound", {}, True, 0)

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(budget.workers, cpus)
    depth = max(2, n - 3)
    level: list[tuple[tuple[int, ...], int]] = [((0,), 0)]
    nodes, exhaustive = 0, True
    with (get_context("fork").Pool(processes=workers)
          if workers > 1 else nullcontext()) as pool:
        for stop in [*range(2, depth + 1), n]:
            unit_args = [(rows, e, stop, n, r, k, inc0, budget.node_limit,
                          True) for rows, e in level]
            if pool is not None and len(unit_args) > 1:
                results = pool.map(_unit, unit_args)
            else:
                results = [_unit(a) for a in unit_args]
            nodes += sum(res[1] for res in results)
            exhaustive = exhaustive and all(res[2] for res in results)
            level = [item for res in results for item in res[0].items()]

    candidates = {g.rows: g.edge_count() for g in seeds}
    candidates.update(level)
    return _report(params, "branch_bound", candidates, exhaustive, nodes)


@cache
def _blowup_optimum(m: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Maximum edge count over pentagon blow-ups with positive parts summing
    to m, together with every maximizing profile up to dihedral symmetry.

    Exhaustive up to rotation.  Rotating a profile keeps its edge count
    and its dihedral class, and every profile has a rotation whose first
    part a is a largest part, so only profiles with every part at most a
    are swept.  With (n1, n2, n3) = (a, b, c) fixed, b, c <= a, and
    w = n4 + n5, the edge count is the concave integer parabola
    const + lin * t - t * t in t = n4, and n4, n5 <= a confine t to
    [lo, hi] = [max(1, w - a), min(w - 1, a)], skipped when empty.  On an
    interval, a concave parabola's integer maximizers are the clipped vertex
    clip(lin // 2, lo, hi) and, if it is at most hi, the next integer.  So
    the sweep meets a largest-part-first rotation of every maximizer, and
    since those rotations include a global maximizer, only maximizers reach
    the best value.

    Branch and bound, with every maximizer kept.  Here lin = m - 2a - b
    does not depend on c, and the edge count is
    a(m - a) + c(b - a) + lin * t - t * t, where c(b - a) <= 0 and the
    integer parabola lin * t - t * t is at most lin * lin // 4.  So no
    profile under (a, b, c) beats a(m - a) + lin * lin // 4 + c(b - a),
    which does not increase with c: the c loop stops once it is below
    best.  The b loop stays in [1, a], where (m - 2a - b)^2, convex in b,
    peaks at b = 1 or b = a, so an a whose a(m - a) + max((m - 2a - 1)^2,
    (m - 3a)^2) // 4 is below best is skipped.  best starts at the edge
    count x(m - 3 - x) + m - 1 of the profile (x, m - 3 - x, 1, 1, 1),
    x = (m - 2) // 2, which is feasible, so it never exceeds the maximum.
    Every prune is strict, so nothing that reaches the maximum is cut, and
    winners, which starts empty, collects every maximizer as before.
    """
    if m < 5:
        raise ValueError(f"blow-up needs at least 5 vertices, got {m}")
    x = (m - 2) // 2
    best = x * (m - 3 - x) + m - 1
    winners: list[tuple[int, ...]] = []
    for a in range(1, m - 3):
        top = a * (m - a)
        if top + max((m - 2 * a - 1) ** 2, (m - 3 * a) ** 2) // 4 < best:
            continue
        for b in range(1, min(a, m - a - 3) + 1):
            lin = m - 2 * a - b
            for c in range(1, min(a, m - a - b - 2) + 1):
                if top + lin * lin // 4 + c * (b - a) < best:
                    break
                w = m - a - b - c
                lo = max(1, w - a)
                hi = min(w - 1, a)
                if lo > hi:
                    continue
                const = a * b + b * c + a * w
                t0 = min(max(lin // 2, lo), hi)
                for t in (t0, t0 + 1):
                    val = const + lin * t - t * t
                    if t > hi or val < best:
                        continue
                    if val > best:
                        best = val
                        winners = []
                    winners.append((a, b, c, t, w - t))
    profiles = {dihedral_profile(prof) for prof in winners}
    return best, tuple(sorted(profiles))


def _family_sweep(n: int, r: int) -> tuple[int, list[_Spec]]:
    """The family optimizer's sweep: the maximum of e(G1 v G2) and the spec
    (blow-up profile in dihedral normal form, join order n - m) of every
    maximizer, each spec once, in ascending m.  See family_optimizer.

    Splits are bounded by Mantel's theorem: a pentagon blow-up is
    triangle-free, so e(G1) <= m * m // 4, and split m scores at most
    m * m // 4 + e(T_{r-2}(n - m)) + m(n - m).  Splits are visited by
    descending bound, and the first whose bound is below the best total
    so far ends the sweep, since no later split can reach that total.  The
    stop is strict, so every split that ties the maximum is scored."""
    if r < 3:
        raise ValueError(f"need r >= 3, got {r}")
    if n < r + 3:
        raise ValueError(f"need n >= r + 3, got n={n}, r={r}")
    splits = range(5, n - (r - 2) + 1)
    rest = {m: turan_edge_count(n - m, r - 2) + m * (n - m) for m in splits}
    best = -1
    totals: dict[int, int] = {}
    for m in sorted(splits, key=lambda m: -(m * m // 4 + rest[m])):
        if m * m // 4 + rest[m] < best:
            break
        totals[m] = _blowup_optimum(m)[0] + rest[m]
        best = max(best, totals[m])
    specs = [(prof, n - m) for m in splits if totals.get(m) == best
             for prof in _blowup_optimum(m)[1]]
    return best, specs


def family_optimizer(n: int, r: int) -> ExtremalReport:
    """Exhaustively maximize e(G1 v G2) over G1 a positive pentagon blow-up
    and G2 a complete (r-2)-partite graph, across all splits of n.

    Returns the maximum and every maximizer up to isomorphism; this is the
    independent route against which the named families are checked.  The
    report's exhaustive flag stays False: the sweep certifies the optimum
    over the family shape, not over all candidate graphs.

    The split m = |G1| and the blow-up profile are swept exhaustively, by
    branch and bound: a split, or a run of profiles, is skipped only when
    an upper bound on its edge count is strictly below a count already
    attained (see _family_sweep and _blowup_optimum).  G2 is not swept: by
    Turan's theorem the balanced T_{r-2}(n - m) is the only edge
    maximizer among complete (r-2)-partite graphs on n - m vertices, since
    moving one vertex from a part of size a to a part of size b <= a - 2
    gains a - b - 1 > 0 edges.  So each split scores
    e(G1) + e(T_{r-2}(n - m)) + m(n - m), and every maximizer joins a best
    blow-up with that Turan graph.

    The sweep yields each maximizer as a spec (profile, join order), one
    per dihedral class of profile; this report labels each spec's graph
    once.  verify_theorem runs the same sweep and keys each spec by its
    coloured twin quotient, built from the spec without the graph
    (_spec_form).
    """
    best, specs = _family_sweep(n, r)
    extremal = tuple(dedup_by_isomorphism([_c5_join(prof, m, r)
                                           for prof, m in specs]))
    return ExtremalReport(params=CaseParams(n, r), method="family_optimizer",
                          optimum=best, extremal=extremal,
                          exhaustive=False, nodes=0)


@cache
def _c5_clique_rows(t: int) -> tuple[int, ...]:
    """Rows of C5 v K_t: the pentagon on vertices 0..4 in cyclic order, the
    clique on vertices 5..4+t."""
    full = (1 << 5 + t) - 1
    return (tuple(1 << (i - 1) % 5 | 1 << (i + 1) % 5 | full ^ 31
                  for i in range(5))
            + tuple(full ^ 1 << v for v in range(5, 5 + t)))


def _spec_form(spec: _Spec, r: int, labelled: dict
               ) -> tuple[tuple[tuple[int, bool], ...], tuple[int, ...]]:
    """The key _twin_form(_c5_join(*spec, r).rows, labelled), built from the
    spec (profile, m) without the n-vertex member C5[profile] v T_{r-2}(m).

    Its coloured twin quotient is C5 v K_t, coloured (p_i, False) on the
    five blow-up parts, (s, False) on each Turan part of size s >= 2, and,
    if there are s >= 1 singleton Turan parts, (s, s >= 2) on one more
    vertex.  Sound when every part of the profile is positive, as in every
    spec of the sweep and of the named families.  Write P_i for blow-up
    part i (indices mod 5) and J for the join part.
    - A vertex of P_i has open neighbourhood P_{i-1} + P_{i+1} + J, and
      {i - 1, i + 1} fixes i, so no two blow-up parts are open twins.
      Adjacent blow-up vertices lie in P_i and P_{i+1}, and the first sees
      P_{i-1}, which the closed neighbourhood of the second misses, so no
      two are closed twins.  Each part is independent with equal
      neighbourhoods: one open class of size p_i.
    - No blow-up part is a twin of a join part: a join vertex sees all of
      the blow-up, while a vertex of P_i misses the nonempty P_{i+2}, in
      its open and in its closed neighbourhood.
    - A vertex x of a Turan part S has open neighbourhood V - S and closed
      neighbourhood V - (S - x).  So a part of size s >= 2 is one open
      class of size s.  Vertices of two different parts are adjacent, hence
      not open twins, and closed twins only when S - x and S' - y are
      equal; they are disjoint, so both parts are singletons.  All the
      singleton parts form one closed class: a clique when there are s >= 2
      of them, else the lone vertex, coloured (1, False) as _twin_form
      colours it.
    - Blow-up parts are joined iff cyclically consecutive, and each is
      joined to all of J; the join classes are pairwise joined.  So the
      quotient is C5 v K_t, t the number of join classes.
    The vertex order is _twin_form's too, by lowest vertex under _c5_join's
    labels: the parts in profile order, then the Turan parts, ceilings
    first, so the singleton class comes last.  The quotient rows and
    colours are therefore _twin_form's, and so are the key and the entry
    it reads or writes in labelled.
    """
    profile, m = spec
    sizes = turan_part_sizes(m, r - 2) if m else ()
    colours = [(p, False) for p in profile] + [(s, False) for s in sizes
                                               if s > 1]
    ones = sizes.count(1)
    if ones:
        colours.append((ones, ones > 1))
    return _quotient_form(_c5_clique_rows(len(colours) - 5), colours,
                          labelled)


@dataclass(frozen=True)
class VerifyRecord:
    """One row of the theorem-verification table."""

    params: CaseParams
    formula: int
    family_opt: int
    oracle: int | None  # enumeration optimum; None: no oracle ran (n > 8)
    verdict: str        # AGREE | DISAGREE

    def format_line(self) -> str:
        """Deterministic table row; oracle=- exhaustive=- when no oracle ran.
        The oracle is unbudgeted enumeration, so whenever it ran it finished
        and its value is exhaustive."""
        oracle = ("oracle=- exhaustive=-" if self.oracle is None
                  else f"oracle={self.oracle} exhaustive=true")
        return (f"{self.params} formula={self.formula}"
                f" family_opt={self.family_opt}"
                f" {oracle} verdict={self.verdict}")


def verify_theorem(r: int, k: int, n_from: int, n_to: int,
                   mode: str = "theorem1") -> list[VerifyRecord]:
    """Compare formula, family optimizer, named families and, for n <= 8,
    the exhaustive enumeration oracle for each n in the range.

    Disagreements are recorded, never raised: below the asymptotic regime
    the closed form is not guaranteed, and the whole point of the harness is
    to report what actually holds there.  Above n = 8 no oracle runs, and
    the verdict compares the formula with the family optimizer and the
    named families only.  The range must start at the first order the
    mode's case table covers: n >= 3r (q >= 3) for theorem1 and n >= r + 3
    for theorem14; it is checked before any row is computed.

    Each row keys each class once, and builds no family member.  The
    family optimizer's sweep and the named families both give their members
    as specs (blow-up profile in dihedral normal form, join order); each
    spec in their union is keyed once by _spec_form, and the row compares
    the two sets of keys, and the keys of the oracle's classes, when it
    runs, with the named one.  Sound: a rotation or reflection of C5 is an
    automorphism of C5, so normalising a profile only relabels the blow-up,
    and equal specs build equal graphs.  Sharing a spec shares no logic
    between the engines: each derives its specs on its own, and canon still
    decides every comparison between them.  The key is the canonical form
    of the coloured twin quotient, equal for two graphs iff they are
    isomorphic (see canon._twin_form).  A spec's key is read off the spec,
    whose member C5[profile] v T_{r-2}(m) has the quotient C5 v K_t with
    t <= r - 2 (see _spec_form), so a row's cost does not grow with n; the
    oracle's classes (n <= 8) are keyed by _twin_form from their rows.  One
    dict per call, handed to both, labels each distinct coloured quotient
    once per call: rows at different n often give the same quotient with
    other class sizes.  r = 3, 4, 5 over n = 9..45 label 50 quotients
    instead of 767, and r = 5 over n = 101..200 labels 15 instead of 4,230.
    """
    if n_from > n_to:
        raise ValueError("empty verification range")
    first = 3 * r if mode == "theorem1" else r + 3
    if n_from < first:
        hint = f"; theorem14 starts at n = {r + 3}" if mode == "theorem1" else ""
        raise ValueError(f"mode {mode} needs n >= {first} at r={r},"
                         f" got n_from={n_from}{hint}")
    records = []
    labelled: dict = {}  # (quotient rows, colour cells) -> labelled rows
    for n in range(n_from, n_to + 1):
        params = CaseParams(n, r, k)
        formula = ex_nonpartite_value(params)
        fam_opt, fam_specs = _family_sweep(n, r)
        named_specs = _family_specs(params, mode)
        forms = {spec: _spec_form(spec, r, labelled)
                 for spec in dict.fromkeys(fam_specs + named_specs)}
        fam_canon = frozenset(forms[spec] for spec in fam_specs)
        pred_canon = frozenset(forms[spec] for spec in named_specs)
        consistent = formula == fam_opt and fam_canon == pred_canon

        # unbudgeted enumeration always finishes, and for n >= r + 3 it
        # always finds C5 v T_{r-2}(n-5) (K_{r+1}-free, chromatic number
        # r + 1), so its optimum is never None
        rep = enumerate_extremal(params) if n <= 8 else None
        ok = consistent and (rep is None or (
            rep.optimum == formula
            and {_twin_form(g.rows, labelled) for g in rep.extremal}
            == pred_canon))
        verdict = "AGREE" if ok else "DISAGREE"

        records.append(VerifyRecord(
            params=params, formula=formula, family_opt=fam_opt,
            oracle=rep.optimum if rep else None, verdict=verdict))
    return records
