import hashlib
import random
from functools import cache
from itertools import combinations

import networkx as nx
from hypothesis import Phase, given, settings, strategies as st

from bookturan.canon import (_twin_form, canon, canon_rows, canonical_form,
                             dedup_by_isomorphism, is_isomorphic)
from bookturan.constructions import (c5_blowup, complete_multipartite,
                                     extremal_family_graphs)
from bookturan.formulas import CaseParams
from bookturan.graphs import (Graph, _twin_classes, empty_graph, from_edges,
                              join, relabel)
from bookturan.search import generate_graphs

from test_checkers import small_graphs, twin_rich_graphs
from test_graphs import random_graph

C5 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def test_c5_relabelings_agree():
    assert canonical_form(C5) == canonical_form(
        from_edges(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)]))


def test_distinguishes_same_degree_sequence():
    k3k1 = from_edges(4, [(0, 1), (1, 2), (0, 2)])
    p4 = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    c6 = from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    two_k3 = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert canonical_form(k3k1) != canonical_form(p4)
    assert not is_isomorphic(c6, two_k3)  # same degree sequence, 2-regular
    k22 = from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    c4 = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert is_isomorphic(k22, c4)


def test_permutation_invariance_random():
    rnd = random.Random(11)
    for _ in range(400):
        g = random_graph(rnd, rnd.randrange(1, 13), rnd.random())
        perm = list(range(g.order))
        rnd.shuffle(perm)
        assert canonical_form(g) == canonical_form(relabel(g, perm))


def test_canonical_graph_is_a_relabeling():
    rnd = random.Random(12)
    graphs = [random_graph(rnd, rnd.randrange(1, 11)) for _ in range(100)]
    # blow-up joins of order 30..60 repeat each row across a twin class, so
    # every leaf reuses relabelled rows; a stale reuse shows as rows that
    # are not the input relabelled by perm
    rnd = random.Random(20)
    while len(graphs) < 140:
        g = blowup_join([rnd.randrange(2, 10) for _ in range(5)],
                        [rnd.randrange(1, 8) for _ in range(rnd.randrange(4))])
        if 30 <= g.order <= 60:
            perm = list(range(g.order))
            rnd.shuffle(perm)
            graphs.append(relabel(g, perm))
    for g in graphs:
        rows, perm = canon_rows(g.rows)
        cg = Graph(rows)
        assert relabel(g, perm) == cg
        assert cg.edge_count() == g.edge_count()
        assert canonical_form(cg) == canonical_form(g)


def all_labeled_graphs(n):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield from_edges(n, [pairs[i] for i in range(len(pairs))
                             if bits >> i & 1])


def test_exact_class_counts_by_labeled_brute_force():
    # independent oracle: canonicalize every labelled graph and count groups
    expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
    for n in (1, 2, 3, 4, 5):
        forms = {canonical_form(g) for g in all_labeled_graphs(n)}
        assert len(forms) == expected[n]


def test_order6_classes_by_labeled_brute_force():
    forms = {canonical_form(g) for g in all_labeled_graphs(6)}
    assert len(forms) == 156


def test_twin_form_classes_by_labeled_brute_force():
    # the quotient key splits the labelled graphs of each order <= 5, and
    # the classes of order 6, exactly as canonical_form does
    for n, count in ((1, 1), (2, 2), (3, 4), (4, 11), (5, 34)):
        pairs = {(canonical_form(g), _twin_form(g.rows))
                 for g in all_labeled_graphs(n)}
        assert len({form for form, _ in pairs}) == count
        assert len({key for _, key in pairs}) == len(pairs) == count
    assert len({_twin_form(g.rows) for g in generate_graphs(6)}) == 156


def test_agrees_with_networkx_vf2():
    rnd = random.Random(13)
    for _ in range(200):
        n = rnd.randrange(1, 13)
        g1 = random_graph(rnd, n, rnd.random())
        if rnd.random() < 0.5:
            perm = list(range(n))
            rnd.shuffle(perm)
            g2 = relabel(g1, perm)
        else:
            g2 = random_graph(rnd, n, rnd.random())
        nx1 = nx.Graph()
        nx1.add_nodes_from(range(n))
        nx1.add_edges_from(g1.edges())
        nx2 = nx.Graph()
        nx2.add_nodes_from(range(n))
        nx2.add_edges_from(g2.edges())
        assert is_isomorphic(g1, g2) == nx.is_isomorphic(nx1, nx2)


def test_dedup_by_isomorphism():
    rnd = random.Random(14)
    g = random_graph(rnd, 8)
    relabs = []
    for _ in range(5):
        perm = list(range(8))
        rnd.shuffle(perm)
        relabs.append(relabel(g, perm))
    h = random_graph(rnd, 7)
    out = dedup_by_isomorphism(relabs + [h, h])
    assert len(out) == 2
    assert sorted(x.order for x in out) == [7, 8]


def test_empty_and_single():
    assert canonical_form(empty_graph(0)) != canonical_form(empty_graph(1))
    assert is_isomorphic(empty_graph(0), empty_graph(0))


def test_large_structured_join_fast():
    # blow-up joins at order ~60 must canonicalize without branching blowups
    g = join(c5_blowup((18, 9, 1, 1, 10)), complete_multipartite((7, 7, 7)))
    perm = list(range(g.order))
    random.Random(15).shuffle(perm)
    assert canonical_form(g) == canonical_form(relabel(g, perm))


def twin_classes_by_closure(rows):
    # pairwise twin relation (equal open or equal closed rows), closed
    # transitively by repeated merging
    n = len(rows)
    classes = [{v} for v in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rows[u] == rows[v] or rows[u] | 1 << u == rows[v] | 1 << v:
                cu = next(c for c in classes if u in c)
                cv = next(c for c in classes if v in c)
                if cu is not cv:
                    cu |= cv
                    classes.remove(cv)
    return {frozenset(c) for c in classes}


def blowup_join(profile, parts):
    return join(c5_blowup(profile), complete_multipartite(parts))


def relabelled_join(rnd):
    # a blow-up of C5 with parts of size 1..3 joined with a complete
    # multipartite graph of up to two such parts, randomly relabelled
    prof = [rnd.randrange(1, 4) for _ in range(5)]
    parts = [rnd.randrange(1, 4) for _ in range(rnd.randrange(0, 3))]
    g = blowup_join(prof, parts)
    perm = list(range(g.order))
    rnd.shuffle(perm)
    return relabel(g, perm)


def test_twin_classes_match_pairwise_closure():
    graphs = [g for n in range(8) for g in generate_graphs(n)]
    rnd = random.Random(16)
    for _ in range(300):
        graphs.append(random_graph(rnd, rnd.randrange(1, 16), rnd.random()))
        graphs.append(relabelled_join(rnd))
    for g in graphs:
        masks = _twin_classes(g.rows)
        classes = {frozenset(v for v in range(g.order) if c >> v & 1)
                   for c in masks}
        assert classes == twin_classes_by_closure(g.rows), g.rows
        for v, c in enumerate(masks):
            assert c >> v & 1, g.rows
            # v sees its class-mates iff the class is closed and not {v}
            closed = len({g.rows[u] | 1 << u for u in range(g.order)
                          if c >> u & 1}) == 1
            assert bool(g.rows[v] & c) == (closed and c != 1 << v), g.rows


def test_first_canonical_vertex_lies_in_first_root_cell():
    # the rule canonical augmentation rejects children on: the vertex that
    # canon_rows puts at position 0 lies in the first cell of canon's root
    # partition, and canon rejects exactly the vertices outside that cell
    rnd = random.Random(17)
    graphs = []
    for n in range(1, 8):
        for g in generate_graphs(n):
            perm = list(range(n))
            rnd.shuffle(perm)
            graphs.append(relabel(g, perm))
    graphs += [random_graph(rnd, rnd.randrange(1, 14), rnd.random())
               for _ in range(500)]
    graphs += [relabelled_join(rnd) for _ in range(100)]
    for g in graphs:
        n = g.order
        first_cell = canon(g.rows, -1)[0]
        _, perm = canon_rows(g.rows)
        assert perm.index(0) in first_cell, g.rows
        for v in range(n):
            assert (canon(g.rows, v) is not None) == (v in first_cell), g.rows


def relabelled_family_rows(rnd, orders):
    # theorem14 family members for r = 3, 4, 5 at orders(r), each
    # relabelled by a permutation drawn from rnd
    out = []
    for r in (3, 4, 5):
        for n in orders(r):
            for g in extremal_family_graphs(CaseParams(n, r), "theorem14"):
                perm = list(range(n))
                rnd.shuffle(perm)
                out.append(relabel(g, perm).rows)
    return out


def canon_digest(corpus):
    digest = hashlib.sha256()
    for rows in corpus:
        digest.update(repr(canon_rows(rows)).encode())
    return digest.hexdigest()


def test_canonical_forms_are_pinned():
    # (rows, perm) of canon_rows over a fixed corpus, hashed: any change to
    # the cell order of refinement or to the labelling search shows here,
    # and printed graph6 lines are canonical forms.  The classes are sorted,
    # so a change of generation order alone does not show.
    corpus = sorted((g.rows for n in range(1, 8) for g in generate_graphs(n)),
                    key=lambda rows: (len(rows), rows))
    rnd = random.Random(18)
    corpus += [random_graph(rnd, rnd.randrange(1, 16), rnd.random()).rows
               for _ in range(300)]
    corpus += relabelled_family_rows(rnd, lambda r: range(r + 3, 30))
    assert len(corpus) == 1818
    assert canon_digest(corpus) == (
        "03e15c5aba6f3fa0e8fd11d9c9332de7d3e8a6d3c7cacdcabb44adce26096261")


def test_large_family_canonical_forms_are_pinned():
    # the families at the orders the benchmark reaches, where refinement
    # leaves a few large twin cells and most rows repeat
    corpus = relabelled_family_rows(random.Random(19), lambda r: range(30, 46))
    assert len(corpus) == 507
    assert canon_digest(corpus) == (
        "319bc333c7a2b51b3f3dd6899468b385f811e34fb24c7cdb2e3f4d6b1016173d")


def cycle(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def circulant(n, jumps):
    return from_edges(n, [(i, (i + j) % n) for i in range(n) for j in jumps])


def hypercube(d):
    return from_edges(1 << d, [(u, u ^ 1 << i) for u in range(1 << d)
                               for i in range(d) if not u >> i & 1])


def kneser(n, k):
    sets = [set(s) for s in combinations(range(n), k)]
    return from_edges(len(sets), [(i, j) for i, j in combinations(
        range(len(sets)), 2) if not sets[i] & sets[j]])


def two_cycles(m):
    return from_edges(2 * m, [(i, (i + 1) % m) for i in range(m)]
                      + [(m + i, m + (i + 1) % m) for i in range(m)])


def prism(m):
    return from_edges(2 * m, list(two_cycles(m).edges())
                      + [(i, m + i) for i in range(m)])


def torus(m):
    # C_m x C_m; the 4 x 4 torus is the hypercube Q4
    return from_edges(m * m, [(m * a + b, m * a + (b + 1) % m)
                              for a in range(m) for b in range(m)]
                      + [(m * a + b, m * ((a + 1) % m) + b)
                         for a in range(m) for b in range(m)])


def crown(m):
    # K_{m,m} minus a perfect matching; the crown on 8 vertices is Q3
    return from_edges(2 * m, [(i, m + j) for i in range(m)
                              for j in range(m) if i != j])


SYMMETRIC = ([cycle(n) for n in range(3, 41)]
             + [hypercube(d) for d in (2, 3, 4)]
             + [kneser(5, 2), kneser(6, 2)])

# pairs of one order and one degree sequence, isomorphic or not
LOOKALIKES = ([(cycle(2 * m), two_cycles(m)) for m in range(3, 21)]
              + [(hypercube(3), crown(4)), (hypercube(3), circulant(8, [1, 4])),
                 (hypercube(4), torus(4)), (kneser(5, 2), prism(5)),
                 (kneser(6, 2), circulant(15, [1, 2, 4]))])


def test_symmetric_canonical_forms_are_pinned():
    # graphs with large automorphism groups, as given and relabelled: here
    # later leaves often repeat the first one, and the search skips the
    # rest of their subtrees
    graphs = (SYMMETRIC + [g for pair in LOOKALIKES for g in pair]
              + [prism(m) for m in range(3, 13)]
              + [crown(m) for m in range(3, 7)]
              + [torus(m) for m in range(3, 7)])
    rnd = random.Random(21)
    corpus = [g.rows for g in graphs]
    for g in graphs:
        perm = list(range(g.order))
        rnd.shuffle(perm)
        corpus.append(relabel(g, perm).rows)
    assert len(corpus) == 214
    assert canon_digest(corpus) == (
        "449e3713d4a230fd60a799b10752eaafb4b15e1af96cbf11e22f5b92bb2dcbff")


PROFILES = st.tuples(st.lists(st.integers(1, 3), min_size=5, max_size=5),
                     st.lists(st.integers(1, 3), max_size=2))


def relabelled(g):
    return st.permutations(range(g.order)).map(lambda perm: relabel(g, perm))


@cache
def form_of(g):
    return canon_rows(g.rows)[0]


@settings(derandomize=True, database=None, max_examples=4, deadline=None)
@given(st.data())
def test_canon_rows_ignore_labels_on_symmetric_graphs(data):
    for g in SYMMETRIC:
        h = data.draw(relabelled(g))
        assert canon_rows(h.rows)[0] == form_of(g)
    g = data.draw(PROFILES.map(lambda pp: blowup_join(*pp)))
    h = data.draw(relabelled(g))
    assert canon_rows(h.rows)[0] == canon_rows(g.rows)[0]


def to_nx(g):
    out = nx.Graph()
    out.add_nodes_from(range(g.order))
    out.add_edges_from(g.edges())
    return out


def join_pairs():
    # a blow-up join against one whose profile is shuffled: isomorphic
    # exactly when the shuffle is a rotation or reflection of the pentagon
    return PROFILES.flatmap(lambda pp: st.tuples(
        st.just(blowup_join(*pp)),
        st.permutations(pp[0]).map(lambda prof: blowup_join(prof, pp[1]))))


def blowup(n, edges, sizes, cliques):
    # each vertex v of the graph (n, edges) becomes a clique or an
    # independent set of sizes[v] vertices, per cliques; adjacent vertices
    # become completely joined sets
    start = [sum(sizes[:v]) for v in range(n)]
    parts = [range(start[v], start[v] + sizes[v]) for v in range(n)]
    return from_edges(sum(sizes), [
        e for v in range(n) if cliques[v] for e in combinations(parts[v], 2)]
        + [(a, b) for u, v in edges for a in parts[u] for b in parts[v]])


HOUSE = [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (3, 4)]

# pairs of one order and one degree sequence whose twin quotients are
# isomorphic once the class sizes, or the clique flags, are forgotten
TWIN_LOOKALIKES = [
    # K3 + P3 and K2 + C4
    (blowup(3, [(1, 2)], (3, 1, 2), (True, False, False)),
     blowup(3, [(1, 2)], (2, 2, 2), (True, False, False))),
    # a house whose roof is a K2 and one floor corner two open twins, and
    # the house whose roof is the open twins and that corner the K2
    (blowup(5, HOUSE, (2, 1, 1, 1, 2), (False,) * 4 + (True,)),
     blowup(5, HOUSE, (2, 1, 1, 1, 2), (True,) + (False,) * 4))]


# no shrinking: each shrink step relabels and labels every fixed pair
# again, so shrinking a failure takes minutes; unshrunk, it fails at once
@settings(derandomize=True, database=None, max_examples=5, deadline=None,
          phases=set(Phase) - {Phase.shrink})
@given(st.data())
def test_is_isomorphic_agrees_with_networkx_on_lookalikes(data):
    # the twin quotient key agrees as well
    for g, h in LOOKALIKES + TWIN_LOOKALIKES + [data.draw(join_pairs())]:
        h = data.draw(relabelled(h))
        iso = is_isomorphic(g, h)
        assert iso == nx.is_isomorphic(to_nx(g), to_nx(h))
        assert (_twin_form(g.rows) == _twin_form(h.rows)) == iso, g.rows


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_twin_form_agrees_with_canonical_form_on_planted_twins(data):
    # two plantings on one base graph often share a quotient and differ in
    # the size or the clique flag of a class; up to 12 vertices
    base = st.just(data.draw(small_graphs(max_order=7).filter(
        lambda g: g.order > 0)))
    g = data.draw(twin_rich_graphs(base))
    for h in (data.draw(twin_rich_graphs(base)), data.draw(relabelled(g))):
        assert ((_twin_form(g.rows) == _twin_form(h.rows))
                == (canonical_form(g) == canonical_form(h))), (g.rows, h.rows)
