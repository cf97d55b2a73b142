import random
from itertools import combinations

import networkx as nx

from bookturan.canon import (_twin_roots, canon_rows, canonical_form,
                             dedup_by_isomorphism, is_isomorphic)
from bookturan.graphs import Graph, empty_graph, from_edges, relabel

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
    for _ in range(100):
        g = random_graph(rnd, rnd.randrange(1, 11))
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
    from bookturan.constructions import c5_blowup, complete_multipartite
    from bookturan.graphs import join
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


def test_twin_roots_match_pairwise_closure():
    from bookturan.constructions import c5_blowup, complete_multipartite
    from bookturan.graphs import join
    from bookturan.search import generate_graphs
    graphs = [g for n in range(8) for g in generate_graphs(n)]
    rnd = random.Random(16)
    for _ in range(300):
        graphs.append(random_graph(rnd, rnd.randrange(1, 16), rnd.random()))
        prof = [rnd.randrange(1, 4) for _ in range(5)]
        parts = [rnd.randrange(1, 4) for _ in range(rnd.randrange(0, 3))]
        g = join(c5_blowup(prof), complete_multipartite(parts))
        perm = list(range(g.order))
        rnd.shuffle(perm)
        graphs.append(relabel(g, perm))
    for g in graphs:
        roots = _twin_roots(g.rows)
        classes = {frozenset(v for v in range(g.order) if roots[v] == root)
                   for root in roots}
        assert classes == twin_classes_by_closure(g.rows), g.rows
