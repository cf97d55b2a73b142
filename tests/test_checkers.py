import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from bookturan.checkers import (BookWitness, _book_clique, _coloring,
                                chromatic_number, contains_clique,
                                contains_generalized_book, contains_subgraph,
                                greedy_clique, is_color_critical,
                                is_nonpartite_book_free, is_r_colorable)
from bookturan.constructions import (c5_blowup, complete_multipartite,
                                     generalized_book, turan_graph)
from bookturan.formulas import CaseParams
from bookturan.constructions import extremal_family_graphs, family_g2
from bookturan.graphs import (Graph, _bits, add_edge, empty_graph, from_edges,
                              join, relabel)
from bookturan.search import _child_rows, generate_graphs

from test_graphs import random_graph

C5 = c5_blowup((1, 1, 1, 1, 1))
K4 = complete_multipartite((1, 1, 1, 1))
K5 = complete_multipartite((1, 1, 1, 1, 1))
W7 = join(C5, empty_graph(2))  # C5 v T1(2)


def check_book_witness(g, w: BookWitness, r, k):
    assert len(w.clique) == r and len(w.pages) == k
    assert not w.clique & w.pages
    for u in w.clique:
        for v in w.clique:
            if u != v:
                assert g.has_edge(u, v)
    for p in w.pages:
        for u in w.clique:
            assert g.has_edge(p, u)


def check_coloring(g, witness, r):
    assert len(witness.classes) == g.order
    assert all(0 <= c < r for c in witness.classes)
    for u, v in g.edges():
        assert witness.classes[u] != witness.classes[v]


def test_contains_clique_examples():
    assert contains_clique(K4, 4) == {0, 1, 2, 3}
    assert contains_clique(C5, 3) is None
    assert contains_clique(C5, 2) is not None
    t39 = turan_graph(9, 3)
    assert contains_clique(t39, 4) is None
    assert contains_clique(t39, 3) is not None
    assert contains_clique(empty_graph(0), 1) is None
    with pytest.raises(ValueError):
        contains_clique(K4, 0)


def test_contains_clique_brute_force():
    rnd = random.Random(41)
    for _ in range(200):
        g = random_graph(rnd, rnd.randrange(1, 9), rnd.random())
        for r in range(1, g.order + 1):
            brute = any(
                all(g.has_edge(u, v) for u, v in combinations(sub, 2))
                for sub in combinations(range(g.order), r))
            found = contains_clique(g, r)
            assert (found is not None) == brute
            if found is not None:
                assert all(g.has_edge(u, v) for u, v in combinations(sorted(found), 2))


def test_contains_clique_spine_longer_than_recursion_limit():
    # K_1200 on 0..1199, and x_j (vertex 1199 + j) joined to 0..j-1 for
    # j = 1..1200: nearly twin-free, so twin pruning cannot shorten the
    # walk's 1,200 levels
    m = 1200
    clique = (1 << m) - 1
    rows = [clique ^ 1 << i | ((1 << m - i) - 1) << m + i for i in range(m)]
    rows += [(1 << j) - 1 for j in range(1, m + 1)]
    g = Graph(tuple(rows))
    found = contains_clique(g, m)
    assert found is not None and len(found) == m
    mask = sum(1 << v for v in found)
    assert all(rows[v] & mask == mask ^ 1 << v for v in found)


def test_contains_book_examples():
    w = contains_generalized_book(K5, 3, 2)
    assert w is not None
    check_book_witness(K5, w, 3, 2)
    # the first spine in descending label order, its lowest common neighbours
    assert w == BookWitness(frozenset({2, 3, 4}), frozenset({0, 1}))
    assert contains_generalized_book(K5, 3, 1) == BookWitness(
        frozenset({2, 3, 4}), frozenset({0}))
    b32 = generalized_book(3, 2)
    assert contains_generalized_book(b32, 3, 2) is not None
    assert contains_generalized_book(W7, 3, 1) is None


def test_book_absent_by_exhaustive_subsets():
    # direct 4-subset sweep over the 7-vertex join confirms K4-freeness
    found = False
    for sub in combinations(range(7), 4):
        if all(W7.has_edge(u, v) for u, v in combinations(sub, 2)):
            found = True
    assert not found
    assert contains_generalized_book(W7, 3, 1) is None


def test_book_equals_clique_for_single_page():
    from bookturan.search import generate_graphs
    for n in range(1, 8):
        for g in generate_graphs(n):
            for r in (2, 3, 4):
                assert ((contains_generalized_book(g, r, 1) is not None)
                        == (contains_clique(g, r + 1) is not None))


def test_book_monotone_in_k():
    from bookturan.search import generate_graphs
    for n in range(2, 7):
        for g in generate_graphs(n):
            for r in (2, 3):
                present = [contains_generalized_book(g, r, k) is not None
                           for k in (1, 2, 3)]
                # once absent, absent for all larger page counts
                for a, b in zip(present, present[1:]):
                    assert a or not b


def test_book_agrees_with_subgraph_oracle_small():
    from bookturan.search import generate_graphs
    for n in range(1, 6):
        for g in generate_graphs(n):
            for r, k in ((3, 1), (3, 2), (4, 1)):
                pattern = generalized_book(r, k)
                assert ((contains_generalized_book(g, r, k) is not None)
                        == (contains_subgraph(g, pattern) is not None))


def test_book_through_new_vertex_lies_in_its_closed_neighbourhood():
    # the search's incremental book test: a book-free parent gains a book
    # exactly when some r-clique inside N[0] of the new vertex 0 has k
    # common neighbours
    for r, k in ((3, 1), (3, 2), (3, 3), (4, 1), (4, 2)):
        pattern = generalized_book(r, k)
        for n in range(0, 6):
            for parent in generate_graphs(n, (r, k)):
                for t in range(n + 1):
                    for comb in combinations(range(n), t):
                        rows = _child_rows(parent.rows, comb)
                        assert rows[1:] == tuple(
                            row << 1 | (u in comb)
                            for u, row in enumerate(parent.rows))
                        walked = _book_clique(rows, r, k, rows[0] | 1)
                        embedded = contains_subgraph(Graph(rows), pattern)
                        assert (walked is None) == (embedded is None), \
                            (parent.rows, comb, r, k)


@st.composite
def small_graphs(draw, max_order=9):
    n = draw(st.integers(0, max_order))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return from_edges(n, [e for e, b in zip(pairs, keep) if b])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(small_graphs(), st.integers(2, 4), st.integers(1, 3))
def test_book_checker_agrees_with_subgraph_oracle(g, r, k):
    w = contains_generalized_book(g, r, k)
    assert ((w is None)
            == (contains_subgraph(g, generalized_book(r, k)) is None))
    if w is not None:
        check_book_witness(g, w, r, k)


def test_coloring_examples():
    assert is_r_colorable(C5, 2) is None
    w = is_r_colorable(C5, 3)
    assert w is not None
    check_coloring(C5, w, 3)
    assert is_r_colorable(W7, 3) is None
    w4 = is_r_colorable(W7, 4)
    assert w4 is not None
    check_coloring(W7, w4, 4)
    assert is_r_colorable(empty_graph(0), 1) is not None
    with pytest.raises(ValueError):
        is_r_colorable(C5, 0)


def test_coloring_long_cycles_need_no_recursion():
    # one search frame per vertex: 1500 frames would pass Python's default
    # recursion limit of 1000
    def cycle(n):
        return from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    even, odd = cycle(1500), cycle(1501)
    w = is_r_colorable(even, 2)
    assert w is not None
    check_coloring(even, w, 2)
    assert is_r_colorable(odd, 2) is None
    w3 = is_r_colorable(odd, 3)
    assert w3 is not None
    check_coloring(odd, w3, 3)


def test_color_count_above_the_order_is_the_order():
    # no search uses more colors than vertices, so a huge count costs no
    # memory and finds the witness of count n
    rnd = random.Random(23)
    graphs = [C5, W7, K5, empty_graph(3), turan_graph(12, 3),
              *extremal_family_graphs(CaseParams(11, 3, 2))]
    graphs += [random_graph(rnd, rnd.randrange(1, 10), 0.5) for _ in range(20)]
    for g in graphs:
        assert is_r_colorable(g, 10**9) == is_r_colorable(g, g.order), g.rows


def test_chromatic_examples():
    assert chromatic_number(K5) == 5
    assert chromatic_number(turan_graph(9, 3)) == 3
    assert chromatic_number(empty_graph(0)) == 0
    assert chromatic_number(empty_graph(4)) == 1
    for g in family_g2(CaseParams(12, 3)):
        assert chromatic_number(g) == 4


def brute_colorable(g, r):
    """Plain exhaustive backtracking: colour vertices in label order, each
    with every colour its earlier neighbours leave free."""
    colors = []

    def rec(v):
        if v == g.order:
            return True
        for c in range(r):
            if all(colors[u] != c for u in range(v) if g.has_edge(u, v)):
                colors.append(c)
                if rec(v + 1):
                    return True
                colors.pop()
        return False

    return rec(0)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(small_graphs(max_order=8), st.integers(1, 4))
def test_coloring_decision_matches_brute_force(g, r):
    w = is_r_colorable(g, r)
    assert (w is not None) == brute_colorable(g, r)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(small_graphs(max_order=14), st.integers(1, 6))
def test_coloring_witness_is_proper(g, r):
    w = is_r_colorable(g, r)
    if w is not None:
        check_coloring(g, w, r)


def test_chromatic_brute_force():
    rnd = random.Random(43)
    for _ in range(120):
        g = random_graph(rnd, rnd.randrange(1, 8), rnd.random())
        assert chromatic_number(g) == next(
            c for c in range(1, g.order + 1) if brute_colorable(g, c))


def test_chromatic_join_additivity():
    rnd = random.Random(44)
    for _ in range(60):
        g1 = random_graph(rnd, rnd.randrange(1, 8), rnd.random())
        g2 = random_graph(rnd, rnd.randrange(1, 8), rnd.random())
        assert (chromatic_number(join(g1, g2))
                == chromatic_number(g1) + chromatic_number(g2))


def test_color_critical():
    assert is_color_critical(K4)
    assert is_color_critical(generalized_book(3, 2))
    assert not is_color_critical(from_edges(6, [(i, (i + 1) % 6) for i in range(6)]))
    assert is_color_critical(C5)
    with pytest.raises(ValueError):
        is_color_critical(empty_graph(3))


def test_books_are_color_critical():
    for r in (2, 3, 4):
        for k in (1, 2, 3):
            b = generalized_book(r, k)
            assert chromatic_number(b) == r + 1
            assert is_color_critical(b)


def test_candidacy_predicate():
    assert is_nonpartite_book_free(W7, 3, 1)
    assert not is_nonpartite_book_free(turan_graph(9, 3), 3, 1)
    assert not is_nonpartite_book_free(K5, 3, 2)
    with pytest.raises(ValueError):
        is_nonpartite_book_free(W7, 2, 1)


def test_greedy_clique_is_a_clique():
    rnd = random.Random(45)
    for _ in range(100):
        g = random_graph(rnd, rnd.randrange(1, 12), rnd.random())
        cl = greedy_clique(g)
        assert all(g.has_edge(u, v) for u, v in combinations(cl, 2))


def test_family_members_pass_candidacy_for_all_small_k():
    from bookturan.constructions import extremal_family_graphs
    for r, n in ((3, 11), (3, 12), (4, 13), (5, 16)):
        for g in extremal_family_graphs(CaseParams(n, r), "theorem1"):
            for k in range(1, 6):
                assert is_nonpartite_book_free(g, r, k)


def _book_without_twin_rule(g, r, k):
    # contains_generalized_book as it was with no twin rule, as
    # (clique, pages): the recursive walk over every spine vertex, from the
    # highest label down
    rows = g.rows

    def walk(r, within, common):
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
            found = walk(r - 1, within & rows[w], common & rows[w])
            if found is not None:
                return found[0] + [w], found[1]
        return None

    found = walk(r, (1 << g.order) - 1, -1)
    if found is None:
        return None
    return frozenset(found[0]), frozenset(list(_bits(found[1]))[:k])


def assert_twin_rules_change_nothing(g, r, k):
    w = contains_generalized_book(g, r, k)
    assert (None if w is None else (w.clique, w.pages)) \
        == _book_without_twin_rule(g, r, k), (g.rows, r, k)
    # contains_clique is the walk at k = 0, whose twin rule keeps every spine
    for s in range(2, r + 2):
        plain = _book_without_twin_rule(g, s, 0)
        spine = None if plain is None else plain[0]
        assert contains_clique(g, s) == spine, (g.rows, s)
    # is_r_colorable as it was with no open-twin rule: its search on g itself
    c = is_r_colorable(g, r)
    assert (None if c is None else c.classes) == _coloring(g, r), (g.rows, r)


@st.composite
def twin_rich_graphs(draw, bases=small_graphs(max_order=7).filter(
        lambda g: g.order > 0)):
    # a small graph drawn from bases, then up to five planted twins, each
    # copying the open or the closed neighbourhood of an earlier vertex,
    # then relabelled
    g = draw(bases)
    rows = list(g.rows)
    for closed in draw(st.lists(st.booleans(), max_size=5)):
        source = draw(st.integers(0, len(rows) - 1))
        row = rows[source] | closed << source
        for u in _bits(row):
            rows[u] |= 1 << len(rows)
        rows.append(row)
    perm = draw(st.permutations(range(len(rows))))
    return relabel(Graph(tuple(rows)), perm)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(twin_rich_graphs(), st.integers(2, 5), st.integers(1, 3))
def test_twin_rules_match_unpruned_on_planted_twins(g, r, k):
    g.validate()
    assert_twin_rules_change_nothing(g, r, k)


def test_twin_rules_match_unpruned_on_family_members():
    # the extremal members (book-free, so the walk runs to the end), each
    # relabelled, and with one added edge (so a book is found)
    rnd = random.Random(18)
    for r in (3, 4, 5):
        for k in (1, 2, 3):
            for n in range(r + 3, r + 16):
                for g in extremal_family_graphs(CaseParams(n, r, k),
                                                "theorem14"):
                    perm = list(range(n))
                    rnd.shuffle(perm)
                    h = relabel(g, perm)
                    plus = add_edge(h, *rnd.choice(
                        [(u, v) for u in range(n) for v in range(u)
                         if not h.has_edge(u, v)]))
                    for x in (g, h, plus):
                        assert_twin_rules_change_nothing(x, r, k)


def test_coloring_equals_search_on_whole_graph_at_scale():
    # is_r_colorable against _coloring on g itself: relabelled pentagon
    # blow-ups joined with T_{r-2}, of order 20 to 45, with and without one
    # added edge, and random graphs with many planted open and closed twins
    rnd = random.Random(2045)
    graphs = []
    for n in range(20, 46, 5):
        for r in (3, 4, 5):
            m = rnd.randrange(5, n - r + 3)
            cuts = sorted(rnd.sample(range(1, m), 4))
            profile = [b - a for a, b in zip([0, *cuts], [*cuts, m])]
            g = join(c5_blowup(profile), turan_graph(n - m, r - 2))
            perm = list(range(n))
            rnd.shuffle(perm)
            g = relabel(g, perm)
            plus = add_edge(g, *rnd.choice(
                [(u, v) for u in range(n) for v in range(u)
                 if not g.has_edge(u, v)]))
            graphs += [(g, r), (plus, r)]
    for _ in range(40):
        rows = list(random_graph(rnd, rnd.randrange(1, 9), rnd.random()).rows)
        while len(rows) < 20:
            source = rnd.randrange(len(rows))
            row = rows[source] | rnd.randrange(2) << source
            for u in _bits(row):
                rows[u] |= 1 << len(rows)
            rows.append(row)
        graphs.append((Graph(tuple(rows)), rnd.randrange(2, 6)))
    for g, r in graphs:
        g.validate()
        for s in (r - 1, r, r + 1):
            c = is_r_colorable(g, s)
            assert (None if c is None else c.classes) == _coloring(g, s), (
                g.rows, s)
