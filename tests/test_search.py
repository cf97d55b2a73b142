import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from bookturan import canon as canon_module
from bookturan import search
from bookturan.canon import (_twin_form, canon, canon_rows, canonical_form,
                            dedup_by_isomorphism, is_isomorphic, pack_rows)
from bookturan.checkers import (contains_generalized_book, contains_subgraph,
                                is_nonpartite_book_free, is_r_colorable)
from bookturan.constructions import (_c5_join, _family_specs,
                                     blowup_edge_count, c5_blowup,
                                     dihedral_profile,
                                     extremal_family_graphs, family_g3,
                                     generalized_book, turan_graph,
                                     turan_part_sizes)
from bookturan.formulas import CaseParams, ex_nonpartite_value, turan_edge_count
from bookturan.graph6 import encode_graph6
from bookturan.graphs import Graph, _twin_classes, empty_graph, join
from bookturan.search import (BudgetExceeded, ExtremalReport, SearchBudget,
                              _State, _blowup_optimum, _child_rows,
                              _children, _extensions, _family_sweep, _levels,
                              _max_free_degree,
                              _prefix_combinations, _spec_form, _unit,
                              branch_bound_extremal, enumerate_extremal,
                              family_optimizer, generate_graphs,
                              verify_theorem)

from test_canon import all_labeled_graphs
from test_graphs import random_graph

W7 = join(c5_blowup((1, 1, 1, 1, 1)), empty_graph(2))


def test_generation_class_counts():
    assert [len(generate_graphs(n)) for n in range(0, 9)] == [
        1, 1, 2, 4, 11, 34, 156, 1044, 12346]


def test_generation_matches_labelled_brute_force():
    # the degree rule and the parent shortcut against no generation at all:
    # canonicalize every labelled graph, then filter the classes by the
    # generic subgraph oracle, which shares no code with the generator's
    # book test
    for n in range(0, 7):
        classes = {canonical_form(g): Graph(canon_rows(g.rows)[0])
                   for g in all_labeled_graphs(n)}
        for book in (None, (3, 1), (3, 2), (3, 3), (4, 2)):
            pattern = None if book is None else generalized_book(*book)
            expected = {form for form, g in classes.items() if book is None
                        or contains_subgraph(g, pattern) is None}
            generated = [pack_rows(g.rows) for g in generate_graphs(n, book)]
            assert len(generated) == len(set(generated)), (n, book)
            assert set(generated) == expected, (n, book)


def _children_without_twin_rule(prows, book):
    # _children and _extensions as they would be with no twin rule: every
    # t-subset S that leaves the new vertex at minimum degree in the child,
    # by descending t and then lexicographically, the book judged on the
    # whole child, the first root cell watched and canonical position 0
    # deleted; with the number of neighbourhoods tried
    n = len(prows)
    degs = [row.bit_count() for row in prows]
    out, seen, tried = [], set(), 0
    for t in range(n, -1, -1):
        for comb in combinations(range(n), t):
            if any(degs[u] < t - (u in comb) for u in range(n)):
                continue
            tried += 1
            crows = _child_rows(prows, comb)
            if book is not None and contains_generalized_book(
                    Graph(crows), *book) is not None:
                continue
            root = canon(crows, 0)
            if root is None:
                continue
            ckey, _ = canon_rows(crows, root)
            if ckey in seen:
                continue
            seen.add(ckey)
            if canon_rows(tuple(row >> 1 for row in ckey[1:]))[0] == prows:
                out.append((ckey, t))
    return out, tried


def test_twin_rule_changes_only_the_node_count():
    # same children in the same order, never more neighbourhoods tried
    total = reference = 0
    for book, top in ((None, 6), ((3, 1), 7), ((3, 2), 7), ((4, 2), 7)):
        for j in range(1, top + 1):
            for g in generate_graphs(j, book):
                state = _State(None)
                got = _children(g.rows, 0, book, state)
                want, tried = _children_without_twin_rule(g.rows, book)
                assert got == want, (book, g.rows)
                assert state.nodes <= tried, (book, g.rows)
                total += state.nodes
                reference += tried
    assert total < reference  # the rule did skip neighbourhoods


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_prefix_combinations_are_the_filtered_combinations(data):
    # the generator against filtering every combination, in order, on random
    # twin-class partitions of free; a class's labels may interleave with
    # another's, and pick runs past len(free)
    free = sorted(data.draw(st.sets(st.integers(0, 11))))
    pick = data.draw(st.integers(0, len(free) + 1))
    label = data.draw(st.lists(st.integers(0, 3), min_size=len(free),
                               max_size=len(free)))
    below = [0] * 12
    for u, a in zip(free, label):
        below[u] = sum(1 << v for v, b in zip(free, label) if b == a and v < u)
    want = [c for c in combinations(free, pick)
            if all(not below[u] & ~sum(1 << v for v in c) for u in c)]
    assert list(_prefix_combinations(free, pick, below)) == want
    forced = (12, 13)
    assert list(_prefix_combinations(free, pick, below, forced)) == [
        forced + c for c in want]


def test_prefix_combinations_hand_checked():
    # classes {2, 5} and {3, 4}: (2, 4) lacks 3, (3, 5) and (4, 5) lack 2
    below = [0, 0, 0, 0, 1 << 3, 1 << 2]
    assert list(_prefix_combinations([2, 3, 4, 5], 2, below)) == [
        (2, 3), (2, 5), (3, 4)]


def test_generation_members_are_canonical_and_distinct():
    graphs = generate_graphs(5)
    forms = {canonical_form(g) for g in graphs}
    assert len(forms) == len(graphs) == 34
    assert all(canonical_form(g) == pack_rows(g.rows) for g in graphs)


def test_generation_book_free_filter():
    k4free = generate_graphs(5, book=(3, 1))
    assert len(k4free) < 34
    from bookturan.checkers import contains_clique
    assert all(contains_clique(g, 4) is None for g in k4free)
    full = {canonical_form(g) for g in generate_graphs(5)}
    assert {canonical_form(g) for g in k4free} <= full


def test_enumerate_small_orders():
    rep7 = enumerate_extremal(CaseParams(7, 3, 1))
    assert rep7.optimum == 15 and rep7.exhaustive
    assert len(rep7.extremal) == 1
    assert is_isomorphic(rep7.extremal[0], W7)

    rep6 = enumerate_extremal(CaseParams(6, 3, 1))
    assert rep6.optimum == 10 and len(rep6.extremal) == 1

    # no 5-vertex graph is simultaneously K4-free and non-3-colorable
    rep5 = enumerate_extremal(CaseParams(5, 3, 1))
    assert rep5.optimum is None and rep5.extremal == () and rep5.exhaustive


def _enumerate_labelling_every_class(params, node_limit):
    # enumeration with no leaf step: generate every book-free class of
    # order n as a level, each labelled and accepted, then keep the
    # non-r-colorable ones of maximum size; a truncated run reports no
    # optimum
    n, r, k = params.n, params.r, params.k
    state = _State(node_limit)
    exhaustive = True
    try:
        level = _levels(n, (r, k), state)
    except BudgetExceeded:
        exhaustive, level = False, []
    feasible = [(rows, e) for rows, e in level
                if is_r_colorable(Graph(rows), r) is None]
    best = max((e for _, e in feasible), default=None)
    extremal = tuple(Graph(rows) for rows in sorted(
        (rows for rows, e in feasible if e == best), key=pack_rows))
    return ExtremalReport(params=params, method="enumeration", optimum=best,
                          extremal=extremal, exhaustive=exhaustive,
                          nodes=state.nodes)


def test_leaf_step_matches_labelling_every_class():
    # the leaf step labels only the winners of the last order; the report,
    # nodes= included, and the extremal graph6 lines must not move.  At
    # n = 8 a limit of 5,000 cuts inside the last order: at (8,3,1) the
    # orders below it take 1,541 nodes
    for n in range(1, 9):
        for r in (3, 4):
            for k in (1, 2, 3):
                for node_limit in (None, 50, 5000):
                    params = CaseParams(n, r, k)
                    want = _enumerate_labelling_every_class(params, node_limit)
                    got = enumerate_extremal(params,
                                             SearchBudget(node_limit=node_limit))
                    assert got.format_line() == want.format_line(), (
                        n, r, k, node_limit)
                    assert [encode_graph6(g) for g in got.extremal] == [
                        encode_graph6(g) for g in want.extremal]


def test_enumerate_walks_last_order_parents_in_level_order(monkeypatch):
    # enumeration walks depth first; its leaf step must meet the classes of
    # order n - 1 in the order of a generated level, with minpop 0, so that
    # the running incumbent, the extremal set and nodes= are those of a
    # leaf step over _levels(n - 1)
    extensions = search._extensions
    seen = []

    def recorded(prows, minpop, state):
        assert minpop == 0
        if len(prows) == n - 1:
            seen.append(prows)
        return extensions(prows, minpop, state)

    monkeypatch.setattr(search, "_extensions", recorded)
    for n in range(2, 9):
        for r in (3, 4):
            for k in (1, 2, 3):
                seen.clear()
                enumerate_extremal(CaseParams(n, r, k))
                level = _levels(n - 1, (r, k), _State(None))
                assert seen == [rows for rows, _ in level], (n, r, k)


def test_enumerate_labels_only_the_winners(monkeypatch):
    # at the last order, a class is labelled only after it was found not
    # 3-colorable, so order-8 labellings never outnumber those colourings
    calls = {"canon": 0, "uncolorable": 0}

    def counted_canon(rows, root=None):
        calls["canon"] += len(rows) == 8
        return canon_rows(rows, root)

    def counted_colorable(g, r):
        witness = is_r_colorable(g, r)
        calls["uncolorable"] += g.order == 8 and witness is None
        return witness

    monkeypatch.setattr(search, "canon_rows", counted_canon)
    monkeypatch.setattr(search, "is_r_colorable", counted_colorable)
    rep = enumerate_extremal(CaseParams(8, 3, 1))
    assert rep.optimum == 20 and rep.exhaustive
    assert 0 < calls["canon"] <= calls["uncolorable"]


def test_leaf_step_walks_only_children_that_reach_the_incumbent(monkeypatch):
    # the leaf step tests the edge count before it builds a child, so the
    # book walk never sees an order-n child below the running incumbent;
    # with the walk first, (8,3,1) walked 12,493 order-8 children
    book_clique = search._book_clique
    for params in (CaseParams(8, 3, 1), CaseParams(8, 3, 2)):
        incumbent, walks = [0], [0]

        def recorded(rows, *args):
            if len(rows) == params.n:
                walks[0] += 1
                assert Graph(rows).edge_count() >= incumbent[0]
            return book_clique(rows, *args)

        def colorable(g, r):
            witness = is_r_colorable(g, r)
            if g.order == params.n and witness is None:
                incumbent[0] = g.edge_count()
            return witness

        monkeypatch.setattr(search, "_book_clique", recorded)
        monkeypatch.setattr(search, "is_r_colorable", colorable)
        rep = enumerate_extremal(params)
        assert rep.exhaustive and rep.optimum == 20
        assert 0 < walks[0] < 100, (params, walks[0])


def test_enumerate_truncation_inside_the_leaf_step_is_pinned():
    # limits that cut inside the last order: neighbourhoods whose child is
    # never built still tick, in the same order, so the cut lands on the
    # same node (14,034 and 18,683 nodes are the full runs)
    lines = [enumerate_extremal(CaseParams(8, 3, k),
                                SearchBudget(node_limit=limit)).format_line()
             for k, limit in ((1, 2000), (1, 14033), (1, 14034), (2, 18682))]
    assert lines == [
        "n=8 r=3 k=1 q=2 p=2 method=enumeration optimum=none classes=0"
        " nodes=2001 exhaustive=false",
        "n=8 r=3 k=1 q=2 p=2 method=enumeration optimum=none classes=0"
        " nodes=14034 exhaustive=false",
        "n=8 r=3 k=1 q=2 p=2 method=enumeration optimum=20 classes=1"
        " nodes=14034 exhaustive=true",
        "n=8 r=3 k=2 q=2 p=2 method=enumeration optimum=none classes=0"
        " nodes=18683 exhaustive=false",
    ]


def test_enumerate_budget_truncation_is_honest():
    with pytest.raises(BudgetExceeded):
        # internal sanity: the limit machinery actually raises
        from bookturan.search import _State
        st = _State(3)
        for _ in range(5):
            st.tick()
    rep = enumerate_extremal(CaseParams(7, 3, 1), SearchBudget(node_limit=50))
    assert not rep.exhaustive
    assert rep.optimum is None


def test_bb_agrees_with_enumeration():
    # at (7,3,2) and (8,3,2), a neighbourhood bound one below the exact M(P)
    # for every future vertex loses extremal classes
    rows = [(n, 3, k) for n in (4, 5, 6, 7, 8) for k in (1, 2)]
    for n, r, k in rows + [(7, 3, 3), (8, 3, 3), (8, 4, 3)]:
        params = CaseParams(n, r, k)
        enum = enumerate_extremal(params)
        bb = branch_bound_extremal(params)
        assert bb.exhaustive and enum.exhaustive
        assert bb.optimum == enum.optimum, (n, r, k)
        assert bb.extremal_canon == enum.extremal_canon, (n, r, k)


def test_bb_pruning_soundness():
    # the neighbourhood bound must not change any report content; enumeration
    # is one unit of the same walk, _unit, with no prune, leaf step included,
    # so it is the unpruned reference
    for n in (6, 7):
        for k in (1, 2):
            params = CaseParams(n, 3, k)
            pruned = branch_bound_extremal(params)
            unpruned = enumerate_extremal(params)
            assert pruned.optimum == unpruned.optimum
            assert pruned.extremal_canon == unpruned.extremal_canon
            assert pruned.nodes <= unpruned.nodes


def test_max_free_degree_matches_brute_force():
    # the bound against M(P) over every neighbourhood of every book-free
    # class of order <= 6, judged by the whole-graph book test; then
    # M(child) <= M(P) + 1 for every accepted child, a property of M the
    # search does not rely on but that any wrong brute force is likely to
    # break
    for r, k in ((3, 1), (3, 2), (4, 2), (3, 3), (4, 3)):
        truth: dict[tuple[int, ...], int] = {}
        for j in range(1, 7):
            for g in generate_graphs(j, (r, k)):
                m = max(len(comb) for t in range(j + 1)
                        for comb in combinations(range(j), t)
                        if contains_generalized_book(
                            Graph(_child_rows(g.rows, comb)), r, k) is None)
                truth[g.rows] = m
                assert _max_free_degree(g.rows, r, k) >= m, (r, k, g.rows)
        for prows, m in truth.items():
            if len(prows) < 6:
                for crows, _ in _children(prows, 0, (r, k), _State(None)):
                    assert truth[crows] <= m + 1, (r, k, prows, crows)


def test_dead_child_rule_skips_only_children_that_expand_to_nothing(
        monkeypatch):
    # random book-free canonical parents, each expanded by one order in a
    # work unit with a random incumbent.  _children must drop exactly the
    # children with 2t + 1 < need and keep the others in order, and every
    # extension the rule skips must give a child whose canonical form,
    # expanded as _unit's dfs expands it, ticks no node: below the leaf
    # parents with minpop from _max_free_degree and the Turan cap, at them
    # with local_inc - e
    children = search._children
    calls = []

    def recorded(prows, minpop, book, state, need=None):
        calls.append((minpop, need))
        return children(prows, minpop, book, state, need)

    monkeypatch.setattr(search, "_children", recorded)
    rnd = random.Random(30)
    skipped = {"inner": 0, "leaf": 0}
    for _ in range(400):
        r, k, j = rnd.choice((3, 4)), rnd.randint(1, 3), rnd.randint(2, 7)
        g = random_graph(rnd, j, rnd.random())
        if contains_generalized_book(g, r, k) is not None:
            continue
        prows, e = canon_rows(g.rows)[0], g.edge_count()
        n = j + rnd.randint(2, 4)
        inc = e + rnd.randint(0, j * (n - j) + (n - j) * (n - j - 1) // 2)
        calls.clear()
        found, _, completed = _unit((prows, e, j + 1, n, r, k, inc, None,
                                     True))
        [(minpop, need)] = calls
        everything = children(prows, minpop, (r, k), _State(None))
        kept = [(crows, t) for crows, t in everything if 2 * t + 1 >= need]
        assert list(found.items()) == [(crows, e + t) for crows, t in kept]
        assert completed
        for comb, t in _extensions(prows, minpop, _State(None)):
            if 2 * t + 1 >= need:
                continue
            crows = canon_rows(_child_rows(prows, comb))[0]
            rest = n - j - 2
            child_minpop = inc - e - t
            if rest:
                child_minpop -= (rest * (_max_free_degree(crows, r, k) + 1)
                                 + turan_edge_count(rest,
                                                    min(r + k - 1, rest)))
            state = _State(None)
            assert list(_extensions(crows, child_minpop, state)) == []
            assert state.nodes == 0
            skipped["inner" if rest else "leaf"] += 1
    assert min(skipped.values()) > 100, skipped


def test_dead_child_rule_changes_no_report(monkeypatch):
    # branch-and-bound with the look-ahead of _children against the walk
    # without it (need dropped): every report line, nodes= included, and
    # every extremal graph6 line must stay, complete or truncated, on one
    # worker and in a pool of two.  Without the rule the walk is the one
    # test_bb_deterministic_across_workers holds equal across workers
    rows = [(n, r, k) for r in (3, 4) for n in range(r + 1, 11)
            for k in (1, 2, 3)]
    rows += [(n, 5, k) for n in range(6, 10) for k in (1, 2, 3)]
    runs = [(CaseParams(*row), limit) for limit in (None, 50, 500)
            for row in rows if limit is None or row[0] <= 9]

    def reports(workers):
        out = []
        for params, limit in runs:
            rep = branch_bound_extremal(
                params, SearchBudget(node_limit=limit, workers=workers))
            out.append((rep.format_line(),
                         [encode_graph6(g) for g in rep.extremal]))
        return out

    _report_cpus(monkeypatch, 2)
    with_rule = [reports(1), reports(2)]
    children = search._children
    monkeypatch.setattr(
        search, "_children", lambda prows, minpop, book, state, need=None:
        children(prows, minpop, book, state))
    without_rule = reports(1)
    assert with_rule == [without_rule, without_rule]


def test_bb_incumbent_is_valid_and_certifies_lower_bound():
    params = CaseParams(9, 3, 2)
    value = ex_nonpartite_value(params)
    seeds = extremal_family_graphs(params, "theorem14")
    for g in seeds:
        assert is_nonpartite_book_free(g, 3, 2)
        assert g.edge_count() == value
    rep = branch_bound_extremal(params, SearchBudget(node_limit=200))
    assert rep.optimum is not None and rep.optimum >= value
    rep_full = branch_bound_extremal(params)
    assert rep_full.exhaustive and rep_full.optimum == 25


def test_bb_infeasible_below_r_plus_one():
    rep = branch_bound_extremal(CaseParams(3, 3, 1))
    assert rep.optimum is None and rep.exhaustive


def _report_cpus(monkeypatch, count):
    # the pool is capped at the usable CPUs, so a test that asks for more
    # workers than the host has must make the host report more
    monkeypatch.setattr(search.os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(search.os, "cpu_count", lambda: count)


def test_bb_deterministic_across_workers(monkeypatch):
    # a limit of 30 cuts inside the work units; at (9,3,2) the classes below
    # the split depth take 250 nodes, so it also checks that the limit is
    # per class there, not one budget for all of them
    started = []
    fork = search.get_context("fork")

    class SpyContext:
        def Pool(self, processes):
            started.append(processes)
            return fork.Pool(processes=processes)

    monkeypatch.setattr(search, "get_context", lambda method: SpyContext())
    _report_cpus(monkeypatch, 4)
    for params, node_limit in ((CaseParams(7, 3, 1), None),
                               (CaseParams(7, 3, 1), 30),
                               (CaseParams(9, 3, 2), 30)):
        reports = [branch_bound_extremal(
            params, SearchBudget(node_limit=node_limit, workers=w))
            for w in (1, 2, 4)]
        # equal values: same line, extremal order, canonical set and nodes
        assert reports[0] == reports[1] == reports[2]
        if node_limit is not None:
            # more nodes than one limit's worth: several units did run
            assert not reports[0].exhaustive
            assert reports[0].nodes > node_limit + 1
    # the "4" case really ran a pool of four processes
    assert started == [2, 4] * 3


def test_bb_pool_is_capped_at_usable_cpus(monkeypatch):
    # on a two-CPU process, eight workers start a pool of two; a pool of
    # one is no pool at all
    started = []
    fork = search.get_context("fork")

    class SpyContext:
        def Pool(self, processes):
            started.append(processes)
            return fork.Pool(processes=processes)

    monkeypatch.setattr(search, "get_context", lambda method: SpyContext())
    _report_cpus(monkeypatch, 2)
    params = CaseParams(7, 3, 1)
    capped = branch_bound_extremal(params, SearchBudget(workers=8))
    assert started == [2]
    assert capped == branch_bound_extremal(params)
    _report_cpus(monkeypatch, 1)
    assert branch_bound_extremal(params, SearchBudget(workers=8)) == capped
    assert started == [2]


def test_bb_k3_finding_is_pinned():
    # a certified finding: at (9,3,3) the exhaustive optimum is 29, above
    # the closed form 25.  The incumbent rises inside the work units here,
    # so nodes= depends on the order in which each parent's children are
    # searched.
    assert ex_nonpartite_value(CaseParams(9, 3, 3)) == 25
    for workers in (1, 2):
        rep = branch_bound_extremal(CaseParams(9, 3, 3),
                                    SearchBudget(workers=workers))
        assert rep.format_line() == (
            "n=9 r=3 k=3 q=3 p=0 method=branch_bound optimum=29 classes=1"
            " nodes=2986 exhaustive=true")
        assert [encode_graph6(g) for g in rep.extremal] == ["HLr~v~}"]


def test_family_optimizer_examples():
    rep11 = family_optimizer(11, 3)
    assert rep11.optimum == 38
    g3 = family_g3(CaseParams(11, 3))
    assert rep11.extremal_canon == {canonical_form(g) for g in g3}

    rep12 = family_optimizer(12, 3)
    assert rep12.optimum == 45
    pred = extremal_family_graphs(CaseParams(12, 3), "theorem1")
    assert rep12.extremal_canon == {canonical_form(g) for g in pred}

    rep8 = family_optimizer(8, 3)
    assert rep8.optimum == 20
    assert len(rep8.extremal) == 1
    assert is_isomorphic(rep8.extremal[0], join(c5_blowup((1, 1, 1, 1, 1)),
                                                empty_graph(3)))
    with pytest.raises(ValueError):
        family_optimizer(5, 3)


def test_family_optimizer_blowup_sweep_matches_brute_force():
    # cross-check the parabola-vertex profile optimizer against plain iteration
    from itertools import product
    from bookturan.constructions import blowup_edge_count, dihedral_profile
    from bookturan.search import _blowup_optimum
    for m in range(5, 26):
        best = -1
        winners = set()
        for prof in product(range(1, m + 1), repeat=4):
            last = m - sum(prof)
            if last < 1:
                continue
            full = prof + (last,)
            v = blowup_edge_count(full)
            if v > best:
                best = v
                winners = {dihedral_profile(full)}
            elif v == best:
                winners.add(dihedral_profile(full))
        opt, profiles = _blowup_optimum(m)
        assert opt == best, m
        assert set(profiles) == winners, m


def unrestricted_blowup_optimum(m):
    # the sweep over every profile (a, b, c, t, w - t), not only those whose
    # first part is largest: t ranges over 1..w - 1, and the integer
    # parabola in t peaks at clip(lin // 2, 1, w - 1) or the next integer
    best = -1
    winners = []
    for a in range(1, m - 3):
        for b in range(1, m - a - 2):
            for c in range(1, m - a - b - 1):
                w = m - a - b - c
                lin = c - a + w
                const = a * b + b * c + a * w
                t0 = min(max(lin // 2, 1), w - 1)
                for t in (t0, t0 + 1):
                    val = const + lin * t - t * t
                    if t >= w or val < best:
                        continue
                    if val > best:
                        best = val
                        winners = []
                    winners.append((a, b, c, t, w - t))
    return best, tuple(sorted({dihedral_profile(prof) for prof in winners}))


def test_blowup_sweep_over_largest_part_rotations_matches_full_sweep():
    # past the brute force's m = 25, up to beyond the m = 44 that verify
    # reaches at n = 45
    for m in range(5, 81):
        assert _blowup_optimum(m) == unrestricted_blowup_optimum(m), m


def test_family_optimizer_matches_joins_of_best_profiles():
    # the report as it was built before the sweep returned specs: join every
    # best profile of every best split with the balanced Turan graph, label
    # each join
    for r in range(3, 7):
        for n in range(r + 3, 41):
            splits = range(5, n - (r - 2) + 1)
            totals = {m: _blowup_optimum(m)[0] + turan_edge_count(n - m, r - 2)
                      + m * (n - m) for m in splits}
            best = max(totals.values())
            graphs = [join(c5_blowup(prof), turan_graph(n - m, r - 2))
                      for m in splits if totals[m] == best
                      for prof in _blowup_optimum(m)[1]]
            assert family_optimizer(n, r) == ExtremalReport(
                params=CaseParams(n, r), method="family_optimizer",
                optimum=best, extremal=tuple(dedup_by_isomorphism(graphs)),
                exhaustive=False, nodes=0), (n, r)



def all_splits_sweep(n, r):
    # the sweep before it was bounded: score every split, keep the best
    splits = range(5, n - (r - 2) + 1)
    totals = {m: _blowup_optimum(m)[0] + turan_edge_count(n - m, r - 2)
              + m * (n - m) for m in splits}
    best = max(totals.values())
    return best, [(prof, n - m) for m in splits if totals[m] == best
                  for prof in _blowup_optimum(m)[1]]


def test_family_sweep_bounded_by_mantel_matches_all_splits(monkeypatch):
    # the same (best, specs) as scoring every split, list order included,
    # from exactly the splits whose bound m^2 / 4 + e(T_{r-2}(n - m))
    # + m(n - m) reaches the optimum; 131 of these rows have a split whose
    # bound equals the optimum, so a lowered bound or a stop at a tie
    # scores fewer
    computed = set()

    def counted(m):
        computed.add(m)
        return _blowup_optimum(m)

    monkeypatch.setattr(search, "_blowup_optimum", counted)
    for r in range(3, 7):
        for n in list(range(r + 3, 81)) + list(range(81, 151, 7)):
            computed.clear()
            best, specs = _family_sweep(n, r)
            assert (best, specs) == all_splits_sweep(n, r), (n, r)
            assert computed == {
                m for m in range(5, n - (r - 2) + 1)
                if m * m // 4 + turan_edge_count(n - m, r - 2) + m * (n - m)
                >= best}, (n, r)


def test_blowup_optimum_lies_between_seed_and_mantel():
    # a pentagon blow-up is triangle-free, so Mantel's m^2 / 4 bounds it;
    # the profile (x, m - 3 - x, 1, 1, 1) that seeds the sweep attains
    # x(m - 3 - x) + m - 1, and the optimum is attained
    for m in range(5, 201):
        x = (m - 2) // 2
        seed = (x, m - 3 - x, 1, 1, 1)
        assert blowup_edge_count(seed) == x * (m - 3 - x) + m - 1
        opt, profiles = _blowup_optimum(m)
        assert blowup_edge_count(seed) <= opt <= m * m // 4, m
        assert profiles, m
        assert all(sum(prof) == m and blowup_edge_count(prof) == opt
                   for prof in profiles), m


def test_verify_scores_only_splits_near_the_optimum(monkeypatch):
    # a deterministic work count: scoring every split would compute the
    # blow-up optimum up to m = 118 for this range
    computed = []

    def counted(m):
        computed.append(m)
        return _blowup_optimum(m)

    monkeypatch.setattr(search, "_blowup_optimum", counted)
    rows = verify_theorem(5, 2, 11, 120, "theorem14")
    assert all(rec.verdict == "AGREE" for rec in rows)
    assert max(computed) < 60

def test_turan_partition_is_the_only_multipartite_maximizer():
    # family_optimizer takes the join part straight from Turan's theorem;
    # check that claim against every partition of w into exactly `parts`
    def partitions(w, parts, cap):
        if parts == 1:
            if 1 <= w <= cap:
                yield (w,)
            return
        for x in range(min(cap, w - parts + 1), 0, -1):
            for rest in partitions(w - x, parts - 1, x):
                yield (x,) + rest

    assert sum(1 for parts in range(1, 21)
               for _ in partitions(20, parts, 20)) == 627  # p(20)
    for w in range(1, 21):
        for parts in range(1, min(w, 6) + 1):
            edges = {p: (w * w - sum(t * t for t in p)) // 2
                     for p in partitions(w, parts, w)}
            best = max(edges.values())
            assert best == turan_edge_count(w, parts), (w, parts)
            assert [p for p, e in edges.items() if e == best] == \
                [turan_part_sizes(w, parts)], (w, parts)


def test_verify_rows_agree_small():
    rows = verify_theorem(3, 1, 7, 8, mode="theorem14")
    assert [r.verdict for r in rows] == ["AGREE", "AGREE"]
    assert [r.formula for r in rows] == [15, 20]
    assert [r.oracle for r in rows] == [15, 20]
    assert all("exhaustive=true" in r.format_line() for r in rows)


def test_verify_boundary_row_recorded_not_hidden():
    rows = verify_theorem(3, 1, 6, 6, mode="theorem14")
    row = rows[0]
    assert row.formula == 11
    assert row.family_opt == 10
    assert row.oracle == 10
    assert row.verdict == "DISAGREE"
    line = row.format_line()
    assert "formula=11" in line and "family_opt=10" in line and "oracle=10" in line


def test_verify_family_optimizer_only_rows():
    rows = verify_theorem(4, 1, 40, 44, mode="theorem1")
    assert all(r.verdict == "AGREE" for r in rows)
    assert all(r.oracle is None for r in rows)
    assert all("oracle=- exhaustive=-" in r.format_line() for r in rows)


def test_verify_r6_small_quotient_rows_are_pinned():
    # findings, not failures: for r = 6 the theorem14 closed form overshoots
    # the family optimizer up to n = 12 and agrees from n = 13 on
    lines = [rec.format_line()
             for rec in verify_theorem(6, 1, 9, 20, mode="theorem14")]
    assert lines[:4] == [
        "n=9 r=6 k=1 q=1 p=3 formula=33 family_opt=31"
        " oracle=- exhaustive=- verdict=DISAGREE",
        "n=10 r=6 k=1 q=1 p=4 formula=41 family_opt=39"
        " oracle=- exhaustive=- verdict=DISAGREE",
        "n=11 r=6 k=1 q=1 p=5 formula=50 family_opt=48"
        " oracle=- exhaustive=- verdict=DISAGREE",
        "n=12 r=6 k=1 q=2 p=0 formula=59 family_opt=58"
        " oracle=- exhaustive=- verdict=DISAGREE",
    ]
    assert len(lines) == 12
    assert all(line.endswith("verdict=AGREE") for line in lines[4:])


def test_verify_lines_are_pinned():
    # sha256 of the lines as they were before verify labelled each class
    # once: the bench rows, theorem1 rows, and the oracle rows at n <= 8
    ranges = ([(r, 2, 9, 45, "theorem14") for r in (3, 4, 5)]
              + [(r, 1, 3 * r, 30, "theorem1") for r in (3, 4, 5)]
              + [(3, k, 6, 8, "theorem14") for k in (1, 2, 3)])
    lines = [rec.format_line() for args in ranges
             for rec in verify_theorem(*args)]
    assert len(lines) == 3 * 37 + 22 + 19 + 16 + 3 * 3
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "eddd7868b680c5a2aafb691763230594f80011353e7324718ddd3626471c4428")


def quotient_key(rows):
    """(quotient rows, ordered colour cells) of rows' coloured twin
    quotient, built as _twin_form describes it: one vertex per twin class
    in order of lowest vertex, coloured by (size, clique), cells sorted by
    colour."""
    classes = list(dict.fromkeys(_twin_classes(rows)))
    low = [rows[(c & -c).bit_length() - 1] for c in classes]
    colours = [(c.bit_count(), bool(row & c)) for c, row in zip(classes, low)]
    qrows = tuple(sum(1 << j for j, d in enumerate(classes)
                      if d != c and row & d) for c, row in zip(classes, low))
    cells = tuple(tuple(i for i, col in enumerate(colours) if col == want)
                  for want in sorted(set(colours)))
    return qrows, cells


def test_verify_labels_each_class_once(monkeypatch):
    # per row, the classes of the family optimizer and of the named
    # families, as the public functions find them
    classes = {}
    for n in range(9, 21):
        fam = family_optimizer(n, 3).extremal_canon
        named = {canonical_form(g) for g in
                 extremal_family_graphs(CaseParams(n, 3, 2), "theorem14")}
        classes[n] = len(fam | named)
    # verify keys each class by its spec's quotient form, per row (the
    # order of the rows it is given), never builds a member, and labels
    # each distinct coloured quotient once in the call
    calls = {}
    quotients = set()
    labelled = []

    def counted_form(spec, r, memo):
        n = sum(spec[0]) + spec[1]
        calls[n] = calls.get(n, 0) + 1
        quotients.add(quotient_key(_c5_join(*spec, r).rows))
        return _spec_form(spec, r, memo)

    def counted_canon(rows, root=None):
        labelled.append(len(rows))
        return canon_rows(rows, root)

    def no_member(*args):
        raise AssertionError("verify built a family member")

    # the names verify keys and builds through, and the one the quotient
    # form labels through
    monkeypatch.setattr(search, "_spec_form", counted_form)
    monkeypatch.setattr(search, "_c5_join", no_member)
    monkeypatch.setattr(canon_module, "canon_rows", counted_canon)
    rows = verify_theorem(3, 2, 9, 20, "theorem14")
    assert all(rec.verdict == "AGREE" for rec in rows)
    assert calls == classes
    assert len(quotients) == 8
    assert len(labelled) == len(quotients)


def test_spec_form_is_the_twin_form_of_the_member():
    # every spec verify keys, in both modes where the case table is
    # defined: the key, and the labelling it stores, are those of the
    # built member
    merged = 0
    for r in range(3, 9):
        for n in range(r + 3, 61):
            params = CaseParams(n, r)
            specs = (_family_sweep(n, r)[1]
                     + _family_specs(params, "theorem14"))
            if n >= 3 * r:  # where theorem1's case table starts
                specs += _family_specs(params, "theorem1")
            for spec in dict.fromkeys(specs):
                from_spec, from_rows = {}, {}
                key = _spec_form(spec, r, from_spec)
                assert key == _twin_form(_c5_join(*spec, r).rows, from_rows)
                assert from_spec == from_rows
                # only merged singleton Turan parts are a clique class
                merged += any(clique for _, clique in key[0])
    # q = 1 rows: T_{r-2}(n - 5) has singleton parts that form one closed
    # class, as at r = 5, n = 9 (parts 2, 1, 1)
    assert _spec_form(((1, 1, 1, 1, 1), 4), 5, {})[0] == (
        (1, False),) * 5 + ((2, False), (2, True))
    assert merged > 0


def test_verify_carries_no_state_across_calls():
    # the labelled quotients are kept per call: a call in between, at
    # another r, changes nothing in a repeated call
    first = [rec.format_line() for rec in verify_theorem(5, 2, 9, 45,
                                                         "theorem14")]
    verify_theorem(3, 2, 9, 20, "theorem14")
    again = [rec.format_line() for rec in verify_theorem(5, 2, 9, 45,
                                                         "theorem14")]
    assert again == first
    assert len(first) == 37


def test_verify_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_theorem(3, 1, 9, 8)


def test_extremal_report_members_satisfy_invariants():
    for params, rep in [
        (CaseParams(7, 3, 1), enumerate_extremal(CaseParams(7, 3, 1))),
        (CaseParams(9, 3, 2), branch_bound_extremal(CaseParams(9, 3, 2))),
        (CaseParams(11, 3, 2), family_optimizer(11, 3)),
    ]:
        assert rep.optimum is not None
        for g in rep.extremal:
            assert canonical_form(g) == pack_rows(g.rows)
            assert g.order == params.n
            assert g.edge_count() == rep.optimum
            assert is_nonpartite_book_free(g, params.r, params.k)


def test_report_line_shape():
    rep = enumerate_extremal(CaseParams(6, 3, 1))
    line = rep.format_line()
    for key in ("n=", "r=", "k=", "q=", "p=", "method=", "optimum=",
                "classes=", "nodes=", "exhaustive="):
        assert key in line
    # exact lines, nodes= included: generation changes must keep these bytes
    # unless a new pruning rule changes the node count on purpose
    assert enumerate_extremal(CaseParams(7, 3, 1)).format_line() == (
        "n=7 r=3 k=1 q=2 p=1 method=enumeration optimum=15 classes=1"
        " nodes=1541 exhaustive=true")
    assert branch_bound_extremal(CaseParams(9, 3, 2)).format_line() == (
        "n=9 r=3 k=2 q=3 p=0 method=branch_bound optimum=25 classes=2"
        " nodes=1498 exhaustive=true")
    # the bench rows
    assert enumerate_extremal(CaseParams(8, 3, 1)).format_line() == (
        "n=8 r=3 k=1 q=2 p=2 method=enumeration optimum=20 classes=1"
        " nodes=14034 exhaustive=true")
    assert branch_bound_extremal(CaseParams(10, 3, 2)).format_line() == (
        "n=10 r=3 k=2 q=3 p=1 method=branch_bound optimum=31 classes=2"
        " nodes=5330 exhaustive=true")
    assert branch_bound_extremal(CaseParams(11, 3, 2)).format_line() == (
        "n=11 r=3 k=2 q=3 p=2 method=branch_bound optimum=38 classes=1"
        " nodes=20427 exhaustive=true")
