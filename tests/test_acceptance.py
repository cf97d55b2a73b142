"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every assertion is exact (no tolerances anywhere in this problem).
"""

import random

from bookturan.canon import canonical_form, is_isomorphic, pack_rows
from bookturan.checkers import (contains_clique, contains_generalized_book,
                                contains_subgraph, chromatic_number,
                                is_nonpartite_book_free)
from bookturan.cli import main as cli_main
from bookturan.constructions import (c5_blowup, extremal_family_graphs,
                                     family_c5_join, generalized_book)
from bookturan.formulas import (CaseParams, ex_nonpartite_value,
                                intersection_lower_bound, turan_sandwich_holds)
from bookturan.graph6 import decode_graph6, encode_graph6
from bookturan.graphs import empty_graph, join, relabel
from bookturan.search import (SearchBudget, branch_bound_extremal,
                              enumerate_extremal, family_optimizer,
                              generate_graphs, verify_theorem)

from test_graphs import random_graph
from test_search import _report_cpus


def _report(criterion, detail):
    print(f"ACCEPTANCE criterion {criterion}: PASS — {detail}")


def test_criterion_1_formula_construction_agreement():
    pairs = 0
    members = 0
    for r in (3, 4, 5):
        for n in range(3 * r, 61):  # q >= 3
            params = CaseParams(n, r)
            value = ex_nonpartite_value(params)
            family = extremal_family_graphs(params, mode="theorem1")
            assert family, (n, r)
            for g in family:
                assert g.order == n, (n, r)
                assert g.edge_count() == value, (n, r)
                assert chromatic_number(g) == r + 1, (n, r)
                assert contains_clique(g, r + 1) is None, (n, r)
            pairs += 1
            members += len(family)
    _report(1, f"{members} family members over {pairs} (n, r) pairs, exact")


def test_criterion_2_family_optimizer_matches_case_table():
    pairs = 0
    for r in (3, 4, 5):
        for n in range(r + 3, 61):
            params = CaseParams(n, r)
            rep = family_optimizer(n, r)
            predicted = extremal_family_graphs(params, mode="theorem14")
            assert rep.extremal_canon == frozenset(
                pack_rows(g.rows) for g in predicted), (n, r)
            pairs += 1
    _report(2, f"maximizer sets equal the case table on {pairs} (n, r) pairs")


def test_criterion_3_small_n_enumeration():
    rep7 = enumerate_extremal(CaseParams(7, 3, 1))
    assert rep7.exhaustive and rep7.optimum == 15
    assert len(rep7.extremal) == 1
    assert is_isomorphic(rep7.extremal[0],
                         join(c5_blowup((1, 1, 1, 1, 1)), empty_graph(2)))

    rep8 = enumerate_extremal(CaseParams(8, 3, 1))
    assert rep8.exhaustive and rep8.optimum == 20
    assert len(rep8.extremal) == 1
    assert is_isomorphic(rep8.extremal[0],
                         join(c5_blowup((1, 1, 1, 1, 1)), empty_graph(3)))

    # both rows have q = 2, where the theorem14 table names the single
    # small-quotient family C5 v T_1(n - 5)
    for rep in (rep7, rep8):
        named = family_c5_join(rep.params)
        assert [canonical_form(g) for g in named] == [
            pack_rows(g.rows) for g in rep.extremal]
    _report(3, "enumeration reproduces 15 and 20 with the unique join classes,"
               " the named small-quotient family")


def test_criterion_4_boundary_row_is_reported():
    rows = verify_theorem(3, 1, 6, 6, mode="theorem14")
    assert len(rows) == 1
    row = rows[0]
    assert row.formula == 11          # the closed form at the boundary
    assert row.family_opt == 10       # what the constructions actually give
    assert row.oracle == 10           # the enumeration adjudicates
    assert row.verdict == "DISAGREE"  # recorded, not hidden, not fatal
    line = row.format_line()
    for field in ("n=6", "formula=11", "family_opt=10", "oracle=10",
                  "exhaustive=true", "verdict=DISAGREE"):
        assert field in line
    _report(4, f"boundary row recorded: {line}")


def test_criterion_5_book_checker_oracle_equivalence():
    classes = 0
    for n in range(1, 7):
        for g in generate_graphs(n):
            classes += 1
            for r, k in ((3, 1), (3, 2), (4, 1)):
                direct = contains_generalized_book(g, r, k) is not None
                generic = contains_subgraph(g, generalized_book(r, k)) is not None
                assert direct == generic, (n, r, k)
    assert classes == 1 + 2 + 4 + 11 + 34 + 156
    _report(5, f"checkers agree on all {classes} classes of order <= 6")


def test_criterion_6_branch_bound_certifies_at_desk_scale():
    details = []
    for n in (9, 10, 11):
        params = CaseParams(n, 3, 2)
        value = ex_nonpartite_value(params)
        seeds = extremal_family_graphs(params, mode="theorem14")
        # hard assertions: incumbent validity and the certified lower bound
        for g in seeds:
            assert is_nonpartite_book_free(g, 3, 2)
            assert g.edge_count() == value
        rep = branch_bound_extremal(params, SearchBudget(workers=2))
        assert rep.optimum is not None and rep.optimum >= value
        # recorded comparison for completed runs
        if rep.exhaustive:
            predicted = frozenset(pack_rows(g.rows) for g in seeds)
            assert rep.optimum == value, n
            assert rep.extremal_canon == predicted, n
            details.append(f"n={n} optimum={rep.optimum} exhaustive")
        else:
            details.append(f"n={n} lower_bound={rep.optimum} truncated")
    _report(6, "; ".join(details))


def test_criterion_7_infrastructure_invariants():
    rnd = random.Random(20240801)

    for _ in range(10_000):
        g = random_graph(rnd, rnd.randrange(0, 33), rnd.random())
        assert decode_graph6(encode_graph6(g)) == g

    for _ in range(1_000):
        g = random_graph(rnd, rnd.randrange(1, 13), rnd.random())
        perm = list(range(g.order))
        rnd.shuffle(perm)
        assert canonical_form(g) == canonical_form(relabel(g, perm))

    counts = [len(generate_graphs(n)) for n in range(1, 8)]
    assert counts == [1, 2, 4, 11, 34, 156, 1044]

    for r in range(2, 13):
        for n in range(r, 501):
            assert turan_sandwich_holds(n, r)

    for _ in range(10_000):
        t = rnd.randrange(1, 7)
        universe = rnd.randrange(1, 21)
        sets = [{v for v in range(universe) if rnd.random() < 0.5}
                for _ in range(t)]
        bound = intersection_lower_bound([len(s) for s in sets],
                                         len(set.union(*sets)))
        assert len(set.intersection(*sets)) >= bound

    _report(7, "graph6 round trips, canon invariance, class counts, "
               "sandwich bounds and intersection bounds all exact")


def test_criterion_8_search_determinism(capsys, monkeypatch):
    # four CPUs, so that four workers run four processes on any host
    _report_cpus(monkeypatch, 4)
    for n, r, k in ((7, 3, 1), (9, 3, 2)):
        outputs = set()
        for workers in ("1", "2", "4"):
            code = cli_main(["search", "--n", str(n), "--r", str(r),
                             "--k", str(k), "--method", "bb",
                             "--workers", workers])
            captured = capsys.readouterr()
            assert code == 0
            outputs.add(captured.out)
        assert len(outputs) == 1, (n, r, k)
    with capsys.disabled():
        _report(8, "byte-identical reports for workers 1, 2, 4 on both instances")
