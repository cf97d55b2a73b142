import random

import pytest

from bookturan.canon import dedup_by_isomorphism, is_isomorphic
from bookturan.checkers import chromatic_number, contains_clique
from bookturan.constructions import (blowup_edge_count, c5_blowup,
                                     complete_multipartite, dihedral_profile,
                                     extremal_family_graphs, family_c5_1,
                                     family_c5_2, family_c5_3, family_c5_join,
                                     family_g1, family_g2, family_g3,
                                     generalized_book, near_complete_ks,
                                     turan_graph, turan_part_sizes)
from bookturan.formulas import (FAMILY_C5_JOIN, FAMILY_G1, FAMILY_G2,
                                FAMILY_G3, CaseParams, ex_nonpartite_value,
                                extremal_case)
from bookturan.graphs import empty_graph, join


def test_complete_multipartite():
    assert complete_multipartite((2, 2, 2)).edge_count() == 12
    assert complete_multipartite((7,)).edge_count() == 0
    assert complete_multipartite((4, 3, 3)).edge_count() == 33
    g = complete_multipartite((2, 3))
    assert not g.has_edge(0, 1) and g.has_edge(0, 2)
    with pytest.raises(ValueError):
        complete_multipartite((2, 0, 1))


def test_turan_graph():
    assert is_isomorphic(turan_graph(9, 3), complete_multipartite((3, 3, 3)))
    assert turan_graph(5, 1).edge_count() == 0
    assert turan_graph(10, 3).edge_count() == 33
    assert turan_part_sizes(10, 3) == (4, 3, 3)  # ceilings first
    assert turan_part_sizes(7, 3) == (3, 2, 2)
    with pytest.raises(ValueError):
        turan_graph(3, 4)


def test_c5_blowup_counts():
    assert c5_blowup((1, 1, 1, 1, 1)).edge_count() == 5
    assert c5_blowup((2, 1, 1, 1, 2)).edge_count() == 10
    for t in (1, 2, 3):
        assert c5_blowup((2, t, 1, 1, 4 - t)).edge_count() == 13
    assert c5_blowup((0, 1, 1, 1, 1)).edge_count() == 3  # degenerate part allowed
    with pytest.raises(ValueError):
        c5_blowup((1, 1, 1, 1))
    with pytest.raises(ValueError):
        c5_blowup((1, 1, -1, 1, 1))


def test_blowup_edge_identity_random():
    rnd = random.Random(31)
    for _ in range(1000):
        prof = tuple(rnd.randrange(0, 7) for _ in range(5))
        a, b, c, d, e = prof
        expect = a * b + b * c + c * d + d * e + e * a
        assert blowup_edge_count(prof) == expect
        assert c5_blowup(prof).edge_count() == expect


def test_blowup_dihedral_invariance():
    rnd = random.Random(32)
    for _ in range(300):
        prof = tuple(rnd.randrange(1, 6) for _ in range(5))
        rot = prof[1:] + prof[:1]
        refl = prof[::-1]
        assert is_isomorphic(c5_blowup(prof), c5_blowup(rot))
        assert is_isomorphic(c5_blowup(prof), c5_blowup(refl))
        assert dihedral_profile(prof) == dihedral_profile(rot) == dihedral_profile(refl)


def test_c5_families():
    assert len(family_c5_3(5)) == 1
    assert is_isomorphic(family_c5_3(5)[0], c5_blowup((1, 1, 1, 1, 1)))
    raw = family_c5_1(8)
    assert len(raw) == 3 and all(g.edge_count() == 13 for g in raw)
    # t=1 and t=3 are reflections
    assert len(dedup_by_isomorphism(family_c5_1(8))) == 2
    # the two raw members are rotations
    assert len(dedup_by_isomorphism(family_c5_3(7))) == 1
    assert len(family_c5_2(8)) == 2
    for bad in (7, 4):
        with pytest.raises(ValueError):
            family_c5_1(bad)
        with pytest.raises(ValueError):
            family_c5_2(bad)
    with pytest.raises(ValueError):
        family_c5_3(6)
    with pytest.raises(ValueError):
        family_c5_3(3)


def test_g_families_examples():
    g3 = dedup_by_isomorphism(family_g3(CaseParams(11, 3)))
    assert len(g3) == 1 and g3[0].edge_count() == 38
    assert is_isomorphic(g3[0], join(c5_blowup((2, 1, 1, 1, 2)), empty_graph(4)))

    g2 = family_g2(CaseParams(12, 3))
    assert {g.edge_count() for g in g2} == {45}
    assert all(g.order == 12 for g in g2)

    g1 = family_g1(CaseParams(9, 3))
    assert len(g1) == 1 and g1[0].edge_count() == 25
    assert is_isomorphic(g1[0], join(c5_blowup((1, 1, 1, 1, 1)), empty_graph(4)))

    # q = 2 keeps G3 well defined (its blow-up family lives on 2q+1 = 5
    # vertices); G1 and G2 need q >= 3, and G3 dies at q = 1
    g3_q2 = family_g3(CaseParams(7, 3))
    assert len(g3_q2) == 1 and g3_q2[0].edge_count() == 15
    with pytest.raises(ValueError, match="q >= 3"):
        family_g1(CaseParams(8, 3))
    with pytest.raises(ValueError, match="q >= 3"):
        family_g2(CaseParams(8, 3))
    with pytest.raises(ValueError, match="q >= 2"):
        family_g3(CaseParams(5, 3))


def test_family_members_match_formula_and_are_clique_free():
    # moderate sweep; the acceptance suite covers the full range
    for r in (3, 4, 5):
        for n in range(3 * r, 3 * r + 8):
            params = CaseParams(n, r)
            value = ex_nonpartite_value(params)
            members = extremal_family_graphs(params, "theorem1")
            assert members, (n, r)
            for g in members:
                assert g.order == n
                assert g.edge_count() == value
                assert contains_clique(g, r + 1) is None
                assert chromatic_number(g) == r + 1


def test_named_family_dedup_matches_raw_member_dedup():
    # the definition before specs: label every raw member of every named
    # family, then keep one class each.  The spec dedup must give the same
    # list, order included.  The members depend on n, r and the families
    # named, not on k or the mode, so each reference is computed once
    builders = {FAMILY_G1: family_g1, FAMILY_G2: family_g2,
                FAMILY_G3: family_g3, FAMILY_C5_JOIN: family_c5_join}
    reference = {}
    rows = 0
    for r in range(3, 7):
        for k in (1, 2, 3):
            for mode in ("theorem1", "theorem14"):
                first = 3 * r if mode == "theorem1" else r + 3
                for n in range(first, 41):
                    params = CaseParams(n, r, k)
                    tags = extremal_case(params, mode).families
                    if (n, r, tags) not in reference:
                        reference[n, r, tags] = dedup_by_isomorphism(
                            [g for tag in tags for g in builders[tag](params)])
                    assert extremal_family_graphs(params, mode) == \
                        reference[n, r, tags], (n, r, k, mode)
                    rows += 1
    assert rows == 3 * (32 + 29 + 26 + 23 + 35 + 34 + 33 + 32)


def test_small_q_family():
    fam = family_c5_join(CaseParams(8, 3))
    assert len(fam) == 1 and fam[0].edge_count() == 20
    assert is_isomorphic(family_c5_join(CaseParams(5, 3, 1))[0],
                         c5_blowup((1, 1, 1, 1, 1)))


def test_generalized_book():
    assert is_isomorphic(generalized_book(3, 1), complete_multipartite((1, 1, 1, 1)))
    b32 = generalized_book(3, 2)
    assert b32.order == 5 and b32.edge_count() == 9
    b43 = generalized_book(4, 3)
    assert b43.order == 7 and b43.edge_count() == 18
    with pytest.raises(ValueError):
        generalized_book(1, 1)
    with pytest.raises(ValueError):
        generalized_book(3, 0)


def test_near_complete_ks_identity():
    # the single-shifted-edge graph is a blow-up joined with the other parts
    cases = [((2, 2, 2), 1), ((4, 4, 4), 2), ((3, 4, 2), 0), ((3, 4, 2), 4),
             ((5, 3, 4, 2), 2), ((2, 5, 3), 3), ((4, 5, 3, 2, 2), 1)]
    for parts, s in cases:
        g = near_complete_ks(parts, s)
        rest = parts[2:]
        core = c5_blowup((parts[0] - 2, s, 1, 1, parts[1] - s))
        expect = join(core, complete_multipartite(rest)) if rest else core
        assert is_isomorphic(g, expect), (parts, s)
    with pytest.raises(ValueError):
        near_complete_ks((3, 3), 1)  # needs at least 3 parts
    with pytest.raises(ValueError):
        near_complete_ks((1, 3, 3), 1)
    with pytest.raises(ValueError):
        near_complete_ks((3, 3, 3), 4)


def test_near_complete_ks_exhaustive_small_parts():
    # every 3-part shape with parts <= 5, plus a spread of wider shapes
    specs = [(a, b, c) for a in range(2, 6) for b in range(1, 6)
             for c in range(1, 6)]
    specs += [(3, 3, 2, 2), (2, 4, 1, 3), (4, 2, 3, 1, 2), (5, 5, 5, 5)]
    for parts in specs:
        for s in range(parts[1] + 1):
            g = near_complete_ks(parts, s)
            core = c5_blowup((parts[0] - 2, s, 1, 1, parts[1] - s))
            expect = join(core, complete_multipartite(parts[2:]))
            assert is_isomorphic(g, expect), (parts, s)
