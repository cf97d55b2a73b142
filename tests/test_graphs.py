import random

import pytest

from bookturan.graphs import (Graph, add_edge, empty_graph, from_edges, join,
                              relabel, remove_edge)


def random_graph(rnd, n, p=0.5):
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rnd.random() < p])


C5_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]


def test_empty_graph():
    assert empty_graph(0).order == 0
    g = empty_graph(5)
    assert g.order == 5 and g.edge_count() == 0
    assert all(row.bit_count() == 0 for row in g.rows)
    with pytest.raises(ValueError):
        empty_graph(-1)


def test_add_edge():
    k2 = add_edge(empty_graph(2), 0, 1)
    assert k2.edge_count() == 1
    assert add_edge(k2, 0, 1) == k2  # idempotent
    assert add_edge(k2, 1, 0) == k2
    with pytest.raises(ValueError):
        add_edge(empty_graph(3), 0, 0)
    with pytest.raises(ValueError):
        add_edge(empty_graph(3), 0, 3)


def test_remove_edge():
    k2 = from_edges(2, [(0, 1)])
    assert remove_edge(k2, 0, 1).edge_count() == 0
    assert remove_edge(k2, 0, 1) == remove_edge(remove_edge(k2, 0, 1), 0, 1)


def test_edge_count_equals_half_degree_sum():
    rnd = random.Random(7)
    for _ in range(50):
        g = random_graph(rnd, rnd.randrange(0, 15))
        assert 2 * g.edge_count() == sum(row.bit_count() for row in g.rows)


def test_join_identities():
    k1 = empty_graph(1)
    assert join(k1, k1).edge_count() == 1
    c5 = from_edges(5, C5_EDGES)
    assert join(c5, empty_graph(0)) == c5
    k33 = from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
    j = join(c5, k33)
    assert j.order == 11
    assert j.edge_count() == 5 + 9 + 30


def test_join_edge_identity_random():
    rnd = random.Random(42)
    for _ in range(60):
        g1 = random_graph(rnd, rnd.randrange(0, 21))
        g2 = random_graph(rnd, rnd.randrange(0, 21))
        j = join(g1, g2)
        assert j.order == g1.order + g2.order
        assert j.edge_count() == g1.edge_count() + g2.edge_count() + g1.order * g2.order
        j.validate()
        # side labelling: g1 keeps its labels, g2 is shifted
        n1 = g1.order
        assert tuple(row & (1 << n1) - 1 for row in j.rows[:n1]) == g1.rows
        assert tuple(row >> n1 for row in j.rows[n1:]) == g2.rows


def test_relabel_round_trip():
    rnd = random.Random(3)
    for _ in range(30):
        g = random_graph(rnd, rnd.randrange(1, 12))
        perm = list(range(g.order))
        rnd.shuffle(perm)
        h = relabel(g, perm)
        inv = [0] * g.order
        for old, new in enumerate(perm):
            inv[new] = old
        assert relabel(h, inv) == g
        assert h.edge_count() == g.edge_count()


def test_validate_rejects_bad_rows():
    with pytest.raises(ValueError):
        Graph((1, 0)).validate()  # asymmetric
    with pytest.raises(ValueError):
        Graph((1,)).validate()  # loop
