import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from bookturan.graph6 import Graph6Error, decode_graph6, encode_graph6
from bookturan.graphs import from_edges, empty_graph

from test_graphs import random_graph


def test_k2_is_hand_derived_value():
    # order field: 2 -> chr(65) = 'A'; single adjacency bit 1 padded to
    # 100000 = 32 -> chr(95) = '_'
    k2 = from_edges(2, [(0, 1)])
    assert encode_graph6(k2) == "A_"
    assert decode_graph6("A_") == k2
    assert encode_graph6(decode_graph6("A_")) == "A_"


def test_small_cases():
    assert encode_graph6(empty_graph(0)) == "?"
    assert decode_graph6("?") == empty_graph(0)
    c5 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert decode_graph6(encode_graph6(c5)) == c5


def test_round_trip_random():
    rnd = random.Random(2024)
    for _ in range(2000):
        g = random_graph(rnd, rnd.randrange(0, 33), rnd.random())
        line = encode_graph6(g)
        assert decode_graph6(line) == g


def test_round_trip_long_order_forms():
    rnd = random.Random(5)
    g = random_graph(rnd, 70, 0.1)  # forces the 18-bit order field
    assert decode_graph6(encode_graph6(g)) == g


def test_matches_networkx():
    rnd = random.Random(99)
    for _ in range(300):
        g = random_graph(rnd, rnd.randrange(1, 24), rnd.random())
        ours = encode_graph6(g)
        h = nx.Graph()
        h.add_nodes_from(range(g.order))
        h.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert ours == theirs
        back = nx.from_graph6_bytes(ours.encode())
        assert set(back.edges()) == {tuple(e) for e in g.edges()}


def test_header_and_newline_tolerated():
    k2 = from_edges(2, [(0, 1)])
    assert decode_graph6(">>graph6<<A_") == k2
    assert decode_graph6("A_\n") == k2
    assert decode_graph6(b"A_\n") == k2


def test_decode_errors_name_offset():
    with pytest.raises(Graph6Error, match="offset"):
        decode_graph6("A_garbage")
    with pytest.raises(Graph6Error, match="offset 1"):
        decode_graph6("A\x19")
    with pytest.raises(Graph6Error, match="offset"):
        decode_graph6("B")  # truncated: order 3 needs one adjacency byte
    with pytest.raises(Graph6Error, match="offset"):
        decode_graph6("")
    with pytest.raises(Graph6Error, match="padding"):
        # order 2: only the top bit of the data byte is meaningful
        decode_graph6("A" + chr(63 + 0b010000))


GRAPH6_CHARS = st.characters(min_codepoint=63, max_codepoint=126)


def _sized_line(n):
    # an order byte followed by exactly the data bytes that order needs
    need = (n * (n - 1) // 2 + 5) // 6
    return st.text(GRAPH6_CHARS, min_size=need, max_size=need).map(
        lambda data: chr(63 + n) + data)


@settings(derandomize=True, database=None, max_examples=600)
@given(st.one_of(
    st.binary(max_size=40), st.text(max_size=40),
    st.tuples(st.sampled_from(["", ">>graph6<<"]),
              st.one_of(st.text(GRAPH6_CHARS, max_size=40),
                        st.integers(0, 20).flatmap(_sized_line)),
              st.sampled_from(["", "\n", "\r\n"])).map("".join)))
def test_decoder_raises_only_graph6_error(line):
    # arbitrary bytes and text, plus lines over the graph6 alphabet, some
    # sized to their order field so that whole graphs decode as well
    try:
        g = decode_graph6(line)
    except Graph6Error:
        return
    g.validate()
