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


def reference_decode(line):
    """Per-bit decoder of a valid header-free graph6 line: the column-major
    upper triangle read one bit at a time."""
    vals = [ord(ch) - 63 for ch in line]
    if vals[0] != 63:
        n, pos = vals[0], 1
    else:
        n, pos = vals[1] << 12 | vals[2] << 6 | vals[3], 4
    bits = [v >> s & 1 for v in vals[pos:] for s in range(5, -1, -1)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return from_edges(n, [e for e, bit in zip(pairs, bits) if bit])


def networkx_graph(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.order))
    h.add_edges_from(g.edges())
    return h


def test_decoder_matches_per_bit_reference_and_networkx():
    # every order of the one-byte order field, across the 62/63 boundary
    # into the four-byte field, and 129
    rnd = random.Random(606)
    for n in [*range(0, 71), 129]:
        for p in (0.1, 0.5, 0.9):
            line = nx.to_graph6_bytes(networkx_graph(
                random_graph(rnd, n, p)), header=False).decode().strip()
            g = decode_graph6(line)
            assert g == reference_decode(line), (n, p)
            back = nx.from_graph6_bytes(line.encode())
            assert (g.order, set(g.edges())) == (
                back.number_of_nodes(),
                {tuple(sorted(e)) for e in back.edges()}), (n, p)


def test_encoder_matches_networkx_up_to_130():
    rnd = random.Random(130)
    for n in range(131):
        g = random_graph(rnd, n, rnd.random())
        assert encode_graph6(g) == nx.to_graph6_bytes(
            networkx_graph(g), header=False).decode().strip(), n


def test_each_padding_bit_alone_is_rejected_at_its_offset():
    # orders whose last byte carries 5, 3 or 2 padding bits; each padding
    # bit is set on its own in a valid line
    rnd = random.Random(7)
    for n in (2, 3, 5, 8, 11, 14, 70):
        line = encode_graph6(random_graph(rnd, n))
        pad = -(n * (n - 1) // 2) % 6
        assert pad
        for bit in range(pad):
            bad = line[:-1] + chr(63 + (ord(line[-1]) - 63 | 1 << bit))
            for header in ("", ">>graph6<<"):
                with pytest.raises(Graph6Error, match="padding bit at byte"
                                   f" offset {len(header) + len(line) - 1}$"):
                    decode_graph6(header + bad)


def test_non_printable_byte_reports_its_offset():
    line = encode_graph6(random_graph(random.Random(3), 12))
    for i in range(len(line)):
        for ch in ("\x00", " ", "\x7f"):
            bad = line[:i] + ch + line[i + 1:]
            for header in ("", ">>graph6<<"):
                with pytest.raises(Graph6Error, match="non-printable graph6"
                                   f" byte at offset {len(header) + i}$"):
                    decode_graph6(header + bad)


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
