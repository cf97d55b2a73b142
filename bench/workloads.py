"""The benchmark's workloads: the CLI calls each one makes, the seeded inputs
it builds, and the independent expectations every answer is checked against.

A workload object is shared by ``run.py``, which computes the expectations
and checks the answers, and by the sample process
(``sample.py``), which builds the inputs and makes the CLI calls.  Both
derive everything from the seed, so they agree without exchanging data.

An *answer* is one record a CLI call prints: a search report with its
extremal graph6 lines, one ``verify`` row, or one ``check`` line.  Each
answer that differs from its expectation counts once as failed, however
many of its fields are wrong, and never stops the other checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path


def _fields(line: str) -> dict[str, str]:
    """``key=value`` tokens of one report line."""
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _ints(text: str | None) -> list[int] | None:
    """Comma-separated integers of a witness field; None when garbled."""
    try:
        return [int(x) for x in text.split(",")] if text else []
    except ValueError:
        return None


@dataclass(frozen=True)
class Search:
    """One ``search`` call with one worker, checked against the closed form
    and the predicted extremal families."""

    method: str
    n: int
    r: int
    k: int
    call_count = 1

    def calls(self, seed: int, workdir: Path) -> list[list[str]]:
        return [["search", "--n", str(self.n), "--r", str(self.r),
                 "--k", str(self.k), "--method", self.method,
                 "--workers", "1"]]

    def expect(self, seed: int) -> dict:
        from bookturan.constructions import extremal_family_graphs
        from bookturan.formulas import CaseParams, ex_nonpartite_value
        from bookturan.graph6 import encode_graph6

        params = CaseParams(self.n, self.r, self.k)
        family = extremal_family_graphs(params, mode="theorem14")
        return {"optimum": ex_nonpartite_value(params),
                "extremal": sorted(encode_graph6(g) for g in family)}

    def check(self, expected: dict, outputs: list) -> tuple[int, list[str], dict]:
        """Return (answers attempted, failure messages, report counters)."""
        (code, text), = outputs
        lines = text.splitlines()
        if code != 0 or not lines:
            return 1, [f"search exited with {code}"], {}
        head = _fields(lines[0])
        problems = []
        want = {"n": str(self.n), "r": str(self.r), "k": str(self.k),
                "optimum": str(expected["optimum"]), "exhaustive": "true",
                "classes": str(len(expected["extremal"]))}
        for key, value in want.items():
            if head.get(key) != value:
                problems.append(f"{key}={head.get(key)} expected {value}")
        if sorted(lines[1:]) != expected["extremal"]:
            problems.append("extremal graph6 set differs from the predicted"
                            " families")
        nodes = _ints(head.get("nodes")) or [0]
        counters = {"search.nodes": nodes[0]}
        return 1, (["search: " + "; ".join(problems)] if problems else []), counters


def _relabelled(g, rng: random.Random):
    from bookturan.graphs import relabel

    perm = list(range(g.order))
    rng.shuffle(perm)
    return relabel(g, perm)


def _plus_random_edge(g, rng: random.Random):
    from bookturan.graphs import add_edge

    non_edges = [(u, v) for u in range(g.order) for v in range(u + 1, g.order)
                 if not g.has_edge(u, v)]
    return add_edge(g, *rng.choice(non_edges))


@dataclass(frozen=True)
class CorpusGraph:
    """One ``check`` input with what its construction says about it."""

    kind: str
    graph: object
    r_colorable: bool
    contains_book: bool

    @property
    def candidate(self) -> bool:
        return not self.r_colorable and not self.contains_book


def build_corpus(r: int, k: int, orders: tuple[int, ...],
                 seed: int) -> list[CorpusGraph]:
    """Seeded ``check`` corpus for one r; every graph is randomly relabelled.

    The seed drives only the relabelling permutations and the added edge,
    so every seed exercises the same isomorphism classes.  Kinds:

    * ``extremal``: members of the families the theorem14 table predicts.
      They are the candidates the paper is about: not r-colorable and
      book-free, so both checkers must search to the end.
    * ``extremal_plus_edge``: the same graphs with one random non-edge
      added.  They exceed the closed-form optimum while staying
      non-r-colorable, so each must contain a book; the book checker
      stops at the first one.
    * ``turan``: the balanced complete r-partite graph, r-colorable and
      book-free (every r-clique takes one vertex per part), the extremal
      graph when r-partite graphs are allowed.
    * ``near_complete``: ``near_complete_ks`` on the Turan part sizes with
      a split inside the second part.  It is a pentagon blow-up joined with
      r - 2 parts, so it needs r + 1 colours and, its core being
      triangle-free, holds no book.
    * ``near_complete_split0``: the same shift with split 0, whose core is
      a bipartite path blow-up, so the graph is r-colorable and book-free.
    """
    from bookturan.constructions import (extremal_family_graphs,
                                         near_complete_ks, turan_part_sizes,
                                         turan_graph)
    from bookturan.formulas import CaseParams

    rng = random.Random(f"{seed}/{r}/{k}")
    corpus = []
    for n in orders:
        for g in extremal_family_graphs(CaseParams(n, r, k), mode="theorem14"):
            corpus.append(CorpusGraph("extremal", _relabelled(g, rng),
                                      False, False))
            plus = _plus_random_edge(_relabelled(g, rng), rng)
            corpus.append(CorpusGraph("extremal_plus_edge", plus, False, True))
        corpus.append(CorpusGraph("turan", _relabelled(turan_graph(n, r), rng),
                                  True, False))
        parts = turan_part_sizes(n, r)
        ks = near_complete_ks(parts, parts[1] // 2)
        corpus.append(CorpusGraph("near_complete", _relabelled(ks, rng),
                                  False, False))
        ks0 = near_complete_ks(parts, 0)
        corpus.append(CorpusGraph("near_complete_split0",
                                  _relabelled(ks0, rng), True, False))
    return corpus


def _check_line(line: str, lineno: int, want: CorpusGraph, r: int,
                k: int) -> list[str]:
    """Mismatches between one ``check --witness`` line and its corpus graph."""
    got = _fields(line)
    g = want.graph
    problems = []
    expect = {"line": str(lineno), "n": str(g.order), "e": str(g.edge_count()),
              "r_colorable": _bool(want.r_colorable),
              "contains_book": _bool(want.contains_book),
              "candidate": _bool(want.candidate)}
    for key, value in expect.items():
        if got.get(key) != value:
            problems.append(f"{key}={got.get(key)} expected {value}")
    if "coloring" in got:
        colors = _ints(got["coloring"])
        if (colors is None or len(colors) != g.order
                or not all(0 <= c < r for c in colors)
                or any(colors[u] == colors[v] for u, v in g.edges())):
            problems.append("coloring witness is not a proper r-coloring")
    elif want.r_colorable:
        problems.append("coloring witness missing")
    if "book_clique" in got:
        clique = _ints(got["book_clique"]) or []
        pages = _ints(got.get("book_pages")) or []
        spine = set(clique)
        ok = (len(spine) == r and len(set(pages)) == k
              and all(0 <= v < g.order for v in spine | set(pages))
              and not spine & set(pages)
              and all(g.has_edge(u, v) for u in clique for v in clique if u != v)
              and all(g.has_edge(p, u) for p in pages for u in clique))
        if not ok:
            problems.append("book witness is not an embedded book")
    elif want.contains_book:
        problems.append("book witness missing")
    return problems


@dataclass(frozen=True)
class Families:
    """``verify --mode theorem14`` over a range of orders for several r,
    then ``check --witness`` over a seeded corpus for each r."""

    rs: tuple[int, ...]
    k: int
    n_from: int
    n_to: int
    corpus_orders: dict[int, tuple[int, ...]]
    # (r, n) rows where the closed form and the family optimizer are known
    # to differ: findings the harness must keep reporting, not failures
    findings: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    @property
    def call_count(self) -> int:
        return 2 * len(self.rs)

    def calls(self, seed: int, workdir: Path) -> list[list[str]]:
        """Build and write the corpus files; return the CLI calls."""
        from bookturan.graph6 import encode_graph6

        calls = [["verify", "--r", str(r), "--k", str(self.k),
                  "--n-from", str(self.n_from), "--n-to", str(self.n_to),
                  "--mode", "theorem14"] for r in self.rs]
        workdir.mkdir(parents=True, exist_ok=True)
        for r in self.rs:
            corpus = build_corpus(r, self.k, self.corpus_orders[r], seed)
            path = workdir / f"corpus-r{r}-k{self.k}.g6"
            path.write_text("".join(encode_graph6(c.graph) + "\n"
                                    for c in corpus), encoding="ascii")
            calls.append(["check", "--input", str(path), "--r", str(r),
                          "--k", str(self.k), "--witness"])
        return calls

    def expect(self, seed: int) -> dict:
        from bookturan.formulas import CaseParams, ex_nonpartite_value

        rows = {(r, n): ex_nonpartite_value(CaseParams(n, r, self.k))
                for r in self.rs for n in range(self.n_from, self.n_to + 1)}
        corpora = {r: build_corpus(r, self.k, self.corpus_orders[r], seed)
                   for r in self.rs}
        return {"formula": rows, "corpora": corpora}

    def check(self, expected: dict, outputs: list) -> tuple[int, list[str], dict]:
        attempted = 0
        failures: list[str] = []
        nr = len(self.rs)
        for r, (code, text) in zip(self.rs, outputs[:nr]):
            seen = {}
            for line in text.splitlines():
                got = _fields(line)
                seen[got.get("n")] = got
            for n in range(self.n_from, self.n_to + 1):
                attempted += 1
                got = seen.get(str(n))
                if code != 0 or got is None:
                    failures.append(f"verify r={r} n={n}: no row (exit {code})")
                    continue
                formula = expected["formula"][(r, n)]
                finding = (r, n) in self.findings
                want = {"r": str(r), "k": str(self.k),
                        "formula": str(formula), "oracle": "-",
                        "verdict": "DISAGREE" if finding else "AGREE"}
                problems = [f"{key}={got.get(key)} expected {value}"
                            for key, value in want.items()
                            if got.get(key) != value]
                if (got.get("family_opt") == str(formula)) == finding:
                    problems.append(f"family_opt={got.get('family_opt')} with"
                                    f" formula={formula}")
                if problems:
                    failures.append(f"verify r={r} n={n}: " + "; ".join(problems))
        for r, (code, text) in zip(self.rs, outputs[nr:]):
            corpus = expected["corpora"][r]
            lines = text.splitlines() if code == 0 else []
            for i, want in enumerate(corpus):
                attempted += 1
                if i >= len(lines):
                    failures.append(f"check r={r} line {i + 1}: missing"
                                    f" (exit {code})")
                    continue
                problems = _check_line(lines[i], i + 1, want, r, self.k)
                if problems:
                    failures.append(f"check r={r} line {i + 1} ({want.kind}): "
                                    + "; ".join(problems))
            if len(lines) > len(corpus):
                failures.append(f"check r={r}: {len(lines) - len(corpus)}"
                                " unexpected lines")
        return attempted, failures, {}


WORKLOADS = {
    # The unpruned ground-truth engine: every book-free class per level held
    # in memory, ~10^5 canon calls on graphs with n <= 8.
    "enumerate": Search("enumerate", 8, 3, 1),
    # The certified headline row: incumbent pruning, incremental book tests,
    # colorability at the leaves, depth-first memory.
    "bb": Search("bb", 10, 3, 2),
    # Canon on large twin-rich joins, constructions and the family optimizer
    # (verify), then graph6 and the checkers (check); no search at all.
    "families": Families(rs=(3, 4, 5), k=2, n_from=9, n_to=45,
                         corpus_orders={3: (19, 25, 31, 37, 43),
                                        4: (22, 26, 30, 34, 38),
                                        5: (21, 25, 27, 31, 33)},
                         findings=frozenset({(5, 9), (5, 10)})),
}
