"""Command-line interface: construct, eval, check, search, verify.

Graphs travel as graph6 lines.  All output is deterministic: identical
invocations produce byte-identical output, and search reports are identical
for any worker count.  Exit codes: 0 success, 1 domain error (or a DISAGREE
verdict under --strict, a reader that closed the output pipe early, as
`| head -1` does, or a failed write, as to a full disk), 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext

from .canon import dedup_by_isomorphism
from .checkers import _book_witness, _r_coloring
from .constructions import (c5_blowup, family_c5_1, family_c5_2, family_c5_3,
                            family_g1, family_g2, family_g3, generalized_book,
                            near_complete_ks, turan_graph)
from .formulas import MODES, CaseParams, ex_nonpartite_value, extremal_case
from .graph6 import Graph6Error, decode_graph6, encode_graph6
from .graphs import _twin_classes
from .search import SearchBudget, branch_bound_extremal, enumerate_extremal, \
    verify_theorem


class DomainError(Exception):
    """Invalid parameters or data; reported on stderr with exit code 1."""


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bookturan",
        description="constructions, closed forms and search oracles for "
                    "edge-maximal non-r-partite graphs without generalized books")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="emit family members as graph6 lines")
    c.add_argument("--family", required=True,
                   choices=["turan", "c5blowup", "c51", "c52", "c53",
                            "g1", "g2", "g3", "book", "ks"])
    c.add_argument("--n", type=int)
    c.add_argument("--r", type=int)
    c.add_argument("--k", type=int, default=1)
    c.add_argument("--profile", type=_int_list,
                   help="five comma-separated blow-up part sizes")
    c.add_argument("--s", type=int, help="cross-edge split for --family ks")
    c.add_argument("--parts", type=_int_list,
                   help="comma-separated part sizes for --family ks")

    e = sub.add_parser("eval", help="closed-form optimum and extremal case")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--r", type=int, required=True)
    e.add_argument("--k", type=int, default=1)
    e.add_argument("--mode", choices=MODES, default="theorem1")

    k = sub.add_parser("check", help="decide the candidacy predicate per graph")
    k.add_argument("--input", required=True, help="graph6 file, one graph per line")
    k.add_argument("--r", type=int, required=True)
    k.add_argument("--k", type=int, required=True)
    k.add_argument("--witness", action="store_true",
                   help="emit coloring / embedded-book witnesses")

    s = sub.add_parser("search", help="search oracles for the exact optimum")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--method", choices=["enumerate", "bb"], required=True)
    s.add_argument("--workers", type=_positive_int, default=1,
                   help="processes for bb work units, capped at the usable "
                        "CPUs (enumerate runs in one)")
    s.add_argument("--node-limit", type=_positive_int,
                   help="node budget per work unit (a deterministic cut); "
                        "enumerate is one unit")
    s.add_argument("--emit", help="write extremal graphs to this graph6 file")

    v = sub.add_parser("verify", help="table comparing formula, families and oracle")
    v.add_argument("--r", type=int, required=True)
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--n-from", type=int, required=True)
    v.add_argument("--n-to", type=int, required=True)
    v.add_argument("--mode", choices=MODES, default="theorem1")
    v.add_argument("--strict", action="store_true",
                   help="exit 1 if any row records DISAGREE")
    return parser


def _require(parser: argparse.ArgumentParser, args: argparse.Namespace,
             names: list[str]) -> None:
    missing = [f"--{n}" for n in names if getattr(args, n) is None]
    if missing:
        parser.error(f"--family {args.family} requires {', '.join(missing)}")


def _cmd_construct(parser: argparse.ArgumentParser,
                   args: argparse.Namespace) -> int:
    fam = args.family
    if fam == "turan":
        _require(parser, args, ["n", "r"])
        graphs = [turan_graph(args.n, args.r)]
    elif fam == "c5blowup":
        _require(parser, args, ["profile"])
        if len(args.profile) != 5:
            parser.error("--profile needs exactly five sizes")
        graphs = [c5_blowup(args.profile)]
    elif fam in ("c51", "c52", "c53"):
        _require(parser, args, ["n"])
        builder = {"c51": family_c5_1, "c52": family_c5_2,
                   "c53": family_c5_3}[fam]
        graphs = builder(args.n)
    elif fam in ("g1", "g2", "g3"):
        _require(parser, args, ["n", "r"])
        builder = {"g1": family_g1, "g2": family_g2, "g3": family_g3}[fam]
        graphs = builder(CaseParams(args.n, args.r, args.k))
    elif fam == "book":
        _require(parser, args, ["r", "k"])
        graphs = [generalized_book(args.r, args.k)]
    else:  # ks
        _require(parser, args, ["parts", "s"])
        graphs = [near_complete_ks(args.parts, args.s)]
    for g in dedup_by_isomorphism(graphs):
        print(encode_graph6(g))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    params = CaseParams(args.n, args.r, args.k)
    value = ex_nonpartite_value(params)
    case = extremal_case(params, args.mode)
    print(f"{params} mode={args.mode} value={value} case={case.label}"
          f" families={','.join(case.families)}")
    return 0


def _format_vertex_set(vs) -> str:
    return ",".join(str(v) for v in sorted(vs))


def _cmd_check(args: argparse.Namespace) -> int:
    if args.r < 2:
        raise DomainError(f"--r must be at least 2 (the book spine), got {args.r}")
    if args.k < 1:
        raise DomainError(f"--k must be at least 1 (the pages), got {args.k}")
    try:
        with open(args.input, "rb") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DomainError(f"cannot read {args.input}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            g = decode_graph6(line)
        except Graph6Error as exc:
            raise DomainError(f"line {lineno}: {exc}") from None
        # one twin-class computation serves both decisions; r and k were
        # checked above
        twins = _twin_classes(g.rows)
        coloring = _r_coloring(g, args.r, twins)
        book = _book_witness(g, args.r, args.k, twins)
        candidate = coloring is None and book is None
        fields = [f"line={lineno}", f"n={g.order}", f"e={g.edge_count()}",
                  f"r_colorable={str(coloring is not None).lower()}",
                  f"contains_book={str(book is not None).lower()}",
                  f"candidate={str(candidate).lower()}"]
        if args.witness:
            if coloring is not None:
                fields.append("coloring=" + ",".join(map(str, coloring.classes)))
            if book is not None:
                fields.append("book_clique=" + _format_vertex_set(book.clique))
                fields.append("book_pages=" + _format_vertex_set(book.pages))
        print(" ".join(fields))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    params = CaseParams(args.n, args.r, args.k)
    budget = SearchBudget(node_limit=args.node_limit, workers=args.workers)
    try:  # before the search, so a bad path costs no search time
        emit = open(args.emit, "w", encoding="ascii") if args.emit else None
    except OSError as exc:
        raise DomainError(f"cannot write {args.emit}: {exc}") from None
    with emit or nullcontext():
        if args.method == "enumerate":
            report = enumerate_extremal(params, budget)
        else:
            report = branch_bound_extremal(params, budget)
        print(report.format_line(), flush=True)  # before any emit failure
        lines = (encode_graph6(g) + "\n" for g in report.extremal)
        if emit is None:
            sys.stdout.writelines(lines)
            return 0
        try:  # closing flushes the file, so the close can fail as well
            with emit:
                emit.writelines(lines)
        except OSError as exc:
            raise DomainError(f"cannot write {args.emit}: {exc}") from None
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    records = verify_theorem(args.r, args.k, args.n_from, args.n_to,
                             mode=args.mode)
    for rec in records:
        print(rec.format_line())
    if args.strict and any(rec.verdict == "DISAGREE" for rec in records):
        return 1
    return 0


def _run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.command == "construct":
        return _cmd_construct(parser, args)
    if args.command == "eval":
        return _cmd_eval(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "search":
        return _cmd_search(args)
    return _cmd_verify(args)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run(parser, args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # a failed write, say to a full disk, or a closed pipe, which needs
        # no reason as the reader is gone: point stdout at devnull so the
        # flush at exit cannot fail again (the recipe of the Python signal
        # module docs)
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
