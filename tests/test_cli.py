import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import bookturan
from bookturan import checkers
from bookturan import cli as cli_module
from bookturan.checkers import is_nonpartite_book_free
from bookturan.cli import main
from bookturan.graph6 import decode_graph6, encode_graph6
from bookturan.canon import is_isomorphic
from bookturan.constructions import (c5_blowup, extremal_family_graphs,
                                     generalized_book, turan_graph)
from bookturan.formulas import CaseParams
from bookturan.graphs import (_twin_classes, add_edge, empty_graph, from_edges,
                              join, relabel)

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_book(capsys):
    code, out, _ = run_cli(capsys, "construct", "--family", "book",
                           "--r", "3", "--k", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    g = decode_graph6(lines[0])
    assert g.order == 5 and g.edge_count() == 9
    assert is_isomorphic(g, generalized_book(3, 2))


def test_construct_g3(capsys):
    code, out, _ = run_cli(capsys, "construct", "--family", "g3",
                           "--n", "11", "--r", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    assert decode_graph6(lines[0]).edge_count() == 38


def test_construct_turan(capsys):
    code, out, _ = run_cli(capsys, "construct", "--family", "turan",
                           "--n", "10", "--r", "3")
    assert code == 0
    g = decode_graph6(out.strip())
    assert is_isomorphic(g, turan_graph(10, 3))


def test_construct_large_twin_class_needs_no_recursion(capsys):
    # the canonical labelling individualizes a twin cell one vertex per
    # level, so T(1100, 1) = E_1100 is 1100 levels deep
    code, out, _ = run_cli(capsys, "construct", "--family", "turan",
                           "--n", "1100", "--r", "1")
    assert code == 0
    assert out == encode_graph6(empty_graph(1100)) + "\n"


def test_construct_c5blowup(capsys):
    code, out, _ = run_cli(capsys, "construct", "--family", "c5blowup",
                           "--profile", "1,1,1,1,1")
    assert code == 0
    g = decode_graph6(out.strip())
    assert is_isomorphic(g, c5_blowup((1, 1, 1, 1, 1)))


def test_construct_ks(capsys):
    code, out, _ = run_cli(capsys, "construct", "--family", "ks",
                           "--parts", "4,4,4", "--s", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    assert is_isomorphic(decode_graph6(lines[0]),
                         join(c5_blowup((2, 2, 1, 1, 2)), empty_graph(4)))


def test_construct_emitted_graphs_satisfy_claimed_predicates(capsys):
    code, out, _ = run_cli(capsys, "construct", "--family", "g2",
                           "--n", "12", "--r", "3", "--k", "2")
    assert code == 0
    for line in out.splitlines():
        g = decode_graph6(line)
        assert g.order == 12
        assert is_nonpartite_book_free(g, 3, 2)


def test_construct_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--family", "g3", "--n", "11"])  # missing --r
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--family", "c5blowup", "--profile", "1,1,1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_construct_domain_errors_exit_1(capsys):
    code, _, err = run_cli(capsys, "construct", "--family", "g1",
                           "--n", "8", "--r", "3")
    assert code == 1
    assert "q >= 3" in err


def test_eval(capsys):
    code, out, _ = run_cli(capsys, "eval", "--n", "12", "--r", "3")
    assert code == 0
    assert out.strip() == ("n=12 r=3 k=1 q=4 p=0 mode=theorem1 value=45"
                           " case=G1_G2 families=G1,G2")
    code, out, _ = run_cli(capsys, "eval", "--n", "11", "--r", "3")
    assert "value=38" in out and "families=G3" in out
    code, out, _ = run_cli(capsys, "eval", "--n", "8", "--r", "3",
                           "--mode", "theorem14")
    assert code == 0
    assert "value=20" in out and "families=C5_JOIN" in out


def test_eval_domain_error(capsys):
    code, _, err = run_cli(capsys, "eval", "--n", "8", "--r", "3")
    assert code == 1 and "asymptotic" in err
    assert "theorem14" in err and "mode='" not in err
    code, _, err = run_cli(capsys, "eval", "--n", "5", "--r", "3")
    assert code == 1


def test_check(tmp_path, capsys):
    w7 = join(c5_blowup((1, 1, 1, 1, 1)), empty_graph(2))
    t39 = turan_graph(9, 3)
    k5 = turan_graph(5, 5)
    path = tmp_path / "in.g6"
    path.write_text("\n".join(encode_graph6(g) for g in (w7, t39, k5)) + "\n")
    code, out, _ = run_cli(capsys, "check", "--input", str(path),
                           "--r", "3", "--k", "2", "--witness")
    assert code == 0
    lines = out.splitlines()
    assert "candidate=true" in lines[0]
    assert "candidate=false" in lines[1] and "coloring=" in lines[1]
    assert "candidate=false" in lines[2] and "book_clique=" in lines[2]

    # witnesses re-validate against the decoded graphs
    coloring = [f for f in lines[1].split() if f.startswith("coloring=")][0]
    classes = [int(x) for x in coloring.split("=")[1].split(",")]
    for u, v in t39.edges():
        assert classes[u] != classes[v]
    fields = dict(f.split("=") for f in lines[2].split())
    clique = [int(x) for x in fields["book_clique"].split(",")]
    pages = [int(x) for x in fields["book_pages"].split(",")]
    for u in clique:
        for v in clique:
            if u != v:
                assert k5.has_edge(u, v)
    for p in pages:
        for u in clique:
            assert k5.has_edge(p, u)


def test_check_finds_twin_classes_once_per_graph(tmp_path, capsys,
                                                monkeypatch):
    # the colouring and the book walk share one twin-class computation
    orders = []

    def counted(rows):
        orders.append(len(rows))
        return _twin_classes(rows)

    def unused(rows):
        raise AssertionError("a checker found the twin classes again")

    monkeypatch.setattr(cli_module, "_twin_classes", counted)
    monkeypatch.setattr(checkers, "_twin_classes", unused)
    graphs = (join(c5_blowup((1, 1, 1, 1, 1)), empty_graph(2)),
              turan_graph(9, 3), turan_graph(5, 5))
    path = tmp_path / "in.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
    code, out, _ = run_cli(capsys, "check", "--input", str(path),
                           "--r", "3", "--k", "2", "--witness")
    assert code == 0 and len(out.splitlines()) == 3
    assert orders == [7, 9, 5]


def test_check_long_cycle(tmp_path, capsys):
    n = 1500
    path = tmp_path / "c1500.g6"
    path.write_text(encode_graph6(
        from_edges(n, [(i, (i + 1) % n) for i in range(n)])) + "\n")
    code, out, _ = run_cli(capsys, "check", "--input", str(path),
                           "--r", "2", "--k", "1")
    assert code == 0
    assert out == ("line=1 n=1500 e=1500 r_colorable=true contains_book=false"
                   " candidate=false\n")


def test_check_spine_above_recursion_limit(tmp_path, capsys):
    # the book walk keeps its levels on a stack, so a complete graph with a
    # spine longer than the recursion limit is decided with a witness
    r = sys.getrecursionlimit() + 10
    n = r + 10
    path = tmp_path / "complete.g6"
    path.write_text(encode_graph6(turan_graph(n, n)) + "\n")
    code, out, err = run_cli(capsys, "check", "--input", str(path),
                             "--r", str(r), "--k", "1", "--witness")
    assert code == 0 and err == ""
    fields = dict(f.split("=") for f in out.split())
    assert fields["r_colorable"] == "false"
    assert fields["contains_book"] == "true"
    assert fields["book_clique"] == ",".join(map(str, range(n - r, n)))
    assert fields["book_pages"] == "0"


def test_check_color_count_far_above_the_order(tmp_path, capsys):
    # colouring allocates for at most n colors, whatever --r says
    code, g6, _ = run_cli(capsys, "construct", "--family", "g3", "--n", "11",
                          "--r", "3")
    assert code == 0
    path = tmp_path / "g.g6"
    path.write_text(g6)
    code, out, err = run_cli(capsys, "check", "--input", str(path),
                             "--r", "1000000000", "--k", "1", "--witness")
    assert code == 0 and err == ""
    assert out == ("line=1 n=11 e=38 r_colorable=true contains_book=false"
                   " candidate=false coloring=3,0,0,1,1,0,1,2,2,2,2\n")


def _twin_rich_check_corpus(r, k):
    # the theorem14 members (book-free and not r-colorable), each with one
    # added edge (so it holds a book), and Turan graphs (r-colorable), all
    # relabelled at random: every graph has large twin classes
    rnd = random.Random(f"check/{r}/{k}")
    graphs = []

    def shuffled(g):
        perm = list(range(g.order))
        rnd.shuffle(perm)
        return relabel(g, perm)

    for n in range(r + 3, 3 * r + 12, 2):
        for g in extremal_family_graphs(CaseParams(n, r, k), "theorem14"):
            h = shuffled(g)
            graphs.append(h)
            graphs.append(add_edge(h, *rnd.choice(
                [(u, v) for u in range(n) for v in range(u)
                 if not h.has_edge(u, v)])))
        graphs.append(shuffled(turan_graph(n, r)))
    return graphs


def test_check_witness_lines_are_pinned(tmp_path, capsys):
    # sha256 of the check --witness lines as they were before the checkers
    # used twin symmetry: answers and witnesses must not move
    lines = []
    for r in (3, 4, 5):
        for k in (1, 2, 3):
            path = tmp_path / f"corpus-{r}-{k}.g6"
            path.write_text("".join(encode_graph6(g) + "\n"
                                    for g in _twin_rich_check_corpus(r, k)))
            code, out, _ = run_cli(capsys, "check", "--input", str(path),
                                   "--r", str(r), "--k", str(k), "--witness")
            assert code == 0
            lines += out.splitlines()
    assert len(lines) == 513
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "6868d3f381a1dca9b7f58889f24c601aeafac1bc6932d7a17815382d7ae6bc9a")


def test_check_malformed_line_reports_line_number(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_text("A_\nA\x19_\n")
    code, _, err = run_cli(capsys, "check", "--input", str(path),
                           "--r", "3", "--k", "1")
    assert code == 1
    assert "line 2" in err
    # a non-ASCII byte is reported on its own line, not for the whole file
    path.write_bytes(b"A_\nD\xffw\n")
    code, _, err = run_cli(capsys, "check", "--input", str(path),
                           "--r", "3", "--k", "1")
    assert code == 1
    assert err == "error: line 2: non-ASCII byte at offset 1\n"


def test_check_rejects_spine_and_page_counts_before_reading(tmp_path, capsys):
    # an empty file has no graph to reach the checkers with, and a missing
    # one is never opened: the error names the option
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    for path in (empty, tmp_path / "missing.g6"):
        for r, k, option in (("1", "1", "--r"), ("0", "1", "--r"),
                             ("3", "0", "--k"), ("3", "-2", "--k")):
            code, out, err = run_cli(capsys, "check", "--input", str(path),
                                     "--r", r, "--k", k)
            assert code == 1 and out == ""
            assert err.startswith(f"error: {option} must be at least"), err
    code, out, _ = run_cli(capsys, "check", "--input", str(empty),
                           "--r", "2", "--k", "1")
    assert code == 0 and out == ""


def test_search_enumerate(capsys):
    code, out, _ = run_cli(capsys, "search", "--n", "7", "--r", "3",
                           "--k", "1", "--method", "enumerate")
    assert code == 0
    lines = out.splitlines()
    assert "optimum=15" in lines[0] and "classes=1" in lines[0]
    assert "exhaustive=true" in lines[0]
    g = decode_graph6(lines[1])
    assert is_nonpartite_book_free(g, 3, 1) and g.edge_count() == 15


def test_search_emit_file(tmp_path, capsys):
    out_path = tmp_path / "extremal.g6"
    code, out, _ = run_cli(capsys, "search", "--n", "7", "--r", "3",
                           "--k", "1", "--method", "bb",
                           "--emit", str(out_path))
    assert code == 0
    assert "optimum=15" in out
    lines = out_path.read_text().splitlines()
    assert len(lines) == 1
    assert decode_graph6(lines[0]).edge_count() == 15


def test_search_emit_unwritable_path_is_a_domain_error(tmp_path, capsys):
    for target in (tmp_path / "missing" / "out.g6", tmp_path):
        code, out, err = run_cli(capsys, "search", "--n", "7", "--r", "3",
                                 "--k", "1", "--method", "bb",
                                 "--emit", str(target))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in err


def test_search_workers_byte_identical(capsys):
    outs = set()
    for w in ("1", "2", "4"):
        code, out, _ = run_cli(capsys, "search", "--n", "7", "--r", "3",
                               "--k", "1", "--method", "bb", "--workers", w)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_search_node_limit_truncates_deterministically(capsys):
    # each of the 176 classes that branch-and-bound expands is a unit capped
    # at 100 nodes: all of them run and 4 are cut (complete: nodes=1498,
    # the largest unit 229)
    outs = set()
    for w in ("1", "2"):
        code, out, _ = run_cli(capsys, "search", "--n", "9", "--r", "3",
                               "--k", "2", "--method", "bb",
                               "--node-limit", "100", "--workers", w)
        assert code == 0
        assert out.splitlines()[0] == (
            "n=9 r=3 k=2 q=3 p=0 method=branch_bound optimum=25 classes=2"
            " nodes=1158 exhaustive=false")
        outs.add(out)
    assert len(outs) == 1
    with pytest.raises(SystemExit) as exc:
        main(["search", "--n", "7", "--r", "3", "--k", "1", "--method", "bb",
              "--node-limit", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --node-limit: must be positive" in captured.err


def test_search_workers_must_be_positive(capsys):
    # a usage error that names the option, not the SearchBudget field
    with pytest.raises(SystemExit) as exc:
        main(["search", "--n", "7", "--r", "3", "--k", "1", "--method", "bb",
              "--workers", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --workers: must be positive" in captured.err


def test_closed_output_pipe_exits_quietly():
    # the reader closes the pipe before the search prints, as `| head -1`
    # or `| true` can: exit 1 with nothing on stderr, no traceback
    src = os.path.dirname(os.path.dirname(bookturan.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "bookturan.cli", "search", "--n", "9",
         "--r", "3", "--k", "2", "--method", "bb"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs the /dev/full device")
def test_failed_write_exits_1_without_traceback():
    # a write that fails, to an --emit file or to stdout itself: one error
    # line and exit 1, after the search report if stdout still works
    src = os.path.dirname(os.path.dirname(bookturan.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    cli = [sys.executable, "-m", "bookturan.cli"]
    search = ["search", "--n", "7", "--r", "3", "--k", "1",
              "--method", "enumerate"]
    proc = subprocess.run([*cli, *search, "--emit", "/dev/full"],
                          capture_output=True, env=env)
    assert proc.returncode == 1
    assert proc.stdout.decode().startswith("n=7 r=3 k=1 ")
    # the failure comes from the file's close, and still names the path
    assert proc.stderr == (b"error: cannot write /dev/full:"
                           b" [Errno 28] No space left on device\n")
    for argv in (search, ["construct", "--family", "c53", "--n", "9"]):
        with open("/dev/full", "w") as full:
            proc = subprocess.run([*cli, *argv], stdout=full,
                                  stderr=subprocess.PIPE, env=env)
        assert proc.returncode == 1
        assert proc.stderr == b"error: [Errno 28] No space left on device\n"


def test_verify(capsys):
    code, out, _ = run_cli(capsys, "verify", "--r", "3", "--k", "1",
                           "--n-from", "6", "--n-to", "9",
                           "--mode", "theorem14")
    assert code == 0
    # the enumeration oracle runs for n <= 8; n = 6 is a recorded finding
    assert out.splitlines() == [
        "n=6 r=3 k=1 q=2 p=0 formula=11 family_opt=10 oracle=10"
        " exhaustive=true verdict=DISAGREE",
        "n=7 r=3 k=1 q=2 p=1 formula=15 family_opt=15 oracle=15"
        " exhaustive=true verdict=AGREE",
        "n=8 r=3 k=1 q=2 p=2 formula=20 family_opt=20 oracle=20"
        " exhaustive=true verdict=AGREE",
        "n=9 r=3 k=1 q=3 p=0 formula=25 family_opt=25 oracle=-"
        " exhaustive=- verdict=AGREE",
    ]
    assert out.splitlines() == readme_block_after("`--n-from 6 --n-to 9`")


def readme_block_after(marker):
    """Lines of the first fenced block after the README line holding marker."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if marker in line)
    fence = next(i for i in range(start, len(lines))
                 if lines[i].startswith("```"))
    end = lines.index("```", fence + 1)
    return lines[fence + 1:end]


def test_verify_range_below_case_table_is_rejected_up_front(capsys):
    # theorem1 starts at q >= 3 (n >= 3r); no row is printed before the error
    code, out, err = run_cli(capsys, "verify", "--r", "3", "--k", "1",
                             "--n-from", "6", "--n-to", "14")
    assert code == 1 and out == ""
    assert "n >= 9" in err and "theorem14" in err


def test_verify_strict_flags_disagreement(capsys):
    code, out, _ = run_cli(capsys, "verify", "--r", "3", "--k", "1",
                           "--n-from", "6", "--n-to", "6",
                           "--mode", "theorem14")
    assert code == 0  # findings are not failures by default
    assert "verdict=DISAGREE" in out
    code, out, _ = run_cli(capsys, "verify", "--r", "3", "--k", "1",
                           "--n-from", "6", "--n-to", "6",
                           "--mode", "theorem14", "--strict")
    assert code == 1


def test_identical_invocations_are_byte_identical(capsys):
    a = run_cli(capsys, "eval", "--n", "23", "--r", "4")
    b = run_cli(capsys, "eval", "--n", "23", "--r", "4")
    assert a == b
    a = run_cli(capsys, "construct", "--family", "g2", "--n", "15", "--r", "3")
    b = run_cli(capsys, "construct", "--family", "g2", "--n", "15", "--r", "3")
    assert a == b


def test_cli_import_does_not_load_numpy():
    # a fresh interpreter: networkx may already have loaded numpy in this one
    src = os.path.dirname(os.path.dirname(bookturan.__file__))
    probe = "import sys, bookturan.cli; sys.exit('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0
