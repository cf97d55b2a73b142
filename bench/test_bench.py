"""The benchmark's own checks: correct CLI output passes, and each kind of
wrong answer is counted as a failure.

    python3 -m pytest bench/test_bench.py

Uses small instances of the workload classes so that it runs in seconds.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest  # noqa: E402

from bookturan.cli import main  # noqa: E402
from workloads import WORKLOADS, Families, Search  # noqa: E402


def run(calls):
    outputs = []
    for argv in calls:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        outputs.append((code, buf.getvalue()))
    return outputs


def replace_once(outputs, index, old, new):
    code, text = outputs[index]
    assert old in text
    changed = list(outputs)
    changed[index] = (code, text.replace(old, new, 1))
    return changed


@pytest.fixture(scope="module")
def bb_run():
    workload = Search("bb", 9, 3, 2)
    expected = workload.expect(seed=1)
    return workload, expected, run(workload.calls(1, Path(".")))


@pytest.fixture(scope="module")
def families_run(tmp_path_factory):
    workload = Families(rs=(3, 5), k=2, n_from=9, n_to=12,
                        corpus_orders={3: (13, 19), 5: (21,)},
                        findings=frozenset({(5, 9), (5, 10)}))
    calls = workload.calls(7, tmp_path_factory.mktemp("corpus"))
    return workload, workload.expect(seed=7), run(calls)


def test_correct_search_passes(bb_run):
    workload, expected, outputs = bb_run
    attempted, failures, counters = workload.check(expected, outputs)
    assert (attempted, failures) == (1, [])
    assert counters["search.nodes"] > 0


def test_wrong_optimum_fails(bb_run):
    workload, expected, outputs = bb_run
    opt = expected["optimum"]
    bad = replace_once(outputs, 0, f"optimum={opt}", f"optimum={opt + 1}")
    assert len(workload.check(expected, bad)[1]) == 1


def test_wrong_extremal_set_fails(bb_run):
    workload, expected, outputs = bb_run
    code, text = outputs[0]
    dropped = [(code, "\n".join(text.splitlines()[:-1]) + "\n")]
    assert len(workload.check(expected, dropped)[1]) == 1
    other = [(code, text.replace(expected["extremal"][0], "H?????{", 1))]
    assert len(workload.check(expected, other)[1]) == 1


def test_non_exhaustive_and_crashed_search_fail(bb_run):
    workload, expected, outputs = bb_run
    bad = replace_once(outputs, 0, "exhaustive=true", "exhaustive=false")
    assert len(workload.check(expected, bad)[1]) == 1
    assert workload.check(expected, [(None, "")])[:2] == (1, [
        "search exited with None"])


def test_changed_node_count_is_not_a_failure(bb_run):
    workload, expected, outputs = bb_run
    code, text = outputs[0]
    head, rest = text.split("\n", 1)
    nodes = [tok for tok in head.split() if tok.startswith("nodes=")][0]
    changed = [(code, head.replace(nodes, "nodes=1") + "\n" + rest)]
    assert workload.check(expected, changed)[1] == []


def test_correct_families_pass(families_run):
    workload, expected, outputs = families_run
    attempted, failures, _ = workload.check(expected, outputs)
    corpus_size = sum(len(c) for c in expected["corpora"].values())
    assert attempted == 2 * 4 + corpus_size
    assert failures == []
    assert "verdict=DISAGREE" in outputs[1][1]


def test_changed_verdict_fails(families_run):
    workload, expected, outputs = families_run
    lost_finding = replace_once(outputs, 1, "verdict=DISAGREE", "verdict=AGREE")
    assert len(workload.check(expected, lost_finding)[1]) == 1
    new_finding = replace_once(outputs, 0, "verdict=AGREE", "verdict=DISAGREE")
    assert len(workload.check(expected, new_finding)[1]) == 1


def test_wrong_candidate_line_fails(families_run):
    workload, expected, outputs = families_run
    bad = replace_once(outputs, 2, "candidate=true", "candidate=false")
    failures = workload.check(expected, bad)[1]
    assert len(failures) == 1 and "candidate=false" in failures[0]


def test_invalid_witness_fails(families_run):
    workload, expected, outputs = families_run
    code, text = outputs[2]
    line = next(ln for ln in text.splitlines() if "coloring=" in ln)
    colors = line.split("coloring=")[1].split()[0]
    same = ",".join("0" for _ in colors.split(","))
    bad = [outputs[0], outputs[1], (code, text.replace(colors, same, 1)),
           outputs[3]]
    assert len(workload.check(expected, bad)[1]) == 1


def test_crashed_call_fails_every_answer(families_run):
    workload, expected, outputs = families_run
    crashed = [outputs[0], (None, ""), outputs[2], outputs[3]]
    attempted, failures, _ = workload.check(expected, crashed)
    assert len(failures) == 4


def test_corpus_depends_only_on_seed(families_run):
    workload, expected, _ = families_run
    again = workload.expect(seed=7)["corpora"]
    other = workload.expect(seed=8)["corpora"]
    rows = lambda corpora: [c.graph.rows for c in corpora[3]]  # noqa: E731
    assert rows(again) == rows(expected["corpora"])
    assert rows(other) != rows(expected["corpora"])
    assert [c.kind for c in other[3]] == [c.kind for c in again[3]]


def test_metric_names_match_benchmark_json():
    import run

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", run.END_TO_END_UNITS),
                       ("per_layer", run.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in spec[key]} == units
    assert set(run.SELF_TIMES) <= set(run.PER_LAYER_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


TRACED_SEARCH = """
import contextlib, io, json, sys, time
sys.path[:0] = sys.argv[1:3]
import bookturan.cli as cli
from tracing import Tracer
tracer = Tracer()
tracer.install()
argv = ["search", "--n", "7", "--r", "3", "--k", "1", "--method", "enumerate"]
t0 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(argv)
print(json.dumps(tracer.summary(time.perf_counter() - t0, [argv])))
"""


def test_tracer_sees_calls_through_imported_names():
    import subprocess

    import run

    proc = subprocess.run([sys.executable, "-c", TRACED_SEARCH,
                           str(run.ROOT / "src"), str(run.BENCH)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    layers = json.loads(proc.stdout)
    # search calls canon_rows and is_r_colorable through its own bindings
    assert layers["canon.calls"] > 1000
    assert layers["checkers.color.calls"] > 0
    assert layers["search.self_s"] > 0
    covered = sum(layers[name] for name in run.SELF_TIMES)
    assert abs(covered - layers["trace.wall_s"]) < 1e-6


def test_speed_probe_samples_while_the_program_runs():
    import time

    from speed import SpeedProbe

    idle = SpeedProbe()
    with pytest.raises(RuntimeError):
        idle.slice_s()
    probe = SpeedProbe(interval=0.02)
    probe.start()
    try:
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            pass
    finally:
        probe.stop()
    assert probe.slices >= 5
    assert 0 < probe.slice_s() < probe.spent
