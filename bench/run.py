"""bookturan benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's CLI calls (see ``workloads.py``) in fresh processes, one
process per sample with one worker.  Samples run back to back in one stream
per usable CPU (at most two), each stream pinned to its CPU, until the next
sample of a stream would end after S seconds; the run takes at least
MIN_SAMPLES samples (MIN_TRACED_SAMPLES of each kind when tracing).  Every
answer is checked against its independent expectation once all samples are
done.

The last line of standard output is one JSON object: with ``--trace 0`` the
end-to-end metrics (medians over the samples; the times normalised to a
nominal host speed by the probe in ``speed.py``), with ``--trace 1`` the
per-layer metrics of a traced sample, in raw seconds (no probe runs in a
traced sample, as its slices would land in the spans).  When tracing, each stream alternates
untraced and traced samples, the two streams out of phase, so the tracing
overhead is measured under the same conditions.  Lines before the JSON give
the machine notes, a summary and, when tracing, the per-function span
totals of the picked traced sample.

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Exits 2 without a result when that is missing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = BENCH / ".work"
MAX_STREAMS = 2
MIN_SAMPLES = 3
MIN_TRACED_SAMPLES = 2  # of each kind
# the run must end within 180 s; the last sample is cut at this point
HARD_LIMIT_S = 165.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "canon.calls": "count", "canon.self_s": "s", "canon.us_per_call": "us",
    "search.nodes": "count", "search.self_s": "s",
    "search.canon_per_node": "ratio", "search.family_optimizer.self_s": "s",
    "checkers.self_s": "s",
    "checkers.book.calls": "count", "checkers.book.self_s": "s",
    "checkers.book.found_ratio": "ratio",
    "checkers.color.calls": "count", "checkers.color.self_s": "s",
    "checkers.color.colorable_ratio": "ratio",
    "checkers.candidacy.calls": "count", "constructions.self_s": "s",
    "graph6.decode.calls": "count", "graph6.self_s": "s",
    "cli.verify_s": "s", "cli.check_s": "s", "cli.self_s": "s",
    "trace.wall_s": "s", "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}
# layers whose self times, with the unattributed time, partition trace.wall_s
SELF_TIMES = ("canon.self_s", "search.self_s",
              "search.family_optimizer.self_s", "checkers.self_s",
              "constructions.self_s", "graph6.self_s", "cli.self_s",
              "trace.unattributed_s")


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_sample(workload: str, seed: int, traced: bool, cpu: int,
               timeout: float) -> dict | None:
    """One fresh-process sample; None when the process fails or times out."""
    cmd = [sys.executable, str(BENCH / "sample.py"), workload, str(seed),
           str(WORKDIR / f"cpu{cpu}"), str(cpu), repr(_clock()),
           "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"sample timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"sample exited with {proc.returncode}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        print("sample printed no result", file=sys.stderr)
        return None


def run_samples(args: argparse.Namespace, started: float) -> list:
    """All samples of the run, as (traced, result or None) pairs."""
    cpus = sorted(os.sched_getaffinity(0))[:MAX_STREAMS]
    modes = (False, True) if args.trace else (False,)
    least = MIN_TRACED_SAMPLES if args.trace else MIN_SAMPLES
    done: list[tuple[bool, dict | None]] = []  # appended to by every stream
    t0 = _clock()

    def enough() -> bool:
        return all(sum(1 for t, r in done if t == m and r) >= least
                   for m in modes)

    def stream(index: int, cpu: int) -> None:
        # affinity is per thread and inherited: samples start on their CPU
        os.sched_setaffinity(0, {cpu})
        for k in itertools.count(index):
            traced = modes[k % len(modes)]
            begun = _clock()
            timeout = max(1.0, HARD_LIMIT_S - (begun - started))
            done.append((traced, run_sample(args.workload, args.seed, traced,
                                            cpu, timeout)))
            now = _clock()
            last = now - begun
            if (enough() and now - t0 + last > args.seconds
                    or now - started + last > HARD_LIMIT_S):
                return

    threads = [threading.Thread(target=stream, args=(i, cpu))
               for i, cpu in enumerate(cpus)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    return done


def machine_notes(load_before: tuple[float, ...]) -> dict:
    numpy = sys.modules.get("numpy")  # present when bookturan imports it
    return {"cpus": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__ if numpy else None,
            "platform": platform.platform(),
            "loadavg_before": load_before, "loadavg_after": os.getloadavg()}


def median_traced(traced: list[dict]) -> dict:
    """The traced sample with the median wall time."""
    return sorted(traced, key=lambda s: s["wall_raw_s"])[(len(traced) - 1) // 2]


def per_layer(pick: dict, traced: list[dict], untraced: list[dict]) -> dict:
    """Layer figures of the picked traced sample."""
    layers = dict(pick["layers"])
    nodes = pick["counters"].get("search.nodes", 0)
    layers["search.nodes"] = nodes
    layers["search.canon_per_node"] = (layers["canon.calls"] / nodes
                                       if nodes else 0.0)
    layers["trace.overhead_s"] = (
        statistics.median(s["wall_raw_s"] for s in traced)
        - statistics.median(s["wall_raw_s"] for s in untraced))
    covered = sum(layers[name] for name in SELF_TIMES)
    if abs(covered - layers["trace.wall_s"]) > 1e-6 * max(1.0, covered):
        raise RuntimeError(f"self times add up to {covered}, not to the traced"
                           f" wall time {layers['trace.wall_s']}")
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = _clock()
    load_before = os.getloadavg()

    package = ROOT / "src" / "bookturan"
    if not (package / "__init__.py").is_file():
        print(f"error: no bookturan source at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bookturan
    from workloads import WORKLOADS

    if Path(bookturan.__file__).resolve().parent != package.resolve():
        print(f"error: imported bookturan from {bookturan.__file__}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    expected = workload.expect(args.seed)

    samples: dict[bool, list[dict]] = {False: [], True: []}
    attempted = failed = 0
    failures: list[str] = []
    for traced, result in run_samples(args, started):
        outputs = (result["outputs"] if result
                   else [[None, ""]] * workload.call_count)
        n, bad, counters = workload.check(expected, outputs)
        attempted += n
        failed += len(bad)
        failures.extend(bad)
        if result is not None:
            result["counters"] = counters
            samples[traced].append(result)

    for line in failures[:20]:
        print("FAIL", line, file=sys.stderr)
    if not samples[False] or args.trace and not samples[True]:
        print("error: no sample completed", file=sys.stderr)
        return 1
    plain = samples[False]
    walls = [s["wall_raw_s"] for s in plain]
    print("machine " + json.dumps(machine_notes(load_before)))
    print(f"summary workload={args.workload} seed={args.seed}"
          f" samples={len(plain)} traced_samples={len(samples[True])}"
          f" wall_raw_s_median={statistics.median(walls):.4f}"
          f" wall_raw_s_samples={','.join(f'{w:.3f}' for w in walls)}"
          " setup_raw_s_median="
          f"{statistics.median(s['setup_raw_s'] for s in plain):.4f}"
          " slice_ms_median="
          f"{1e3 * statistics.median(s['slice_s'] for s in plain):.3f}"
          f" attempted={attempted} failed={failed}"
          f" fail_ratio={failed / attempted:.6f}")
    if args.trace:
        pick = median_traced(samples[True])
        # per traced function: [calls, total s, self s, non-None results]
        print("spans " + json.dumps(pick["functions"], sort_keys=True))
        values = per_layer(pick, samples[True], plain)
        units = PER_LAYER_UNITS
    else:
        values = {name: statistics.median(s[name] for s in plain)
                  for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
