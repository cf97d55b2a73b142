"""One benchmark sample, in a fresh process started by ``run.py``.

    python3 bench/sample.py WORKLOAD SEED WORKDIR CPU SPAWNED TRACED

The process pins itself to CPU (``run.py`` already starts it there).
SPAWNED is the CLOCK_MONOTONIC reading the parent took just before starting
this process, so ``setup_raw_s`` runs from process start until the inputs
are ready: interpreter start, ``import bookturan`` and building the
workload's inputs.  The workload's CLI calls then run in this process
through ``bookturan.cli.main`` with their output captured; ``wall_raw_s`` is
their total wall time.

With TRACED=0 the host-speed probe of ``speed.py`` runs from the start of
``main`` to the end of the calls; the time spent in its slices is taken out
of both raw times, and ``setup_s`` and ``wall_s`` are the raw times
normalised by the sample's mean slice time.  With TRACED=1 there is no probe
(its slices would land in the spans); the outside-in tracer is installed
after set-up, the times are raw, and the per-layer figures are added.
Prints one JSON object.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    workload, seed, workdir, cpu, spawned, traced = sys.argv[1:7]
    os.sched_setaffinity(0, {int(cpu)})
    bench = Path(__file__).resolve().parent
    sys.path.insert(0, str(bench))
    from speed import NOMINAL_SLICE_S, SpeedProbe

    probe = None if traced == "1" else SpeedProbe()
    if probe:
        probe.start()
    sys.path.insert(0, str(bench.parent / "src"))
    import bookturan.cli as cli
    from workloads import WORKLOADS

    calls = WORKLOADS[workload].calls(int(seed), Path(workdir))
    setup_raw_s = time.clock_gettime(time.CLOCK_MONOTONIC) - float(spawned)
    setup_probe_s = probe.spent if probe else 0.0
    tracer = None
    if traced == "1":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    outputs = []
    t0 = time.perf_counter()
    probe_t0 = probe.spent if probe else 0.0
    for argv in calls:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed answer, not a lost run
            code = f"{type(exc).__name__}: {exc}"
        outputs.append((code, buf.getvalue()))
    wall_raw_s = time.perf_counter() - t0
    if probe:
        probe.stop()
        wall_raw_s -= probe.spent - probe_t0
        setup_raw_s -= setup_probe_s
        scale = NOMINAL_SLICE_S / probe.slice_s()
    else:
        scale = 1.0

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "setup_s": setup_raw_s * scale,
        "wall_s": wall_raw_s * scale,
        "setup_raw_s": setup_raw_s,
        "wall_raw_s": wall_raw_s,
        "slice_s": probe.slice_s() if probe else None,
        "slices": probe.slices if probe else 0,
        "peak_rss_mb": peak_kib / 1024,
        "outputs": outputs,
        "layers": tracer.summary(wall_raw_s, calls) if tracer else None,
        "functions": tracer.functions() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
