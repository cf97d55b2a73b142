"""Outside-in tracing of the bookturan layers, installed from the benchmark.

Every public function of the traced modules is replaced by a wrapper that
records one span (name, start, end, enclosing span).  The wrapper is bound
under every module attribute that held the original function, so a call
through ``from .canon import canon_rows`` inside ``search`` is traced just
like a call to ``bookturan.canon.canon_rows``.  Calls made through data
structures that captured the function before the patch (such as the
family-builder table in ``constructions``) stay inside their caller's span,
which lies in the same module.

Not traced, so their time stays in their callers' self time: ``graphs``
(sub-microsecond bitmask operations, where a wrapper would cost more than
the call), ``formulas`` (under 1% of every workload), ``canon.pack_rows``
and ``checkers.greedy_clique`` (small helpers called once per search leaf or
per colouring).

Spans are kept in memory, in flat arrays, while the program runs.  They are
reduced to per-function and per-layer totals only at the end, so the
traced calls do no I/O.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

MODULES = ("graph6", "canon", "constructions", "checkers", "search", "cli")
SKIP = {"canon.pack_rows", "checkers.greedy_clique"}
# spans whose result (None or not) is recorded, for the outcome ratios
OUTCOME = {"checkers.contains_generalized_book", "checkers.is_r_colorable"}


def layer_of(name: str) -> str:
    """Layer that a traced function's self time is charged to."""
    return {"search.family_optimizer": "search.family_optimizer",
            "checkers.contains_generalized_book": "checkers.book",
            "checkers.is_r_colorable": "checkers.color",
            "checkers.is_nonpartite_book_free": "checkers.candidacy",
            }.get(name, name.split(".")[0])


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outcome = array("b")
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, outcome = (
            self.name_id, self.parent, self.start, self.end, self.outcome)
        stack = self._stack
        clock = time.perf_counter
        keep_outcome = name in OUTCOME

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            outcome.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if keep_outcome and result is not None:
                outcome[i] = 1
            return result

        return traced

    def install(self) -> None:
        """Rebind every public function of the traced modules wherever a
        bookturan module holds it."""
        package = [m for key, m in list(sys.modules.items())
                   if key == "bookturan" or key.startswith("bookturan.")]
        for short in MODULES:
            mod = sys.modules[f"bookturan.{short}"]
            for attr, fn in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in SKIP
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(name, fn)
                for holder in package:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapper)

    def functions(self) -> dict[str, list]:
        """Per traced function: [calls, total s, self s, non-None results].
        Self time is a span's duration minus that of its child spans."""
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        out: dict[str, list] = {}
        for i in range(count):
            f = out.setdefault(self.names[self.name_id[i]], [0, 0.0, 0.0, 0])
            f[0] += 1
            f[1] += dur[i]
            f[2] += dur[i] - child[i]
            f[3] += self.outcome[i]
        return out

    def summary(self, wall_s: float, calls: list[list[str]]) -> dict:
        """Per-layer figures of the traced calls; the layers' self times plus
        the unattributed time add up to wall_s."""
        funcs = self.functions()
        self_s: dict[str, float] = {}
        for name, (_, _, own, _) in funcs.items():
            layer = layer_of(name)
            self_s[layer] = self_s.get(layer, 0.0) + own
        # top-level spans are the cli.main calls, in the order of calls
        top = [self.end[i] - self.start[i] for i in range(len(self.start))
               if self.parent[i] < 0]
        cli_s = {"verify": 0.0, "check": 0.0}
        for duration, argv in zip(top, calls):
            if argv[0] in cli_s:
                cli_s[argv[0]] += duration
        checkers_s = sum(v for k, v in self_s.items() if k.startswith("checkers"))
        none = [0, 0.0, 0.0, 0]
        canon = funcs.get("canon.canon_rows", none)
        book = funcs.get("checkers.contains_generalized_book", none)
        color = funcs.get("checkers.is_r_colorable", none)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "canon.calls": canon[0],
            "canon.self_s": self_s.get("canon", 0.0),
            "canon.us_per_call": ratio(canon[1] * 1e6, canon[0]),
            "search.self_s": self_s.get("search", 0.0),
            "search.family_optimizer.self_s":
                self_s.get("search.family_optimizer", 0.0),
            "checkers.self_s": checkers_s,
            "checkers.book.calls": book[0],
            "checkers.book.self_s": self_s.get("checkers.book", 0.0),
            "checkers.book.found_ratio": ratio(book[3], book[0]),
            "checkers.color.calls": color[0],
            "checkers.color.self_s": self_s.get("checkers.color", 0.0),
            "checkers.color.colorable_ratio": ratio(color[3], color[0]),
            "checkers.candidacy.calls":
                funcs.get("checkers.is_nonpartite_book_free", none)[0],
            "constructions.self_s": self_s.get("constructions", 0.0),
            "graph6.decode.calls": funcs.get("graph6.decode_graph6", none)[0],
            "graph6.self_s": self_s.get("graph6", 0.0),
            "cli.verify_s": cli_s["verify"],
            "cli.check_s": cli_s["check"],
            "cli.self_s": self_s.get("cli", 0.0),
            "trace.wall_s": wall_s,
            "trace.unattributed_s": wall_s - sum(top),
        }
