"""Pass-through timers around the library's public functions.

The tracer patches module attributes, so calls the library makes through
its own module globals are seen too (``solve_admm`` calling
``admm_u_update``, ``solve_multipath`` calling ``allocate_subflows``).
Solver-level calls are recorded as spans (name, start, end, parent span,
job call); calls made once per iteration or per class are aggregated per
job call into a count and a total time. Every frame knows the time its
children took, so each span and counter also gets a self time.
Everything stays in memory until the run writes it out.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager


def _solution(res):
    return {"iters": res.n_iter, "converged": res.converged}


# (module, attribute, layer name, extractor of span extras or None for a counter)
TARGETS = (
    ("numflow.solvers", "solve_admm", "solvers.admm", _solution),
    ("numflow.solvers", "solve_cp", "solvers.cp", _solution),
    ("numflow.solvers", "solve_gradproj", "solvers.gradproj", _solution),
    ("numflow.solvers", "solve_pwl_aggregate", "solvers.pwl", _solution),
    ("numflow.solvers", "simplex_maximize", "solvers.simplex", lambda r: {"iters": r[3]}),
    ("numflow.multipath", "solve_multipath_aggregate", "multipath",
     lambda r: {"iters": r[3], "converged": r[4]}),
    ("numflow.solvers", "spd_prefactor", "solvers.spd_prefactor", None),
    ("numflow.solvers", "admm_u_update", "solvers.admm_u_update", None),
    ("numflow.solvers", "project_polytope_with_duals", "solvers.project", None),
    ("numflow.multipath", "project_polytope_with_duals", "solvers.project", None),
    ("numflow.solvers", "pwl_apportion", "pwl.apportion", None),
    ("numflow.multipath", "allocate_subflows", "multipath.allocate", None),
    ("numflow.utility", "aggregate_class", "utility.aggregate_class", None),
    ("numflow.utility", "pwl_supconv", "pwl.supconv", None),
    ("numflow.harness", "kkt_check_single_path", "utility.kkt_check", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        # (job call id, layer) -> [calls, total seconds, self seconds]
        self.counters: dict[tuple[int, str], list] = {}
        self._stack: list[dict] = []   # open frames, innermost last
        self._call = -1

    def _enter(self, name: str, is_span: bool) -> dict:
        parent = next((f["span"] for f in reversed(self._stack) if f["span"] is not None), None)
        frame = {"name": name, "child": 0.0, "span": None, "t0": time.perf_counter()}
        if is_span:
            frame["span"] = len(self.spans)
            self.spans.append({"name": name, "call": self._call, "parent": parent,
                               "start": frame["t0"]})
        self._stack.append(frame)
        return frame

    def _exit(self, frame: dict, extras: dict | None = None) -> None:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame["t0"]
        if self._stack:
            self._stack[-1]["child"] += dur
        if frame["span"] is not None:
            span = self.spans[frame["span"]]
            span.update(end=end, self_s=dur - frame["child"], **(extras or {}))
        else:
            entry = self.counters.setdefault((self._call, frame["name"]), [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - frame["child"]

    @contextmanager
    def job(self, call_id: int, name: str):
        """Span of one job call; every record made inside carries ``call_id``."""
        self._call = call_id
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(frame)

    def _wrap(self, fn, name: str, extract):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name, extract is not None)
            extras = None
            try:
                result = fn(*args, **kwargs)
                if extract is not None:
                    extras = extract(result)
                return result
            finally:
                self._exit(frame, extras)

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for mod_name, attr, name, extract in TARGETS:
                mod = importlib.import_module(mod_name)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._wrap(getattr(mod, attr), name, extract))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def call_records(self, call_id: int) -> dict[str, float]:
        """Additive per-layer quantities of one job call.

        Keys: ``<layer>.s``, ``<layer>.iters``, ``<layer>.converged`` for
        spans; ``<layer>.calls``, ``<layer>.s`` for counters; and
        ``self:<layer>`` self seconds for both, including the job span.
        """
        out: dict[str, float] = {}

        def add(key, value):
            out[key] = out.get(key, 0.0) + float(value)

        for span in self.spans:
            if span["call"] != call_id:
                continue
            layer = "job" if span["parent"] is None else span["name"]
            add(f"{layer}.s", span["end"] - span["start"])
            add(f"self:{layer}", span["self_s"])
            for key in ("iters", "converged"):
                if key in span:
                    add(f"{layer}.{key}", span[key])
        for (call, layer), (calls, total, self_s) in self.counters.items():
            if call == call_id:
                add(f"{layer}.calls", calls)
                add(f"{layer}.s", total)
                add(f"self:{layer}", self_s)
        return out
