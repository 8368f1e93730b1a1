"""Span tracing from outside the program.

`install` replaces public functions at the module (or class) attributes
the program looks up at call time with wrappers that record one span per
call: name, start, end, parent span and op id.  Spans stay in memory as
parallel lists; `Tracer.save` writes them once, when the run ends, and
`Tracer.self_times` derives each span name's self time from them.

A layer is the package module a span name starts with: linalg, sdp,
ellipsoid, oracle, api, cli.  The harness's own span per op is "bench.op".
"""

from __future__ import annotations

import contextlib
import importlib
import time

import numpy as np

# (module, attribute, span name); a class attribute is "module:Class".
# Both api and cli import the linalg helpers by name, so both copies are
# wrapped; cli reaches the library entry point through its own name too.
TARGETS = (
    ("crawford.linalg:ComplexMatrix", "translate", "linalg.translate"),
    ("crawford.api", "clear_denominators", "linalg.clear_denominators"),
    ("crawford.api", "hermitian_split", "linalg.hermitian_split"),
    ("crawford.api", "frobenius_ceiling", "linalg.frobenius_ceiling"),
    ("crawford.cli", "clear_denominators", "linalg.clear_denominators"),
    ("crawford.cli", "hermitian_split", "linalg.hermitian_split"),
    ("crawford.cli", "frobenius_ceiling", "linalg.frobenius_ceiling"),
    ("crawford.sdp", "build_instance", "sdp.build_instance"),
    ("crawford.sdp", "export_sdpa", "sdp.export_sdpa"),
    ("crawford.ellipsoid", "certified_ball", "ellipsoid.certified_ball"),
    ("crawford.ellipsoid", "build_chart", "ellipsoid.build_chart"),
    ("crawford.ellipsoid", "solve", "ellipsoid.solve"),
    ("crawford.ellipsoid", "separation_oracle", "ellipsoid.separation_oracle"),
    ("crawford.ellipsoid", "repair_point", "ellipsoid.repair_point"),
    ("crawford.ellipsoid:AffineChart", "point", "ellipsoid.point"),
    ("crawford.oracle", "support_search", "oracle.support_search"),
    ("crawford.api", "crawford", "api.crawford"),
    ("crawford.cli", "crawford", "api.crawford"),
    ("crawford.cli", "load_matrix", "cli.load_matrix"),
    ("crawford.cli", "main", "cli.main"),
)


def _resolve(spec: str):
    mod, _, cls = spec.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.op: list = []
        self._stack: list = []
        self.op_id = -1
        self.counts = {
            "iterations": 0,
            "feasibility_cuts": 0,
            "cap_exceeded": 0,
            "oracle_evals": 0,
            "scale_digits_max": 0,
        }

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, after=None, on_error=None):
        nid = self._nid(name)
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception as e:
                if on_error is not None:
                    on_error(e)
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return traced

    # --- counters read from return values ---------------------------

    def _after_solve(self, res):
        self.counts["iterations"] += int(res.iterations)

    def _solve_error(self, e):
        if type(e).__name__ == "EllipsoidCapExceeded":
            self.counts["cap_exceeded"] += 1
            self.counts["iterations"] += int(e.iterations)

    def _after_separation(self, cut):
        if cut.kind == "feasibility":
            self.counts["feasibility_cuts"] += 1

    def _after_search(self, search):
        self.counts["oracle_evals"] += int(search.grid_size)

    def _after_clear(self, res):
        digits = len(str(abs(int(res[1]))))
        if digits > self.counts["scale_digits_max"]:
            self.counts["scale_digits_max"] = digits

    def _count_refinement(self, fn):
        def counted(*args, **kwargs):
            self.counts["oracle_evals"] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def install(self):
        """Patch every target; restore on exit.  A target the program no
        longer has raises AttributeError: a change that renames a traced
        function must update TARGETS with it."""
        hooks = {
            "ellipsoid.solve": (self._after_solve, self._solve_error),
            "ellipsoid.separation_oracle": (self._after_separation, None),
            "oracle.support_search": (self._after_search, None),
            "linalg.clear_denominators": (self._after_clear, None),
        }
        saved = []
        try:
            for spec, attr, name in TARGETS:
                owner = _resolve(spec)
                fn = getattr(owner, attr)
                after, on_error = hooks.get(name, (None, None))
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, after, on_error))
            # the oracle's refinement evaluations: counted, not spanned
            oracle = _resolve("crawford.oracle")
            saved.append((oracle, "_gmin_at", oracle._gmin_at))
            oracle._gmin_at = self._count_refinement(oracle._gmin_at)
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # --- output -------------------------------------------------------

    def arrays(self):
        return (
            np.asarray(self.name, dtype=np.int32),
            np.asarray(self.start, dtype=np.float64),
            np.asarray(self.end, dtype=np.float64),
            np.asarray(self.parent, dtype=np.int64),
            np.asarray(self.op, dtype=np.int32),
        )

    def save(self, path) -> None:
        name, start, end, parent, op = self.arrays()
        np.savez_compressed(
            path, names=np.asarray(self.names), name=name, start=start,
            end=end, parent=parent, op=op,
        )

    def self_times(self) -> dict:
        """name -> (calls, total duration, total self time).  Self time is
        a span's duration minus that of its direct children; calls are
        sequential in one thread, so children never overlap."""
        name, start, end, parent, _ = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        own = dur - child
        out = {}
        for nid, nm in enumerate(self.names):
            sel = name == nid
            out[nm] = (int(sel.sum()), float(dur[sel].sum()), float(own[sel].sum()))
        return out
