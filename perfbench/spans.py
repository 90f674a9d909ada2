"""Span tracing of pblayers from outside the package.

The tracer wraps the public functions listed in TARGETS in every pblayers
module namespace that binds them: `cli`, `ccpb` and `radial_oracle` import
their callees with `from ... import`, so wrapping only the defining module
would miss most calls.  Methods are wrapped on their class.  Each call
becomes a span (id, parent id, op id, name, start, end, counts) kept in
memory; self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _oracle_counts(args, kwargs, res):
    return {"newton_iters": res.newton_iters, "outer_iters": res.outer_iters,
            "n_nodes": len(res.r)}


def _grid_points(args, kwargs, res):
    ts = kwargs["ts"] if "ts" in kwargs else args[3]
    return {"points": len(ts)}


# (layer, attribute path in the defining module, counter of the result)
TARGETS = (
    ("cli", "main", None),
    ("nonlinearity", "find_reference_potential", None),
    ("nonlinearity", "make_classical_pb", None),
    ("nonlinearity", "make_f0", None),
    ("nonlinearity", "make_fhat1", None),
    ("nonlinearity", "make_f1", None),
    ("profiles", "boundary_potential", None),
    ("profiles", "solve_u", None),
    ("profiles", "solve_v", None),
    ("profiles", "solve_theta", None),
    ("profiles", "solve_w", None),
    ("profiles", "Profile.to_csv", None),
    ("ccpb", "ccpb_constants", None),
    ("ccpb", "solve_phi0", None),
    ("ccpb", "compute_mhat", None),
    ("ccpb", "compute_q", None),
    ("radial_oracle", "graded_radial_grid", None),
    ("radial_oracle", "solve_radial_robin_pb", _oracle_counts),
    ("radial_oracle", "solve_radial_ccpb", _oracle_counts),
    ("radial_oracle", "compare_expansion", None),
    ("radial_oracle", "RadialSolveResult.to_csv", None),
    ("asymptotics", "grid_rows", _grid_points),
    ("asymptotics", "region_charge", None),
)

ORACLE_SOLVES = ("radial_oracle.solve_radial_robin_pb", "radial_oracle.solve_radial_ccpb")


def _span_name(layer: str, path: str) -> str:
    return f"{layer}.{path.rsplit('.', 1)[-1]}"


def _unwrapped(obj):
    return getattr(obj, "__wrapped__", obj)


class Tracer:
    """Records spans while installed; `install`/`uninstall` swap the wrappers
    in and out so that untraced ops run the program unmodified."""

    def __init__(self):
        self.spans = []  # [id, parent, op, name, t0, t1, counts]
        self._stack = []
        self._saved = []
        self.op = None

    def _wrap(self, name, fn, counter):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, self.op, name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                stack.pop()
            if counter is not None:
                rec[6] = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pblayers" or n.startswith("pblayers."))]
        for layer, path, counter in TARGETS:
            name = _span_name(layer, path)
            home = sys.modules[f"pblayers.{layer}"]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(home, cls_name)
                fn = cls.__dict__[meth]
                self._saved.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(name, fn, counter))
                continue
            original = _unwrapped(getattr(home, path))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if callable(value) and _unwrapped(value) is original:
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, self._wrap(name, value, counter))

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def write(self, path):
        keys = ("id", "parent", "op", "name", "start", "end", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)

    def per_op_metrics(self, n_ops: int) -> dict:
        """Per-layer metrics as means per traced op."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[1] is not None:
                child_time[s[1]] += s[5] - s[4]
        total = {}

        def add(key, value):
            total[key] = total.get(key, 0.0) + value

        for s in self.spans:
            sid, parent, _, name, t0, t1, counts = s
            counts = counts or {}  # none when the call raised
            dur = t1 - t0
            self_s = dur - child_time[sid]
            add(f"{name}.s", dur)
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", self_s)
            add(f"{name.split('.')[0]}.self_s", self_s)
            if name == "radial_oracle.solve_radial_robin_pb":
                add("radial_oracle.newton_iters", counts.get("newton_iters", 0))
            if name == "radial_oracle.solve_radial_ccpb":
                add("radial_oracle.outer_iters", counts.get("outer_iters", 0))
            if name in ORACLE_SOLVES and (
                parent is None or self.spans[parent][3] not in ORACLE_SOLVES
            ):
                add("radial_oracle.n_nodes", counts.get("n_nodes", 0))
            if name == "asymptotics.grid_rows":
                add("asymptotics.grid_rows.points", counts.get("points", 0))
        return {k: v / n_ops for k, v in total.items()}
