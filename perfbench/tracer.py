"""Per-layer timing of pchgrav from outside the package.

`Tracer.install` replaces every public function of every loaded pchgrav
module with a timing wrapper, in every module namespace that binds it
(so `from .grid import wedge_fields` call sites are timed too) and in
module-level dicts that hold it (such as `suites.SUITE_FUNCS`).  Each call
is a span keyed `<defining module>.<function>`; a span's self time is its
duration minus the time of the spans it directly caused.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
from collections import Counter

PACKAGE = "pchgrav"

# calls of the first key made while the second key is on the stack
NESTED = (
    ("constraints.projector_pack", "constraints.hamiltonian_vector_field"),
    ("constraints.certify", "constraints.poisson_bracket"),
    ("constraints.eval_J", "ehdata.compare_pch_eh"),
)
# positional index of the path argument of the field I/O functions
IO_PATH_ARG = {"grid.save_field": 1, "grid.load_field": 0}


class SpanStats:
    __slots__ = ("calls", "incl_s", "self_s", "raised")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.raised = Counter()


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.nested = Counter()
        self.io_bytes = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list = []

    def _thread_state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []           # child-time accumulators of open spans
            st.active = Counter()   # open span keys
        return st

    def _wrap(self, key: str, fn):
        stats = self.stats.setdefault(key, SpanStats())
        watched = [outer for inner, outer in NESTED if inner == key]
        path_arg = IO_PATH_ARG.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ts = self._thread_state()
            outermost = ts.active[key] == 0
            nested_in = [outer for outer in watched if ts.active[outer]]
            child = [0.0]
            ts.stack.append(child)
            ts.active[key] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                stats.raised[type(exc).__name__] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                ts.stack.pop()
                ts.active[key] -= 1
                if ts.stack:
                    ts.stack[-1][0] += dt
                nbytes = 0
                if path_arg is not None and len(args) > path_arg:
                    try:
                        nbytes = os.path.getsize(args[path_arg])
                    except OSError:
                        pass
                with self._lock:
                    stats.calls += 1
                    stats.self_s += dt - child[0]
                    if outermost:
                        stats.incl_s += dt
                    for outer in nested_in:
                        self.nested[(key, outer)] += 1
                    self.io_bytes += nbytes

        return traced

    def install(self):
        """Wrap the public functions of every loaded pchgrav module."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith(PACKAGE + ".") and m is not None]
        wrappers: dict[int, object] = {}

        def wrapper_for(obj):
            if not (inspect.isfunction(obj) and not obj.__name__.startswith("_")
                    and obj.__module__.startswith(PACKAGE + ".")):
                return None
            if id(obj) not in wrappers:
                key = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                wrappers[id(obj)] = self._wrap(key, obj)
            return wrappers[id(obj)]

        for mod in modules:
            for name, obj in list(vars(mod).items()):
                w = wrapper_for(obj)
                if w is not None:
                    self._undo.append((vars(mod), name, obj))
                    vars(mod)[name] = w
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        w = wrapper_for(v)
                        if w is not None:
                            self._undo.append((obj, k, v))
                            obj[k] = w

    def uninstall(self):
        for container, name, original in reversed(self._undo):
            container[name] = original
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


# per-layer metrics: functions reported by self time, by call count, and by
# inclusive time (outermost calls only); module totals; suite wall times
SELF_S = (
    "grid.wedge_fields", "grid.cov_deriv", "grid.curvature", "grid.save_field",
    "grid.load_field", "wedgemaps.complete_frame", "wedgemaps.compound_matrix",
    "wedgemaps.wedge_matrix", "wedgemaps.kernel_basis", "reduction.omega_tilde",
    "reduction.kernel_intersection_dim", "constraints.make_on_shell", "constraints.eval_J",
    "constraints.eval_L", "constraints.projector_pack", "constraints.hamiltonian_vector_field",
    "constraints.a_dagger", "ehdata.compare_pch_eh", "ehdata.orthonormal_frame",
    "ehdata.split_connection", "ehdata.eh_data", "ehdata.ricci_scalar_via_metric",
    "report.write_report", "cli.main", "config.load_config",
)
CALLS = (
    "grid.wedge_fields", "wedgemaps.complete_frame", "reduction.omega_tilde",
    "constraints.certify", "constraints.eval_J", "constraints.projector_pack",
    "constraints.poisson_bracket", "ehdata.compare_pch_eh",
)
INCL_S = (
    "constraints.make_on_shell", "constraints.projector_pack", "reduction.omega_tilde",
    "ehdata.compare_pch_eh",
)
MODULE_SELF_S = ("fiber", "exactla", "halfshell")
MODULE_CALLS = ("fiber",)
SUITES = ("algebra", "kernels", "reduction", "constraints", "brackets", "eh", "halfshell")
# ratio name -> (nested pair from NESTED, function whose returned calls are the base)
RATIOS = {
    "constraints.projector_pack.per_hvf": (NESTED[0], "constraints.hamiltonian_vector_field"),
    "constraints.certify.per_bracket": (NESTED[1], "constraints.poisson_bracket"),
    "ehdata.eval_J_per_compare": (NESTED[2], "ehdata.compare_pch_eh"),
}


def layer_metrics(tr: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced pass.  A function that was not found
    to wrap leaves its metrics out, so a caller can detect the gap."""
    s = tr.stats
    out = {}
    for key in SELF_S:
        if key in s:
            out[f"{key}.self_s"] = s[key].self_s
    for key in CALLS:
        if key in s:
            out[f"{key}.calls"] = s[key].calls
    for key in INCL_S:
        if key in s:
            out[f"{key}.incl_s"] = s[key].incl_s
    for mod in MODULE_SELF_S + MODULE_CALLS:
        members = [v for k, v in s.items() if k.split(".", 1)[0] == mod]
        if members:
            if mod in MODULE_SELF_S:
                out[f"{mod}.self_s"] = sum(v.self_s for v in members)
            if mod in MODULE_CALLS:
                out[f"{mod}.calls"] = sum(v.calls for v in members)
    for suite in SUITES:
        key = f"suites.run_{suite}"
        if key in s:
            out[f"suites.{suite}.wall_s"] = s[key].incl_s
    for name, (pair, base) in RATIOS.items():
        if pair[0] in s and pair[1] in s and base in s:
            returned = s[base].calls - sum(s[base].raised.values())
            out[name] = tr.nested[pair] / returned if returned else 0.0
    if "grid.save_field" in s and "grid.load_field" in s:
        out["grid.io_bytes"] = tr.io_bytes
    if "constraints.directional_derivative" in s:
        out["constraints.richardson_errors"] = \
            s["constraints.directional_derivative"].raised["RichardsonError"]
    out["trace.wall_s"] = traced_wall
    out["trace.overhead"] = traced_wall / untraced_wall
    out["trace.covered_share"] = sum(v.self_s for v in s.values()) / traced_wall
    return out
