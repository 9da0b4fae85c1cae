"""Per-layer counters and timers, installed from outside the package.

``Tracer.install`` wraps the public entry points of each module of
``disknorms`` and rebinds every name that refers to the original function,
in the defining module and wherever another module imported it, so calls
inside the package go through the wrappers too.  Methods are wrapped on
their classes.  Nothing under ``src/`` is edited.

Each wrapped call is a span of (layer, kind).  A span is counted, and its
duration added to the kind's total, only when no span of the same kind is
open on the same thread, so internal calls (``pow`` -> ``log`` -> ``exp``,
``schwarzian_series`` -> ``pre_schwarzian_series``) count once.  A layer's
self time is the duration of its spans minus that of their child spans.

Spans on the main thread are timed in wall-clock time.  Spans on the
scan thread pool's threads are timed in that thread's CPU time
(``time.thread_time``): two threads share one interpreter lock there, and
wall-clock spans would also count the time each waits for the lock.  A
disksup scan's self time is its wall time minus the time of the
evaluations it requested on any thread, so thread-pool overhead and lock
hand-offs show up as disksup self time.  Glue code inside a scan's
callback that belongs to no wrapped function is counted in
``disksup.eval_s`` but in no layer's self time.

Counters are kept per thread and merged at the end, so counts are exact.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict


# (module, qualified name, kind); "Cls.*" entries name every catalog class
# that defines the method itself.
SPANS = {
    "series": [
        # eval and series_eval both end in eval_with_tail, the Horner pass
        ("series", "TaylorSeries.eval_with_tail", "eval"),
        *[("series", "TaylorSeries." + m, "build") for m in (
            "from_polynomial", "constant", "variable", "truncate", "shift_up",
            "__add__", "__sub__", "__neg__", "scale", "__mul__", "__truediv__",
            "diff", "integrate", "exp", "log", "pow")],
        *[("series", "series_" + m, "build") for m in (
            "mul", "div", "diff", "integrate", "exp", "log", "pow")],
    ],
    "catalog": [
        ("catalog", "random_member", "member"),
        ("catalog", "eval_derivatives", "deriv"),
        *[("catalog", "*." + m, "deriv") for m in (
            "derivatives", "deriv123", "value", "fourth_derivative")],
        ("catalog", "second_deriv_origin", "other"),
        ("catalog", "*.second_deriv_origin", "other"),
        ("catalog", "*.taylor", "other"),
        ("catalog", "SeriesFn.derivative_series", "other"),
    ],
    "derivatives": [
        ("derivatives", "pre_schwarzian_series", "series"),
        ("derivatives", "schwarzian_series", "series"),
        ("derivatives", "pre_schwarzian_at", "point"),
        ("derivatives", "schwarzian_at", "point"),
        ("derivatives", "pre_schwarzian_of", "point"),
        ("derivatives", "schwarzian_of", "point"),
        ("derivatives", "schwarzian_extremal_closed", "point"),
        ("derivatives", "pre_schwarzian_evaluator", "other"),
        ("derivatives", "schwarzian_evaluator", "other"),
    ],
    # weight_factor is a per-sample helper inside the scan, not an entry point
    "disksup": [
        ("disksup", "weighted_sup", "scan"),
        ("disksup", "weighted_inf_re", "scan"),
        ("disksup", "radial_profile", "other"),
        ("disksup", "random_disk_points", "other"),
    ],
    "robertson": [
        ("robertson", "robertson_margin", "margin"),
        ("robertson", "characterization_residuals", "residual"),
        *[("robertson", m, "other") for m in (
            "robertson_functional", "is_certified_member", "spirallike_margin",
            "duality_check", "phi_transform", "cubic_root", "univalence_criteria")],
    ],
    "theorems": [
        *[("theorems", m, "verify") for m in (
            "verify_T41", "verify_T42_distortion", "verify_T42_growth", "verify_T43",
            "verify_T44", "verify_T45", "lemma_schur_check")],
        ("theorems", "growth_bounds", "other"),
        ("theorems", "t45_bound", "other"),
    ],
    "quadrature": [
        ("quadrature", "quadrature", "call"),
        ("quadrature", "quadrature_complex", "call"),
    ],
    "cli": [("cli", "main", "command")],
}

class _ThreadState:
    __slots__ = ("clock", "stack", "open", "calls", "total", "self_s", "counts")

    def __init__(self):
        main = threading.current_thread() is threading.main_thread()
        self.clock = time.perf_counter if main else time.thread_time
        self.stack = []                   # open frames: [layer, kind, start, child]
        self.open = defaultdict(int)      # (layer, kind) -> open spans on this thread
        self.calls = defaultdict(int)     # (layer, kind) -> outermost spans
        self.total = defaultdict(float)   # (layer, kind) -> their duration
        self.self_s = defaultdict(float)  # layer -> self time
        self.counts = defaultdict(int)    # extra counters


class _Scan:
    """Evaluation time of one scan, added from whichever thread ran it."""

    __slots__ = ("lock", "eval_s")

    def __init__(self):
        self.lock = threading.Lock()
        self.eval_s = 0.0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._states_lock = threading.Lock()
        self._margin_keys = set()
        self._keep_alive = []
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(st)
        return st

    def _enter(self, st, layer, kind):
        frame = [layer, kind, st.clock(), 0.0]
        st.stack.append(frame)
        st.open[(layer, kind)] += 1
        return frame

    def _exit(self, st, frame, scan=None):
        dur = st.clock() - frame[2]
        st.stack.pop()
        key = (frame[0], frame[1])
        st.open[key] -= 1
        if st.open[key] == 0:
            st.calls[key] += 1
            st.total[key] += dur
        st.self_s[frame[0]] += dur - (frame[3] if scan is None else scan.eval_s)
        if st.stack:
            st.stack[-1][3] += dur

    def _span(self, fn, layer, kind):
        tracer = self

        if layer == "series" and fn.__name__ == "eval_with_tail":
            @functools.wraps(fn)
            def wrapper(series, *args, **kwargs):
                st = tracer._state()
                st.counts["series.eval_terms"] += len(series.coeffs)
                frame = tracer._enter(st, layer, kind)
                try:
                    return fn(series, *args, **kwargs)
                finally:
                    tracer._exit(st, frame)
            return wrapper

        if kind == "scan":
            @functools.wraps(fn)
            def wrapper(g, *args, **kwargs):
                st = tracer._state()
                scan = _Scan()
                frame = tracer._enter(st, layer, kind)
                try:
                    return fn(tracer._evaluation(g, scan), *args, **kwargs)
                finally:
                    tracer._exit(st, frame, scan)
            return wrapper

        if kind == "margin":
            @functools.wraps(fn)
            def wrapper(f, alpha, plan, *args, **kwargs):
                tracer._margin_keys.add((id(f), alpha, plan))
                tracer._keep_alive.append(f)
                st = tracer._state()
                frame = tracer._enter(st, layer, kind)
                try:
                    return fn(f, alpha, plan, *args, **kwargs)
                finally:
                    tracer._exit(st, frame)
            return wrapper

        if layer == "quadrature":
            @functools.wraps(fn)
            def wrapper(integrand, *args, **kwargs):
                st = tracer._state()
                if st.open[(layer, kind)] == 0:
                    integrand = tracer._counted(integrand, st)
                frame = tracer._enter(st, layer, kind)
                try:
                    return fn(integrand, *args, **kwargs)
                finally:
                    tracer._exit(st, frame)
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            frame = tracer._enter(st, layer, kind)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(st, frame)
        return wrapper

    def _evaluation(self, g, scan: _Scan):
        """Wrap a scan's callback: count samples, time them on their thread."""
        tracer = self

        def evaluate(z):
            st = tracer._state()
            saved, st.stack = st.stack, []
            t0 = st.clock()
            try:
                return g(z)
            finally:
                dur = st.clock() - t0
                st.stack = saved
                st.counts["disksup.samples"] += 1
                st.total[("disksup", "eval")] += dur
                with scan.lock:
                    scan.eval_s += dur
        return evaluate

    @staticmethod
    def _counted(integrand, st):
        def counted(t):
            st.counts["quadrature.integrand_evals"] += 1
            return integrand(t)
        return counted

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every entry point in SPANS and rebind its names package-wide."""
        catalog = sys.modules[package.__name__ + ".catalog"]
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        fn_classes = [c for c in vars(catalog).values()
                      if isinstance(c, type) and issubclass(c, catalog.AnalyticFn)]
        for layer, entries in SPANS.items():
            for mod_name, qualname, kind in entries:
                module = sys.modules[f"{package.__name__}.{mod_name}"]
                if "." not in qualname:
                    orig = getattr(module, qualname)
                    wrapped = self._span(orig, layer, kind)
                    for m in modules:
                        for attr, val in list(vars(m).items()):
                            if val is orig:
                                self._rebind(m, attr, orig, wrapped)
                    continue
                cls_name, meth = qualname.split(".")
                classes = fn_classes if cls_name == "*" else [getattr(module, cls_name)]
                for cls in classes:
                    if meth not in vars(cls):
                        continue
                    raw = vars(cls)[meth]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._span(raw.__func__, layer, kind))
                    else:
                        wrapped = self._span(raw, layer, kind)
                    self._rebind(cls, meth, raw, wrapped)

    def _rebind(self, owner, attr, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> tuple[dict, dict]:
        """(per-layer metrics, self time per layer), merged over threads.

        The metrics' names and units are those of BENCHMARK.json's per_layer."""
        calls, total, self_s, counts = (defaultdict(int), defaultdict(float),
                                        defaultdict(float), defaultdict(int))
        with self._states_lock:
            for st in self._states:
                for k, v in st.calls.items():
                    calls[k] += v
                for k, v in st.total.items():
                    total[k] += v
                for k, v in st.self_s.items():
                    self_s[k] += v
                for k, v in st.counts.items():
                    counts[k] += v
        margins = calls[("robertson", "margin")]
        out = {
            "series.eval_calls": calls[("series", "eval")],
            "series.eval_terms": counts["series.eval_terms"],
            "series.eval_s": total[("series", "eval")],
            "series.build_calls": calls[("series", "build")],
            "series.build_s": total[("series", "build")],
            "catalog.member_builds": calls[("catalog", "member")],
            "catalog.member_build_s": total[("catalog", "member")],
            "catalog.deriv_calls": calls[("catalog", "deriv")],
            "catalog.deriv_s": total[("catalog", "deriv")],
            "derivatives.series_calls": calls[("derivatives", "series")],
            "derivatives.series_s": total[("derivatives", "series")],
            "derivatives.point_calls": calls[("derivatives", "point")],
            "derivatives.point_s": total[("derivatives", "point")],
            "disksup.scans": calls[("disksup", "scan")],
            "disksup.samples": counts["disksup.samples"],
            "disksup.self_s": self_s["disksup"],
            "disksup.eval_s": total[("disksup", "eval")],
            "robertson.margin_calls": margins,
            "robertson.margin_reuse": len(self._margin_keys) / margins if margins else 1.0,
            "robertson.margin_s": total[("robertson", "margin")],
            "robertson.residual_calls": calls[("robertson", "residual")],
            "robertson.residual_s": total[("robertson", "residual")],
            "theorems.verify_calls": calls[("theorems", "verify")],
            "theorems.self_s": self_s["theorems"],
            "quadrature.calls": calls[("quadrature", "call")],
            "quadrature.integrand_evals": counts["quadrature.integrand_evals"],
            "quadrature.self_s": self_s["quadrature"],
            "cli.commands": calls[("cli", "command")],
            "cli.self_s": self_s["cli"],
        }
        layers = {layer: self_s[layer] for layer in SPANS}
        return out, layers
