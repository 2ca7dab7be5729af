"""Outside-in instrumentation of hypfrac for the traced benchmark run.

Nothing under ``src/hypfrac`` is edited.  ``Tracer.install`` replaces public
functions by timing wrappers in every loaded ``hypfrac`` module namespace that
holds them (so ``from .specfun import bessel_k`` call sites are covered too),
patches ``scipy.integrate.quad`` (``operator`` imports it inline at call time)
and ``RadialProfile.__call__`` (profile evaluations).

Two kinds of boundary are recorded:

* spans, at coarse boundaries (the task, public kernel/scale/operator calls,
  and ``quad``): name, start, end, parent span and task id, kept in flat
  arrays and written out when the run ends;
* aggregates, at hot boundaries (``bessel_*``, ``kernel_sinh2``, the
  spherical transform's ``forward``, the gyro group law): call count and self
  time only.  Profile evaluations are counted, never timed.

Self time of a boundary is its duration minus the time covered by the
instrumented calls made inside it.  The integrand a caller hands to ``quad``
is the caller's own code, so its time is charged to the caller (the innermost
instrumented call around the ``quad``), not to ``quadrature.quad``, whose self
time is then QUADPACK's own work.
"""

import gzip
import importlib
import sys
from array import array
from time import perf_counter

# (module.function, kind); kind is "span" or "agg"
_FUNCTIONS = [
    ("specfun.bessel_k", "agg"),
    ("specfun.bessel_k_scaled", "agg"),
    ("specfun.bessel_i", "agg"),
    ("specfun.bessel_i_scaled", "agg"),
    ("specfun.struve_l", "agg"),
    ("kernel.kernel_sinh2", "agg"),
    ("kernel.kernel_value", "agg"),
    ("kernel.invariance_integral", "span"),
    ("scale.i0_closed", "span"),
    ("scale.iinf_closed", "span"),
    ("scale.i0_quadrature", "span"),
    ("scale.iinf_quadrature", "span"),
    ("scale.i_total_quadrature", "span"),
    ("scale.r0_solve", "span"),
    ("operator.barrier_check", "span"),
    ("operator.multiplier_oracle", "span"),
    ("gyro.mobius_add", "agg"),
    ("gyro.gyration", "agg"),
    ("gyro.cosub", "agg"),
    ("gyro.cosub_compositional", "agg"),
    ("gyro.cancellation_check", "agg"),
    ("gyro.eigenfunction", "agg"),
    ("gyro.transport_prefactor", "agg"),
]
# nonlocal operators: spans that also publish their evaluation radius R0
_NONLOCAL = ["operator.apply_fraclap", "operator.pucci_plus", "operator.pucci_minus"]
# methods of operator.SphericalTransform
_TRANSFORM = [("__init__", "operator.transform_init", "span"),
              ("multiplier_value", "operator.multiplier_value", "span")]

LAYERS = ("specfun", "kernel", "quadrature", "scale", "operator", "gyro")


class _Stat:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


class Tracer:
    """Span recorder and call aggregator; one per traced run."""

    def __init__(self, max_spans=200_000):
        self.max_spans = max_spans
        self.stats = {}
        self.names = []
        self._name_ids = {}
        # flat span arrays; index = span id
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_task = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.dropped_spans = 0
        self.task_id = -1
        # frames of the open instrumented calls: [child_time, stat]; span ids
        self._stack = []
        self._span_stack = [-1]
        self.R0 = None
        self.profile_evals = 0
        self.profile_evals_at_R0 = 0
        self.quad_neval = 0
        self.quad_warnings = 0
        self.forward_hits = 0
        self._undo = []

    # -- recording primitives -------------------------------------------

    def stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
        return st

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open_span(self, name_id, start):
        sid = len(self.s_start)
        if sid >= self.max_spans:
            self.dropped_spans += 1
            return -1
        self.s_name.append(name_id)
        self.s_parent.append(self._span_stack[-1])
        self.s_task.append(self.task_id)
        self.s_start.append(start)
        self.s_end.append(start)
        return sid

    def wrap(self, name, fn, span):
        """Return fn wrapped with a self-timed aggregate and optional span."""
        st = self.stat(name)
        stack = self._stack
        span_stack = self._span_stack
        name_id = self._name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0, st]
            stack.append(frame)
            t0 = perf_counter()
            if span:
                span_stack.append(tracer._open_span(name_id, t0))
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                st.calls += 1
                st.total_s += dur
                st.self_s += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if span:
                    sid = span_stack.pop()
                    if sid >= 0:
                        tracer.s_end[sid] = t1

        wrapper.__wrapped__ = fn
        return wrapper

    def run_task(self, task_id, fn, *args):
        """Run one benchmark task under a top-level "task" span."""
        self.task_id = task_id
        try:
            return self.wrap("bench.task", fn, span=True)(*args)
        finally:
            self.task_id = -1

    # -- installation ---------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hypfrac" or mod_name.startswith("hypfrac.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def _patch_attr(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        import scipy.integrate

        from hypfrac import operator

        for name, kind in _FUNCTIONS:
            mod, attr = name.split(".")
            fn = getattr(importlib.import_module("hypfrac." + mod), attr)
            self._replace_everywhere(fn, self.wrap(name, fn, kind == "span"))

        for name in _NONLOCAL:
            fn = getattr(operator, name.split(".")[1])
            self._replace_everywhere(fn, self._with_R0(self.wrap(name, fn, True)))

        cls = operator.SphericalTransform
        for attr, name, kind in _TRANSFORM:
            self._patch_attr(cls, attr, self.wrap(name, getattr(cls, attr), kind == "span"))
        self._patch_attr(cls, "forward", self._forward(self.wrap(
            "operator.forward", cls.forward, False)))

        quad = scipy.integrate.quad
        wrapped_quad = self._quad(self.wrap("quadrature.quad", quad, True))
        self._replace_everywhere(quad, wrapped_quad)
        self._patch_attr(scipy.integrate, "quad", wrapped_quad)

        prof_call = operator.RadialProfile.__call__

        def counted_call(prof, r):
            self.profile_evals += 1
            if r == self.R0:
                self.profile_evals_at_R0 += 1
            return prof_call(prof, r)

        self._patch_attr(operator.RadialProfile, "__call__", counted_call)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _with_R0(self, wrapped):
        def nonlocal_op(u, R0, *args, **kwargs):
            outer, self.R0 = self.R0, R0
            try:
                return wrapped(u, R0, *args, **kwargs)
            finally:
                self.R0 = outer

        return nonlocal_op

    def _integrand(self, func):
        """func timed as self time of the innermost instrumented non-quad call."""
        stack = self._stack
        quad_stat = self.stat("quadrature.quad")
        owner = next((f[1] for f in reversed(stack) if f[1] is not quad_stat),
                     self.stat("bench.task"))

        def integrand(*args):
            frame = [0.0, owner]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return func(*args)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                owner.self_s += dur - frame[0]
                stack[-1][0] += dur

        return integrand

    def _quad(self, wrapped):
        def quad(func, *args, **kwargs):
            res = wrapped(self._integrand(func), *args, **kwargs)
            if len(res) >= 3 and isinstance(res[2], dict):
                self.quad_neval += int(res[2].get("neval", 0))
            if len(res) >= 4:
                # full_output appends a message only when QUADPACK warned
                self.quad_warnings += 1
            return res

        return quad

    def _forward(self, wrapped):
        quad_stat = self.stat("quadrature.quad")

        def forward(transform, lam):
            before = quad_stat.calls
            out = wrapped(transform, lam)
            if quad_stat.calls == before:
                self.forward_hits += 1
            return out

        return forward

    # -- results --------------------------------------------------------

    def _self_ms(self, *names):
        return 1e3 * sum(self.stats[n].self_s for n in names if n in self.stats)

    def _calls(self, name):
        st = self.stats.get(name)
        return st.calls if st else 0

    def metrics(self, wall_s):
        """Per-layer metrics over everything recorded so far."""
        fwd_calls = self._calls("operator.forward")
        m = {
            "specfun.bessel_k.calls": (self._calls("specfun.bessel_k"), "count"),
            "specfun.bessel_k.self_ms": (self._self_ms("specfun.bessel_k"), "ms"),
            "specfun.bessel_k_scaled.calls": (self._calls("specfun.bessel_k_scaled"), "count"),
            "specfun.bessel_k_scaled.self_ms": (self._self_ms("specfun.bessel_k_scaled"), "ms"),
            "specfun.bessel_i.calls": (self._calls("specfun.bessel_i"), "count"),
            "specfun.bessel_i.self_ms": (self._self_ms("specfun.bessel_i"), "ms"),
            "kernel.kernel_sinh2.calls": (self._calls("kernel.kernel_sinh2"), "count"),
            "kernel.kernel_sinh2.self_ms": (self._self_ms("kernel.kernel_sinh2"), "ms"),
            "kernel.invariance_integral.self_ms": (
                self._self_ms("kernel.invariance_integral"), "ms"),
            "quadrature.quad.calls": (self._calls("quadrature.quad"), "count"),
            "quadrature.quad.neval": (self.quad_neval, "count"),
            "quadrature.quad.warnings": (self.quad_warnings, "count"),
            "quadrature.quad.self_ms": (self._self_ms("quadrature.quad"), "ms"),
            "scale.i0_closed.calls": (self._calls("scale.i0_closed"), "count"),
            "scale.iinf_closed.calls": (self._calls("scale.iinf_closed"), "count"),
            "scale.r0_solve.self_ms": (self._self_ms("scale.r0_solve"), "ms"),
            "scale.quadrature.self_ms": (self._self_ms(
                "scale.i0_quadrature", "scale.iinf_quadrature",
                "scale.i_total_quadrature"), "ms"),
            "operator.pucci_plus.self_ms": (self._self_ms("operator.pucci_plus"), "ms"),
            "operator.apply_fraclap.self_ms": (self._self_ms("operator.apply_fraclap"), "ms"),
            "operator.profile_evals": (self.profile_evals, "count"),
            "operator.profile_evals_at_R0_frac": (
                self.profile_evals_at_R0 / self.profile_evals if self.profile_evals else 0.0,
                "ratio"),
            "operator.transform_init_ms": (
                1e3 * self.stats["operator.transform_init"].total_s
                if "operator.transform_init" in self.stats else 0.0, "ms"),
            "operator.forward.calls": (fwd_calls, "count"),
            "operator.forward.cache_hit_frac": (
                self.forward_hits / fwd_calls if fwd_calls else 0.0, "ratio"),
            "gyro.mobius_add.calls": (self._calls("gyro.mobius_add"), "count"),
            "gyro.mobius_add.self_ms": (self._self_ms("gyro.mobius_add"), "ms"),
            "gyro.gyration.self_ms": (self._self_ms("gyro.gyration"), "ms"),
            "gyro.cancellation_check.self_ms": (self._self_ms("gyro.cancellation_check"), "ms"),
        }
        for layer in LAYERS:
            names = [n for n in self.stats if n.split(".")[0] == layer]
            m[f"layer.{layer}.self_frac"] = (
                self._self_ms(*names) / (1e3 * wall_s) if wall_s > 0 else 0.0, "ratio")
        m["trace.spans"] = (len(self.s_start), "count")
        m["trace.dropped_spans"] = (self.dropped_spans, "count")
        return m

    def write_spans(self, path):
        """Write spans as gzipped CSV: id,name,start_s,end_s,parent,task."""
        t_ref = self.s_start[0] if len(self.s_start) else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start_s,end_s,parent,task\n")
            for sid in range(len(self.s_start)):
                fh.write(
                    f"{sid},{self.names[self.s_name[sid]]},"
                    f"{self.s_start[sid] - t_ref:.9f},{self.s_end[sid] - t_ref:.9f},"
                    f"{self.s_parent[sid]},{self.s_task[sid]}\n"
                )
