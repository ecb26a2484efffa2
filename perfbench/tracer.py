"""Tracing from outside the package, and the per-layer metrics it yields.

`Tracer.install` replaces every public function and method of the fchpulse
modules with a wrapper that records a span (name, start, end, parent). A
function imported by name into another module is replaced there too, so
`harness.run_pde`, `spectral.stable_edge_floor` and the `cosine_coeffs`
bound in `dynamics` and `operators` are all seen. `scipy.linalg.eigh` is
timed as `spectral` calls it, through a stand-in for `spectral.sla`.

Solver counts (dt halvings, NaN record norms, closure and eigenpair
residuals, final-time overshoot) are read from the arguments and the objects
the wrapped calls return; nothing inside the package is changed to get them.
"""

from __future__ import annotations

import functools
import gzip
import math
import time
import types

import numpy as np

LAYERS = ("core", "wellmodel", "ansatz", "operators", "spectral", "dynamics",
          "harness")

EXPERIMENTS = ("profile", "ansatz", "spectrum", "diagnose", "simulate",
               "reduce", "compare", "invariance")

DCT_SPANS = ("core.cosine_coeffs", "core.cosine_synth", "core.sine_synth")
RECORD_SPANS = ("dynamics.extract_pulse_positions", "ansatz.PulseManifold.build")

# (metric prefix, span name, stats reported for it)
SPAN_METRICS = (
    ("wellmodel.solve_homoclinic", "wellmodel.solve_homoclinic", ("s",)),
    ("wellmodel.solve_background", "wellmodel.solve_background", ("s",)),
    ("wellmodel.stable_edge_floor", "wellmodel.stable_edge_floor",
     ("calls", "s")),
    ("wellmodel.bar_at", "wellmodel.BackgroundProfile.bar_at",
     ("calls", "self_s")),
    ("ansatz.build", "ansatz.PulseManifold.build", ("calls", "s", "p50_ms")),
    ("ansatz.internal_parameters", "ansatz.PulseManifold.internal_parameters",
     ("s",)),
    ("ansatz.residual_h4", "ansatz.PulseManifold.residual_h4", ("calls", "s")),
    ("ansatz.gradient_stack", "ansatz.PulseManifold.gradient_stack", ("s",)),
    ("ansatz.derivative_stack", "ansatz.PulseManifold.derivative_stack",
     ("self_s",)),
    ("ansatz.energy_value", "ansatz.PulseManifold.energy_value", ("s",)),
    ("ansatz.tangent_basis", "ansatz.PulseManifold.tangent_basis",
     ("calls", "s")),
    ("operators.variational_derivative", "operators.variational_derivative",
     ("calls", "s")),
    ("operators.energy", "operators.energy", ("calls", "s")),
    ("operators.dense_weighted", "operators.LinearMap.dense_weighted",
     ("calls", "s")),
    ("operators.dense_sobolev_gram", "operators.dense_sobolev_gram",
     ("calls", "s")),
    ("spectral.eigh", "spectral.eigh", ("calls", "s")),
    ("spectral.spectral_gap_report", "spectral.spectral_gap_report",
     ("calls", "s")),
    ("spectral.coercivity_constant", "spectral.coercivity_constant",
     ("calls", "s", "self_s")),
    ("spectral.tangent_alignment", "spectral.tangent_alignment", ("s",)),
    ("spectral.symmetrized_gap", "spectral.symmetrized_gap", ("s",)),
    ("spectral.semigroup_decay_check", "spectral.semigroup_decay_check",
     ("s",)),
    ("spectral.eigenfield_continuity", "spectral.eigenfield_continuity",
     ("s",)),
    ("spectral.el_bounds", "spectral.el_bounds", ("s",)),
    ("dynamics.step", "dynamics.step",
     ("calls", "s", "self_s", "p50_ms", "p99_ms")),
    ("dynamics.pulse_velocity_projection", "dynamics.pulse_velocity_projection",
     ("s",)),
    ("dynamics.integrate_reduced", "dynamics.integrate_reduced",
     ("calls", "s")),
    ("dynamics.alpha_scaling", "dynamics.alpha_scaling", ("calls", "s")),
    ("harness.Laboratory.from_config", "harness.Laboratory.from_config",
     ("calls", "s")),
)

UNITS = {"calls": "count", "s": "s", "self_s": "s", "p50_ms": "ms",
         "p99_ms": "ms"}

# Metrics that are not a statistic of one span name: (name, unit, better).
DERIVED_METRICS = (
    ("core.dct.calls", "count", "lower"),
    ("core.dct.self_s", "s", "lower"),
    ("core.dct.per_step", "count", "lower"),
    ("ansatz.closure_residual_max", "norm", "lower"),
    ("spectral.eigh.max_n", "rows", "lower"),
    ("spectral.eigh.full_calls", "count", "lower"),
    ("spectral.eig_residual_max", "norm", "lower"),
    ("dynamics.dt_halvings", "count", "lower"),
    ("dynamics.step_accept_ratio", "ratio", "higher"),
    ("dynamics.record.calls", "count", "lower"),
    ("dynamics.record.s", "s", "lower"),
    ("dynamics.w_norm_nan", "count", "lower"),
    ("dynamics.t_overshoot", "model_t", "lower"),
)

# Filled in by the parent process, not from spans.
RUN_METRICS = (
    *((f"harness.{e}.s", "s", "lower") for e in EXPERIMENTS),
    ("harness.output_bytes", "bytes", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

SOURCE_FILES = ("__init__", "core", "wellmodel", "ansatz", "operators",
                "spectral", "dynamics", "harness", "cli")


def lines_metric(module):
    return "init.lines" if module == "__init__" else f"{module}.lines"


def per_layer_spec():
    """Every per-layer metric as (name, unit, better), in report order."""
    spec = []
    for prefix, _, stats in SPAN_METRICS:
        spec.extend((f"{prefix}.{st}", UNITS[st], "lower") for st in stats)
    spec.extend(DERIVED_METRICS)
    spec.extend(RUN_METRICS)
    spec.extend((lines_metric(m), "lines", "lower") for m in SOURCE_FILES)
    spec.append(("src.lines", "lines", "lower"))
    return spec


def percentile_ms(durations, q):
    """The q-th percentile in ms, or 0 when fewer than 10 samples lie beyond it."""
    if len(durations) * (1.0 - q / 100.0) < 10:
        return 0.0
    return float(np.percentile(durations, q)) * 1e3


class _Unset:
    """Matches no returned object until `install` names the real types."""


class _LinalgStandIn:
    """`scipy.linalg` with a traced `eigh`, installed as `spectral.sla`."""

    def __init__(self, real, eigh):
        self._real = real
        self.eigh = eigh

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Spans and solver counts of one traced run, kept in memory."""

    def __init__(self):
        self.names = []
        self.spans = []  # (name id, start, end, parent index, outermost)
        self._stack = []
        self._active = []
        self.wrapped = set()
        self.halvings = 0
        self.w_norm_nan = 0
        self.t_overshoot = 0.0
        self.closure_residual_max = 0.0
        self.eig_residual_max = 0.0
        self.eigh_max_n = 0
        self.eigh_full_calls = 0
        self._types = (_Unset, _Unset)  # set by install()

    # -- wrapping -------------------------------------------------------------

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        self._active.append(0)
        self.wrapped.add(name)
        spans, stack, active = self.spans, self._stack, self._active
        observe, clock = self._observe, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            outermost = active[nid] == 0
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            active[nid] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[nid] -= 1
                stack.pop()
                spans[idx] = (nid, start, end, parent, outermost)
            observe(name, args, kwargs, result)
            return result

        return traced

    def install(self, package):
        """Wrap the public callables of every layer module of `package`."""
        import importlib

        modules = [importlib.import_module(f"{package.__name__}.{m}")
                   for m in LAYERS]
        namespaces = [package, *modules]
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(
                    obj, "__module__", None
                ) != module.__name__:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, BaseException):
                        self._wrap_methods(layer, obj)
                elif callable(obj):
                    traced = self.wrap(f"{layer}.{attr}", obj)
                    for ns in namespaces:
                        for name, value in list(vars(ns).items()):
                            if value is obj:
                                setattr(ns, name, traced)
        spectral = modules[LAYERS.index("spectral")]
        eigh = spectral.sla.eigh
        traced_eigh = self.wrap("spectral.eigh", eigh)

        def counted_eigh(a, *args, **kwargs):
            self.eigh_max_n = max(self.eigh_max_n, int(np.shape(a)[0]))
            if "subset_by_index" not in kwargs and "subset_by_value" not in kwargs:
                self.eigh_full_calls += 1
            return traced_eigh(a, *args, **kwargs)

        spectral.sla = _LinalgStandIn(spectral.sla, counted_eigh)
        self._types = (modules[LAYERS.index("ansatz")].AnsatzProfile,
                       spectral.SpectrumReport)

    def _wrap_methods(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__qualname__}.{attr}"
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
            elif isinstance(raw, types.FunctionType):
                setattr(cls, attr, self.wrap(name, raw))

    # -- counts from returned objects -----------------------------------------

    def _observe(self, name, args, kwargs, result):
        profile_t, spectrum_t = self._types
        if name == "dynamics.step":
            state = args[0] if args else kwargs["state"]
            self.halvings += round(math.log2(state.dt / (result.time - state.time)))
        elif name == "dynamics.run":
            self.w_norm_nan += int(np.count_nonzero(np.isnan(
                np.asarray(result.w_norms, dtype=float))))
            t_final = args[3] if len(args) > 3 else kwargs["t_final"]
            self.t_overshoot = max(self.t_overshoot,
                                   result.final_state.time - t_final)
        elif isinstance(result, profile_t):
            self.closure_residual_max = max(self.closure_residual_max,
                                            result.internal.residual)
        elif isinstance(result, spectrum_t):
            self.eig_residual_max = max(self.eig_residual_max,
                                        float(np.max(result.residuals)))

    # -- results --------------------------------------------------------------

    def write_spans(self, path):
        """Write every span as `name,start,end,parent` (gzipped CSV)."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start,end,parent\n")
            for nid, start, end, parent, _ in self.spans:
                fh.write(f"{self.names[nid]},{start:.9f},{end:.9f},{parent}\n")

    def span_metrics(self):
        """Per-layer metrics computed from the spans and the solver counts."""
        spans = self.spans
        child = [0.0] * len(spans)
        for nid, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        per_name = {}
        for idx, (nid, start, end, parent, outermost) in enumerate(spans):
            st = per_name.setdefault(self.names[nid],
                                     {"calls": 0, "s": 0.0, "self_s": 0.0,
                                      "durations": []})
            dur = end - start
            st["calls"] += 1
            st["self_s"] += dur - child[idx]
            st["durations"].append(dur)
            if outermost:
                st["s"] += dur
        empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}

        out = {}
        for prefix, span, stats in SPAN_METRICS:
            st = per_name.get(span, empty)
            for stat in stats:
                if stat == "p50_ms":
                    value = percentile_ms(st["durations"], 50)
                elif stat == "p99_ms":
                    value = percentile_ms(st["durations"], 99)
                else:
                    value = st[stat]
                out[f"{prefix}.{stat}"] = value

        dct = [per_name.get(n, empty) for n in DCT_SPANS]
        steps = per_name.get("dynamics.step", empty)["calls"]
        out["core.dct.calls"] = sum(st["calls"] for st in dct)
        out["core.dct.self_s"] = sum(st["self_s"] for st in dct)
        out["core.dct.per_step"] = out["core.dct.calls"] / steps if steps else 0.0
        out["ansatz.closure_residual_max"] = self.closure_residual_max
        out["spectral.eigh.max_n"] = self.eigh_max_n
        out["spectral.eigh.full_calls"] = self.eigh_full_calls
        out["spectral.eig_residual_max"] = self.eig_residual_max
        out["dynamics.dt_halvings"] = self.halvings
        out["dynamics.step_accept_ratio"] = (
            steps / (steps + self.halvings) if steps else 0.0
        )

        # A trajectory record is the extraction and the build that `run`
        # itself calls (through its `record` closure).
        names = self.names
        calls, busy = 0, 0.0
        for nid, start, end, parent, _ in spans:
            if (names[nid] in RECORD_SPANS and parent >= 0
                    and names[spans[parent][0]] == "dynamics.run"):
                busy += end - start
                calls += names[nid] == RECORD_SPANS[0]
        out["dynamics.record.calls"] = calls
        out["dynamics.record.s"] = busy
        out["dynamics.w_norm_nan"] = self.w_norm_nan
        out["dynamics.t_overshoot"] = self.t_overshoot
        return out

    def missing(self):
        """Span names the metric tables ask for that no wrapper records."""
        wanted = {span for _, span, _ in SPAN_METRICS}
        wanted.update(DCT_SPANS, RECORD_SPANS, ["dynamics.run"])
        return sorted(wanted - self.wrapped)
