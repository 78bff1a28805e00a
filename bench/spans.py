"""Span recorder and kernel counters for the traced benchmark run.

The traced run happens in its own worker process, in this order:

1. ``Tracer.install_kernels()`` wraps the public transforms of
   ``scipy.fft`` and ``numpy.fft`` and the dense solvers of
   ``numpy.linalg`` / ``scipy.linalg`` with counters. It must run before
   ``atomsqueeze`` is imported, so that module-level bindings such as
   ``from scipy.fft import dst`` pick up the counting wrappers.
2. ``Tracer.wrap_package(atomsqueeze)`` wraps every public function, and
   every public method of a public class, defined in an ``atomsqueeze``
   module, in every module namespace that binds it (``from .x import f``
   re-bindings included), with a span recorder.

A span is (name, start, end, parent). Spans are kept in memory, one list
per pass, and written out when the worker ends. The layer of a span is the
module that defines the wrapped function. A layer's self time is the sum
over its spans of the duration minus the time covered by child spans.

Kernel calls are counted for every layer that has a span open when the
call happens (inclusive attribution), so a transform that moves into a
shared helper module is still counted for the layer that asked for it.
Bytes moved are computed from array sizes (input plus output), not
measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import pkgutil
import time
import types
from collections import defaultdict

import numpy as np

FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
    "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft", "hfft2",
    "ihfft2", "hfftn", "ihfftn", "dct", "idct", "dst", "idst", "dctn",
    "idctn", "dstn", "idstn",
)
SOLVE_NAMES = ("solve", "inv", "lstsq", "lu_factor", "lu_solve")
COND_NAMES = ("cond",)

#: Span names whose public arguments or results define a work count.
STEP_HOOKS = {
    "dynamics.evolve": lambda args, res: {
        "dynamics.steps": max(0, math.ceil(
            (args["t_final"] - args["state"].t) / args["grid"].dt - 1e-12)),
        "dynamics.snapshots": len(res[1]),
    },
    "pairs.pair_amplitude": lambda args, res: {
        "pairs.steps": int(round(args["t0"] / args["grid"].dt)),
    },
}


class Tracer:
    """Holds the spans and kernel counts of one traced worker."""

    def __init__(self):
        self.enabled = False
        self.names = []  # span name table
        self.name_layer = []  # layer of each name
        self._name_ids = {}
        self._wrapped = {}  # id(original) -> wrapper
        self.archive = []  # spans of finished passes
        self._clear()

    # -- recording -------------------------------------------------------

    def _clear(self):
        self.top = -1
        self.open_layers = defaultdict(int)
        self.span_name, self.span_parent = [], []
        self.span_start, self.span_end = [], []
        self.raised = set()
        self.kernels = defaultdict(lambda: [0, 0, 0, 0.0, 0])
        self.counters = defaultdict(float)

    def start_pass(self):
        self._clear()

    def resume(self):
        self.enabled = True

    def pause(self):
        self.enabled = False

    def stop_pass(self):
        self.enabled = False
        self.archive.append({
            "name": np.asarray(self.span_name, dtype=np.int32),
            "parent": np.asarray(self.span_parent, dtype=np.int32),
            "start": np.asarray(self.span_start),
            "end": np.asarray(self.span_end),
            "raised": np.asarray(sorted(self.raised), dtype=np.int64),
        })

    def _name_id(self, name, layer):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
        return nid

    def span(self, name, layer, fn, hook=None):
        """Wrap ``fn`` so that each call records one span."""
        nid = self._name_id(name, layer)
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(self.top)
            self.span_start.append(time.perf_counter())
            self.span_end.append(0.0)
            parent, self.top = self.top, i
            self.open_layers[layer] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised.add(i)
                raise
            finally:
                self.span_end[i] = time.perf_counter()
                self.top = parent
                self.open_layers[layer] -= 1
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in hook(bound.arguments, result).items():
                    self.counters[key] += value
            return result

        return wrapper

    def root_span(self, name):
        """Context manager for a benchmark-side span around one operation."""
        return _RootSpan(self, self._name_id(name, "bench"))

    # -- kernels ---------------------------------------------------------

    def _kernel(self, group, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            a = np.asarray(args[0]) if args else np.empty(0)
            points = a.size
            moved = a.nbytes + sum(np.asarray(o).nbytes for o in _arrays(out))
            systems = a.size // (a.shape[-1] ** 2) if a.ndim >= 2 and a.shape[-1] else 0
            for layer, depth in self.open_layers.items():
                if depth:
                    k = self.kernels[(layer, group)]
                    k[0] += 1
                    k[1] += points
                    k[2] += moved
                    k[3] += dt
                    k[4] += systems
            return out

        return wrapper

    def install_kernels(self):
        """Wrap FFT and dense-solver entry points. Call before importing
        atomsqueeze."""
        import numpy.fft
        import numpy.linalg
        import scipy.fft
        import scipy.linalg

        for mod in (scipy.fft, numpy.fft):
            for name in FFT_NAMES:
                if hasattr(mod, name):
                    setattr(mod, name, self._kernel("fft", getattr(mod, name)))
        for mod in (numpy.linalg, scipy.linalg):
            for names, group in ((SOLVE_NAMES, "solve"), (COND_NAMES, "cond")):
                for name in names:
                    if hasattr(mod, name):
                        setattr(mod, name, self._kernel(group, getattr(mod, name)))

    # -- package wrapping -------------------------------------------------

    def wrap_package(self, package):
        """Wrap the public functions and methods of every package module."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        prefix = package.__name__ + "."
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not getattr(obj, "__module__", "").startswith(prefix):
                    continue
                if isinstance(obj, types.FunctionType):
                    setattr(mod, attr, self._wrap_function(obj, prefix))
                elif isinstance(obj, type):
                    self._wrap_class(obj, prefix)

    def _wrap_function(self, fn, prefix):
        key = id(fn)
        if key not in self._wrapped:
            layer = fn.__module__[len(prefix):]
            name = f"{layer}.{fn.__qualname__}"
            self._wrapped[key] = self.span(name, layer, fn, STEP_HOOKS.get(name))
            self._wrapped[id(self._wrapped[key])] = self._wrapped[key]
        return self._wrapped[key]

    def _wrap_class(self, cls, prefix):
        if id(cls) in self._wrapped:
            return
        self._wrapped[id(cls)] = cls
        layer = cls.__module__[len(prefix):]
        for attr, obj in list(vars(cls).items()):
            if not attr.startswith("_") and isinstance(obj, types.FunctionType):
                name = f"{layer}.{obj.__qualname__}"
                setattr(cls, attr, self.span(name, layer, obj))

    # -- per-pass summary -------------------------------------------------

    def summarize(self, spans):
        """Per-layer figures of one pass, from its archived spans."""
        name, parent = spans["name"], spans["parent"]
        dur = spans["end"] - spans["start"]
        n = name.size
        layer_ids = {lay: i for i, lay in enumerate(sorted(set(self.name_layer)))}
        name_layer = np.asarray([layer_ids[lay] for lay in self.name_layer], dtype=np.int32)
        span_layer = name_layer[name] if n else np.zeros(0, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        parent_layer = np.full(n, -1, dtype=np.int32)
        parent_layer[has_parent] = span_layer[parent[has_parent]]
        entry = parent_layer != span_layer
        raised = np.zeros(n, dtype=bool)
        raised[spans["raised"]] = True

        out = {"layers": {}, "by_name": {}}
        for lay, lid in layer_ids.items():
            sel = span_layer == lid
            out["layers"][lay] = {
                "calls": int(np.count_nonzero(sel & entry)),
                "self_s": float(self_t[sel].sum()),
                "failed": int(np.count_nonzero(sel & entry & raised)),
            }
        # inclusive time per name, not double-counting recursion
        same_as_parent = np.zeros(n, dtype=bool)
        same_as_parent[has_parent] = name[parent[has_parent]] == name[has_parent]
        for nid, nm in enumerate(self.names):
            sel = (name == nid) & ~same_as_parent
            if sel.any():
                out["by_name"][nm] = {
                    "count": int(np.count_nonzero(sel)),
                    "incl_s": float(dur[sel].sum()),
                    "self_s": float(self_t[name == nid].sum()),
                }
        nid = self._name_ids.get("spectrum.find_threshold")
        analytic = entry & (span_layer == layer_ids.get("analytic", -1))
        out["analytic_calls_in_threshold"] = (
            int(np.count_nonzero(analytic & _beneath(name, parent, nid)))
            if nid is not None else 0)
        return out


def _beneath(name, parent, nid):
    """Mask of the spans that have an ancestor named ``nid``."""
    name_l, parent_l = name.tolist(), parent.tolist()
    below = [False] * len(name_l)
    # a parent is recorded before its children, so one forward sweep suffices
    for i, p in enumerate(parent_l):
        if p >= 0:
            below[i] = name_l[p] == nid or below[p]
    return np.asarray(below, dtype=bool)


class _RootSpan:
    def __init__(self, tracer, nid):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        t = self.tracer
        if t.enabled:
            self.i = len(t.span_name)
            t.span_name.append(self.nid)
            t.span_parent.append(t.top)
            t.span_start.append(time.perf_counter())
            t.span_end.append(0.0)
            self.parent, t.top = t.top, self.i
        return self

    def __exit__(self, *exc):
        t = self.tracer
        if t.enabled:
            t.span_end[self.i] = time.perf_counter()
            t.top = self.parent
        return False


def _arrays(out):
    if isinstance(out, tuple):
        return [o for o in out if isinstance(o, np.ndarray)]
    return [out] if isinstance(out, np.ndarray) else []


#: Per-layer metrics of the traced run, with their units.
PER_LAYER_UNITS = {
    "analytic.calls": "count",
    "analytic.self_s": "s",
    "analytic.us_per_call": "us",
    "params.calls": "count",
    "params.self_s": "s",
    "scattering.calls": "count",
    "scattering.self_s": "s",
    "scattering.us_per_call": "us",
    "scattering.linalg_calls": "count",
    "scattering.linalg_systems": "count",
    "scattering.cond_s": "s",
    "scattering.ill_conditioned": "count",
    "scattering.failed": "count",
    "spectrum.calls": "count",
    "spectrum.self_s": "s",
    "spectrum.threshold_evals": "count",
    "spectrum.compare_skipped_ratio": "ratio",
    "dynamics.calls": "count",
    "dynamics.steps": "count",
    "dynamics.evolve_s": "s",
    "dynamics.ms_per_step": "ms",
    "dynamics.transforms_per_step": "count",
    "dynamics.points_transformed_per_step": "points",
    "dynamics.bytes_moved_per_step": "B_computed",
    "dynamics.snapshots": "count",
    "dynamics.extract_s": "s",
    "dynamics.export_s": "s",
    "pairs.calls": "count",
    "pairs.steps": "count",
    "pairs.amplitude_s": "s",
    "pairs.ms_per_step": "ms",
    "pairs.transforms_per_step": "count",
    "pairs.points_transformed_per_step": "points",
    "pairs.bytes_moved_per_step": "B_computed",
    "pairs.metrics_s": "s",
    "config.parse_s": "s",
    "config.record_s": "s",
    "config.bytes_hashed": "B",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "cli.checksum_mismatches": "count",
    "trace.overhead_s": "s",
    "error_rate": "ratio",
}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(summary, counters, kernels, stats, speed=1.0):
    """Per-layer metrics of one traced pass.

    ``summary`` is ``Tracer.summarize`` of the pass, ``counters`` and
    ``kernels`` the tracer's counts (kernels by (layer, group): calls,
    points, bytes, seconds, matrix systems), ``stats`` the figures the output
    checks derived from the files written (bytes, checksums, skips).
    Times are multiplied by ``speed``, the pass's host-speed factor (see
    calibrate.py). ``trace.overhead_s`` and ``error_rate`` are filled in by
    the caller.
    """
    layers, by_name = summary["layers"], summary["by_name"]

    def layer(name, key):
        return layers.get(name, {}).get(key, 0)

    def named(name, key):
        return by_name.get(name, {}).get(key, 0)

    def kernel(lay, group, field):
        return kernels.get((lay, group), [0, 0, 0, 0.0, 0])[field]

    m = {}
    for lay in ("analytic", "params", "scattering", "spectrum", "dynamics", "pairs"):
        m[f"{lay}.calls"] = layer(lay, "calls")
        m[f"{lay}.self_s"] = layer(lay, "self_s")
    for lay in ("analytic", "scattering"):
        m[f"{lay}.us_per_call"] = 1e6 * _ratio(m[f"{lay}.self_s"], m[f"{lay}.calls"])
    m["scattering.linalg_calls"] = (kernel("scattering", "solve", 0)
                                    + kernel("scattering", "cond", 0))
    m["scattering.linalg_systems"] = (kernel("scattering", "solve", 4)
                                      + kernel("scattering", "cond", 4))
    m["scattering.cond_s"] = kernel("scattering", "cond", 3)
    m["scattering.ill_conditioned"] = stats.get("scattering.ill_conditioned", 0)
    m["scattering.failed"] = layer("scattering", "failed")
    m["spectrum.threshold_evals"] = _ratio(summary["analytic_calls_in_threshold"],
                                           named("spectrum.find_threshold", "count"))
    m["spectrum.compare_skipped_ratio"] = _ratio(
        stats.get("spectrum.compare_skipped", 0), stats.get("spectrum.compare_attempted", 0))
    for lay, work in (("dynamics", "dynamics.evolve"), ("pairs", "pairs.pair_amplitude")):
        steps = counters.get(f"{lay}.steps", 0)
        busy = named(work, "incl_s")
        m[f"{lay}.steps"] = steps
        m[f"{lay}.ms_per_step"] = 1e3 * _ratio(busy, steps)
        m[f"{lay}.transforms_per_step"] = _ratio(kernel(lay, "fft", 0), steps)
        m[f"{lay}.points_transformed_per_step"] = _ratio(kernel(lay, "fft", 1), steps)
        m[f"{lay}.bytes_moved_per_step"] = _ratio(kernel(lay, "fft", 2), steps)
    m["dynamics.evolve_s"] = named("dynamics.evolve", "incl_s")
    m["dynamics.snapshots"] = counters.get("dynamics.snapshots", 0)
    m["dynamics.extract_s"] = named("dynamics.extract_output_correlators", "incl_s")
    m["dynamics.export_s"] = named("dynamics.export_state_columns", "incl_s")
    m["pairs.amplitude_s"] = named("pairs.pair_amplitude", "incl_s")
    m["pairs.metrics_s"] = layer("pairs", "self_s") - named("pairs.pair_amplitude", "self_s")
    parse = sum(v["self_s"] for k, v in by_name.items()
                if k.startswith(("config.parse", "config.load")))
    m["config.parse_s"] = parse
    m["config.record_s"] = layer("config", "self_s") - parse
    m["config.bytes_hashed"] = stats.get("config.bytes_hashed", 0)
    m["cli.self_s"] = layer("cli", "self_s")
    m["cli.bytes_written"] = stats.get("cli.bytes_written", 0)
    m["cli.checksum_mismatches"] = stats.get("cli.checksum_mismatches", 0)
    for k, unit in PER_LAYER_UNITS.items():
        if unit in ("s", "ms", "us") and k in m:
            m[k] *= speed
    return m
