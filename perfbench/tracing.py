"""Layer-boundary tracing, installed from outside the program.

:class:`Tracer` wraps the public entry points of each layer (listed by
:func:`boundaries`), records one span per call, and folds every span
into per-layer self time on the fly: a span's self time is its duration
minus the part of it that its direct child spans cover, so the layers'
self times plus the self time of the benchmark's own root span (the
unattributed remainder) sum to the traced wall exactly.

Each name is patched where callers look it up.  Methods are looked up
on their class, so the class attribute is patched.  Module functions
that other modules import by name (``make_system``, ``sample_device``,
``run_experiments``) are bound in several module namespaces, so every
binding of the original function object in ``sys.modules`` is patched
and restored.

Spans stay in memory and are written at exit as Chrome trace-event
JSON, which opens in Perfetto (ui.perfetto.dev).
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field

from repro.cache import ExperimentResultCache, PersistentSizeCache
from repro.compression.chunking import SizeCache
from repro.compression.lz4 import Lz4Compressor
from repro.compression.lzo import LzoCompressor
from repro.experiments import runner
from repro.fleet import aggregate, population
from repro.sim import system
from repro.trace.generate import TraceGenerator
from repro.units import PAGE_SIZE

#: Root span of one benchmark operation; its self time is the
#: unattributed remainder.
ROOT = "bench"

#: The layers in report order (metric-name prefixes).
LAYERS = ("trace", "codec", "sizecache", "sim", "fleet", "runner", "cache")

#: Simulator entry points, grouped into the ``sim.<phase>_s`` split.
SIM_PHASES = {
    "make_system": "build",
    "launch_all": "install",
    "launch_app": "install",
    "relaunch": "relaunch",
    "prepare_relaunch": "relaunch",
}

#: Cap on spans kept for the Chrome trace export (self-time accounting
#: covers every span regardless).
MAX_EXPORTED_SPANS = 250_000


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: "Span | None"
    scheme: str | None = None
    request: str | None = None
    children_s: float = 0.0
    #: Codec calls made while this span was open (size-cache misses).
    codec_calls: int = 0
    #: Index of the root's child this span descends from.
    top: int | None = None


@dataclass
class LayerTotals:
    """Everything one traced operation measured at the boundaries."""

    wall_s: float = 0.0
    self_s: dict[str, float] = field(default_factory=dict)
    sim_phase_s: dict[str, float] = field(default_factory=dict)
    sim_scheme_s: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    relaunch_host_s: list[float] = field(default_factory=list)
    #: Every system built during the operation (summed at the end).
    systems: list = field(default_factory=list)
    #: SizeCache instance -> (hits, misses) when first seen.
    size_caches: dict = field(default_factory=dict)
    #: Per direct child of the root span: layer -> self seconds.
    top_level: list[dict[str, float]] = field(default_factory=list)
    #: Filled in after the operation from ``systems``/``size_caches``.
    sim_counters: dict[str, int] = field(default_factory=dict)
    size_program: tuple[int, int] = (0, 0)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


class Tracer:
    """Span recorder with install/uninstall of the boundary wrappers."""

    def __init__(self) -> None:
        self._stack: list[Span] = []
        self._patches: list[tuple[type, str, object]] = []
        self._function_wrappers: dict = {}
        self._relaunch_ids = 0
        self._request: str | None = None
        self.totals = LayerTotals()
        self.events: list[dict] = []
        self._origin = 0.0

    # ------------------------------------------------------------ spans

    def begin_op(self) -> None:
        """Start a fresh operation (clears totals, opens the root span)."""
        self.totals = LayerTotals()
        self.events = []
        self._relaunch_ids = 0
        self._request = None
        self._origin = time.perf_counter()
        self._stack = [Span(ROOT, ROOT, self._origin, None)]

    def end_op(self) -> LayerTotals:
        """Close the root span; returns the operation's totals."""
        root = self._stack.pop()
        if self._stack:
            raise RuntimeError("unbalanced spans")
        end = time.perf_counter()
        self._close(root, end)
        self.totals.wall_s = end - root.start
        return self.totals

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1]
        top = parent.top
        if parent.parent is None:
            top = len(self.totals.top_level)
            self.totals.top_level.append({})
        span = Span(name, layer, time.perf_counter(), parent,
                    request=self._request, top=top)
        self._stack.append(span)
        return span

    def _close(self, span: Span, end: float) -> None:
        duration = end - span.start
        own = duration - span.children_s
        totals = self.totals
        totals.self_s[span.layer] = totals.self_s.get(span.layer, 0.0) + own
        if span.layer == "sim":
            phase = SIM_PHASES[span.name]
            totals.sim_phase_s[phase] = totals.sim_phase_s.get(phase, 0.0) + own
            if span.scheme is not None:
                totals.sim_scheme_s[span.scheme] = (
                    totals.sim_scheme_s.get(span.scheme, 0.0) + own
                )
        if span.parent is not None:
            span.parent.children_s += duration
        if span.top is not None:
            split = totals.top_level[span.top]
            split[span.layer] = split.get(span.layer, 0.0) + own
        if len(self.events) < MAX_EXPORTED_SPANS:
            args = {}
            if span.request is not None:
                args["id"] = span.request
            if span.scheme is not None:
                args["scheme"] = span.scheme
            self.events.append({
                "name": span.name, "cat": span.layer, "ph": "X",
                "ts": round((span.start - self._origin) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": 1, "tid": 1, "args": args,
            })

    def _call(self, name, layer, fn, args, kwargs, before=None, after=None):
        span = self._open(name, layer)
        if before is not None:
            before(span, args, kwargs)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self._close(span, time.perf_counter())
        if after is not None:
            after(span, args, kwargs, result)
        return result

    # ---------------------------------------------------------- patching

    def _wrap(self, name, layer, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer._call(name, layer, fn, args, kwargs, before, after)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _patch_method(self, cls, attr, layer, before=None, after=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(attr, layer, original, before, after))

    def _patch_function(self, original, layer, before=None, after=None):
        """Patch every module-level binding of ``original``."""
        wrapper = self._wrap(original.__name__, layer, original, before, after)
        self._function_wrappers[wrapper] = original
        _rebind(original, wrapper)

    def install(self) -> None:
        """Wrap every boundary listed by :func:`boundaries`."""
        if self._patches or self._function_wrappers:
            raise RuntimeError("tracer already installed")
        for target, attr, layer, before, after in boundaries(self):
            if isinstance(target, type):
                self._patch_method(target, attr, layer, before, after)
            else:
                self._patch_function(target, layer, before, after)

    def uninstall(self) -> None:
        """Restore every patched name, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        # Rebinding by scan also reverts modules that imported a
        # wrapper by name while the tracer was installed.
        for wrapper, original in self._function_wrappers.items():
            _rebind(wrapper, original)
        self._function_wrappers.clear()

    # ------------------------------------------------- boundary counters

    def on_trace(self, span, args, kwargs, trace) -> None:
        self.totals.count("trace.generate_calls")
        self.totals.count("trace.pages", sum(len(app.pages) for app in trace.apps))

    def on_codec(self, span, args, kwargs) -> None:
        data = args[1] if len(args) > 1 else next(iter(kwargs.values()))
        self.totals.count("codec.calls")
        self.totals.count("codec.bytes_in", len(data))
        for open_span in self._stack:
            open_span.codec_calls += 1

    def on_size_lookup(self, span, args, kwargs) -> None:
        cache = args[0]
        seen = self.totals.size_caches
        if cache not in seen:
            seen[cache] = (cache.hits, cache.misses)

    def after_size_lookup(self, span, args, kwargs, size) -> None:
        if span.parent is not None and span.parent.layer == "sizecache":
            return  # nested lookup: the outer one is the request
        self.totals.count("sizecache.lookups")
        if span.codec_calls:
            self.totals.count("sizecache.measured_lookups")

    def after_pages_lookup(self, span, args, kwargs, size) -> None:
        self.after_size_lookup(span, args, kwargs, size)
        pages = args[2]
        original = PAGE_SIZE * len(pages)
        self.totals.count("sim.original_bytes", original)
        self.totals.count("sim.stored_bytes", min(size, original + 16))

    def on_make_system(self, span, args, kwargs) -> None:
        span.scheme = args[0] if args else kwargs["scheme_name"]

    def after_make_system(self, span, args, kwargs, built) -> None:
        self.totals.systems.append(built)

    def on_system(self, span, args, kwargs) -> None:
        # Ariadne and ZSWAP name themselves by config ("Ariadne-EHL-...").
        span.scheme = args[0].scheme.name.split("-")[0]

    def on_relaunch(self, span, args, kwargs) -> None:
        self.on_system(span, args, kwargs)
        self._relaunch_ids += 1
        span.request = f"relaunch-{self._relaunch_ids}"

    def after_relaunch(self, span, args, kwargs, result) -> None:
        self.totals.relaunch_host_s.append(time.perf_counter() - span.start)
        self.totals.count("sim.relaunches")

    def on_sample_device(self, span, args, kwargs) -> None:
        self._request = f"device-{args[1]}"
        span.request = self._request

    def on_cache_load(self, span, args, kwargs) -> None:
        experiment, cell = args[1], args[2]
        self._request = f"task-{experiment}/{cell}"
        span.request = self._request

    def after_cache_load(self, span, args, kwargs, payload) -> None:
        self.totals.count("cache.loads")
        if payload is not None:
            self.totals.count("cache.hits")

    def after_cache_store(self, span, args, kwargs, result) -> None:
        self.totals.count("cache.stores")

    # ------------------------------------------------------------ export

    def write_chrome_trace(self, path, metadata: dict) -> None:
        """Write the last operation's spans as Chrome trace-event JSON."""
        document = {
            "traceEvents": [
                {"name": "process_name", "ph": "M", "pid": 1,
                 "args": {"name": "perfbench"}},
                *sorted(self.events, key=lambda event: event["ts"]),
            ],
            "displayTimeUnit": "ms",
            "otherData": metadata,
        }
        with open(path, "w") as fh:
            json.dump(document, fh)


def _rebind(old, new) -> None:
    """Point every module-level name bound to ``old`` at ``new``."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for attr, value in list(namespace.items()):
            if value is old:
                setattr(module, attr, new)


def boundaries(tracer: Tracer):
    """``(class or function, attribute, layer, before, after)`` rows."""
    rows = [
        (TraceGenerator, "generate_workload", "trace", None, tracer.on_trace),
    ]
    for codec in (LzoCompressor, Lz4Compressor):
        for attr in ("compressed_size", "compress", "decompress"):
            rows.append((codec, attr, "codec", tracer.on_codec, None))
    rows += [
        (SizeCache, "compressed_size", "sizecache",
         tracer.on_size_lookup, tracer.after_size_lookup),
        (PersistentSizeCache, "compressed_size", "sizecache",
         tracer.on_size_lookup, tracer.after_size_lookup),
        (SizeCache, "compressed_size_of_pages", "sizecache",
         tracer.on_size_lookup, tracer.after_pages_lookup),
        (system.make_system, None, "sim",
         tracer.on_make_system, tracer.after_make_system),
        (system.MobileSystem, "launch_all", "sim", tracer.on_system, None),
        (system.MobileSystem, "launch_app", "sim", tracer.on_system, None),
        (system.MobileSystem, "prepare_relaunch", "sim", tracer.on_system, None),
        (system.MobileSystem, "relaunch", "sim",
         tracer.on_relaunch, tracer.after_relaunch),
        (population.sample_device, None, "fleet", tracer.on_sample_device, None),
        (aggregate.MetricSummary, "add", "fleet", None, None),
        (aggregate.FleetAggregate, "merge", "fleet", None, None),
        (aggregate.FleetAggregate, "normalized", "fleet", None, None),
        (runner.run_experiments, None, "runner", None, None),
        (ExperimentResultCache, "load", "cache",
         tracer.on_cache_load, tracer.after_cache_load),
        (ExperimentResultCache, "store", "cache", None, tracer.after_cache_store),
    ]
    return rows
