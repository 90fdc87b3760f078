"""Outside-in layer tracing: wrap public functions where they are called.

Nothing inside ``src/`` is instrumented.  :class:`Tracer` replaces the
attribute a caller looks a layer up through (a module global at its
import site, or a class attribute for methods) with a timing wrapper,
and puts the original back on exit.  Each call is a span: its busy time
is inclusive, and its self time excludes the traced calls it made, so
the self times of all spans add up to the time covered by outermost
spans.  Spans are kept as per-layer sums in memory, single-threaded.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

#: Layers with busy/calls/share metrics, in report order.
TIMED_LAYERS = (
    "partition.profile_table",
    "io.streaming_profile_table",
    "io.loads",
    "guard.sandbox.run",
    "core.simulator.run_format",
    "workloads.build",
    "engine.cache.matrix_key",
    "serve.protocol",
)


def _tiles(layer: "Layer", args: tuple, result: object) -> None:
    layer.count("tiles", int(result.n_tiles))


def _bytes_parsed(layer: "Layer", args: tuple, result: object) -> None:
    layer.count("bytes", len(args[0]))


def _verdict(layer: "Layer", args: tuple, result: object) -> None:
    layer.count("verdict_ok" if result.ok else "verdict_refused", 1)


def _cache_stats(layer: "Layer", args: tuple, result: object) -> None:
    stats = result.stats
    layer.count("profile_hits", stats.hits_for("profiles"))
    layer.count("profile_misses", stats.misses_for("profiles"))


#: (layer name, module, attribute path at the call site, counter).
#: A dotted attribute path names a method on a class of that module.
SITES = (
    ("partition.profile_table", "repro.engine.executors",
     "profile_table", _tiles),
    ("io.streaming_profile_table", "repro.io",
     "streaming_profile_table", None),
    ("io.loads", "repro.io", "loads", _bytes_parsed),
    ("guard.sandbox.run", "repro.guard.sandbox", "Sandbox.run", _verdict),
    ("core.simulator.run_format", "repro.core.simulator",
     "SpmvSimulator.run_format", None),
    ("workloads.build", "repro.engine.specs", "WorkloadSpec.build", None),
    ("engine.cache.matrix_key", "repro.engine.cache",
     "ContentKeyedCache.matrix_key", None),
    ("engine.runner", "repro.engine.runner", "SweepRunner.run",
     _cache_stats),
    ("serve.protocol", "repro.serve.protocol", "parse_query", None),
    ("serve.protocol", "repro.serve.backend", "canonical_json", None),
)


@dataclass
class Layer:
    busy_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    counters: dict = field(default_factory=dict)

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount


class Tracer:
    """Per-layer span sums for the calls made while installed."""

    def __init__(self) -> None:
        self.layers: dict[str, Layer] = {}
        #: Time covered by outermost spans.
        self.root_s = 0.0
        #: Wall time of the traced regions (see :meth:`region`).
        self.wall_s = 0.0
        self._stack: list[list] = []

    def layer(self, name: str) -> Layer:
        return self.layers.setdefault(name, Layer())

    def _wrap(
        self, name: str, original: Callable, counter: "Callable | None"
    ) -> Callable:
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                layer = self.layer(name)
                layer.calls += 1
                layer.self_s += elapsed - frame[1]
                if not any(f[0] == name for f in self._stack):
                    layer.busy_s += elapsed
                if self._stack:
                    self._stack[-1][1] += elapsed
                else:
                    self.root_s += elapsed
            if counter is not None:
                counter(layer, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every call site in :data:`SITES` for the ``with`` body."""
        patches = []
        try:
            for name, module_name, path, counter in SITES:
                owner = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, original, counter))
                patches.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    @contextmanager
    def region(self):
        """Count the body's wall time as traced wall time."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.wall_s += time.perf_counter() - start

    def metrics(
        self, overhead_frac: float, http_residual_ms: float = 0.0
    ) -> dict:
        """Every per-layer metric, 0 for layers this run never called.

        ``overhead_frac`` is traced over untraced time per unit of work,
        minus one; ``http_residual_ms`` is the HTTP median latency minus
        the in-process median (0 where there is no HTTP).
        """
        wall = self.wall_s or 1.0
        out: dict = {}
        for name in TIMED_LAYERS:
            layer = self.layers.get(name, Layer())
            out[f"{name}.busy_s"] = (layer.busy_s, "s")
            out[f"{name}.calls"] = (layer.calls, "count")
            out[f"{name}.share"] = (layer.busy_s / wall, "fraction")
        get = self.layers.get
        profile = get("partition.profile_table", Layer())
        out["partition.profile_table.tiles"] = (
            profile.counters.get("tiles", 0), "count"
        )
        out["io.loads.bytes"] = (
            get("io.loads", Layer()).counters.get("bytes", 0), "bytes"
        )
        sandbox = get("guard.sandbox.run", Layer())
        out["guard.sandbox.run.verdict_ok"] = (
            sandbox.counters.get("verdict_ok", 0), "count"
        )
        out["guard.sandbox.run.verdict_refused"] = (
            sandbox.counters.get("verdict_refused", 0), "count"
        )
        model = get("core.simulator.run_format", Layer())
        out["core.simulator.run_format.per_call_us"] = (
            model.busy_s / model.calls * 1e6 if model.calls else 0.0, "us"
        )
        runner = get("engine.runner", Layer())
        out["engine.runner.self_s"] = (runner.self_s, "s")
        out["engine.runner.calls"] = (runner.calls, "count")
        out["engine.runner.self_share"] = (runner.self_s / wall, "fraction")
        hits = runner.counters.get("profile_hits", 0)
        lookups = hits + runner.counters.get("profile_misses", 0)
        out["engine.cache.profile_hit_frac"] = (
            hits / lookups if lookups else 0.0, "fraction"
        )
        out["serve.http.residual_ms"] = (http_residual_ms, "ms")
        out["trace.wall_s"] = (self.wall_s, "s")
        out["trace.unattributed_share"] = (
            max(0.0, self.wall_s - self.root_s) / wall, "fraction"
        )
        out["trace.overhead_frac"] = (overhead_frac, "fraction")
        return out
