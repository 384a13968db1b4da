"""Span tracing from outside the program.

While a traced window runs, every public method of every class in the
layer modules below is wrapped.  A call that crosses into another layer
records one span: layer, parent span, host start/end
(``time.perf_counter``) and simulated start/end (``clock.now_ns``).  Calls
inside one layer are counted but open no span, so a layer's span covers
all of its own nested work.  Spans live in flat arrays in memory; self
times are derived from them after the window closes:

* host self time: a span's duration minus its children's durations
  (host spans nest strictly);
* simulated self time: a span's simulated interval minus the part that
  the union of its children's intervals covers.  Children can run in
  overlapping clock frames (parallel split I/O, ring submissions), so the
  union, clipped to the parent's interval, is what is subtracted.

The wrappers read the host and simulated clocks only; they charge no
simulated time, which the runner checks by comparing a traced episode's
simulated fingerprint with an untraced one's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.devices.base import Device
from repro.devices.profile import DeviceKind
from repro.vfs.interface import FileSystem

#: layer -> modules whose classes make up the layer
LAYERS: Dict[str, Tuple[str, ...]] = {
    "vfs": ("repro.vfs.vfs",),
    "mux": (
        "repro.core.mux",
        "repro.core.blt",
        "repro.core.metadata",
        "repro.core.registry",
        "repro.core.dcache",
    ),
    "scm_cache": ("repro.core.cache", "repro.core.mglru"),
    "migration": ("repro.core.migration", "repro.core.occ"),
    "mirror": ("repro.core.mirror",),
    "policy": ("repro.core.policies", "repro.core.policy", "repro.core.pressure"),
    "ring": ("repro.core.ring",),
    "pagecache": ("repro.fscommon.pagecache",),
    "journal": ("repro.fscommon.journal",),
    "blockmap": ("repro.fscommon.extents", "repro.fscommon.allocator"),
    "nfs": ("repro.fs.nfs",),
    # repro.sim.tasks is left unwrapped: a task's generator body runs inside
    # TaskRunner.tick, and that work belongs to the layer that spawned it
    "sim": ("repro.sim.clock",),
    "cluster": ("repro.cluster.cluster", "repro.cluster.hashring"),
}
#: native file systems and devices: one layer per instance, named
#: ``fs.<fs_name>`` and ``dev.<tier kind>``
FS_MODULES = (
    "repro.fscommon.basefs",
    "repro.fscommon.journaledfs",
    "repro.fs.nova.fs",
    "repro.fs.xfs.fs",
    "repro.fs.ext4.fs",
)
DEV_MODULES = (
    "repro.devices.base",
    "repro.devices.pm",
    "repro.devices.ssd",
    "repro.devices.hdd",
)

#: Block Lookup Table queries, counted as ``blt.lookups``
BLT_CLASSES = ("BlockLookupTable", "ExtentBlt")
BLT_LOOKUPS = ("lookup", "runs")
#: policy planners; the lengths of their returned lists sum to ``policy.orders``
ORDER_METHODS = ("plan_migrations", "plan_mirrors")


_DEV_LAYER = {
    DeviceKind.PERSISTENT_MEMORY: "dev.pm",
    DeviceKind.SOLID_STATE: "dev.ssd",
    DeviceKind.HARD_DISK: "dev.hdd",
}


def _classes(modules: Tuple[str, ...]):
    """Classes defined (not imported) in ``modules``."""
    for name in modules:
        module = importlib.import_module(name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == name:
                yield cls


def _fs_layer(fs) -> str:
    return "fs." + fs.fs_name


def _dev_layer(device) -> str:
    return _DEV_LAYER.get(device.profile.kind, "dev.other")


class Tracer:
    """Installs wrappers, records spans, and folds them into self times."""

    def __init__(self) -> None:
        self.active = False
        self.clock = None
        self._installed: List[Tuple[type, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self.layer_ids: Dict[str, int] = {}
        self.layer_names: List[str] = []
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.h0 = array("d")
        self.h1 = array("d")
        self.s0 = array("q")
        self.s1 = array("q")
        self.stack: List[int] = [-1]
        self.cur_layer: Optional[str] = None
        self.layer_stack: List[Optional[str]] = [None]
        self.calls: Dict[str, int] = defaultdict(int)
        self.counted: Dict[str, int] = defaultdict(int)
        self.window_s = 0.0

    # -- wrapping -------------------------------------------------------------

    def install(self) -> None:
        for layer, modules in LAYERS.items():
            for cls in _classes(modules):
                self._wrap_class(cls, layer, None)
        for cls in _classes(FS_MODULES):
            if issubclass(cls, FileSystem):
                self._wrap_class(cls, None, _fs_layer)
        for cls in _classes(DEV_MODULES):
            if issubclass(cls, Device):
                self._wrap_class(cls, None, _dev_layer)

    def uninstall(self) -> None:
        for cls, name, original in reversed(self._installed):
            setattr(cls, name, original)
        self._installed.clear()

    def _wrap_class(self, cls: type, static: Optional[str], layer_of) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") or not inspect.isfunction(attr):
                continue
            lookup = cls.__name__ in BLT_CLASSES and name in BLT_LOOKUPS
            orders = name in ORDER_METHODS
            wrapper = self._make_wrapper(attr, static, layer_of, lookup, orders)
            self._installed.append((cls, name, attr))
            setattr(cls, name, wrapper)

    def _make_wrapper(self, fn, static, layer_of, lookup, orders):
        tracer = self

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            if not tracer.active:
                return fn(obj, *args, **kwargs)
            layer = static if static is not None else layer_of(obj)
            tracer.calls[layer] += 1
            if lookup:
                tracer.counted["blt.lookups"] += 1
            if layer == tracer.cur_layer:
                result = fn(obj, *args, **kwargs)
            else:
                idx = tracer._open(layer)
                try:
                    result = fn(obj, *args, **kwargs)
                finally:
                    tracer._close(idx)
            if orders and result:
                tracer.counted["policy.orders"] += len(result)
            return result

        return wrapper

    # -- spans ------------------------------------------------------------------

    def _open(self, layer: str) -> int:
        lid = self.layer_ids.get(layer)
        if lid is None:
            lid = self.layer_ids[layer] = len(self.layer_names)
            self.layer_names.append(layer)
        idx = len(self.h0)
        self.span_layer.append(lid)
        self.span_parent.append(self.stack[-1])
        self.s0.append(self.clock.now_ns)
        self.s1.append(0)
        self.h1.append(0.0)
        self.stack.append(idx)
        self.layer_stack.append(layer)
        self.cur_layer = layer
        self.h0.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.h1[idx] = time.perf_counter()
        self.s1[idx] = self.clock.now_ns
        self.stack.pop()
        self.layer_stack.pop()
        self.cur_layer = self.layer_stack[-1]

    def span(self, layer: str):
        """Context manager the benchmark opens around its own work."""
        return _Span(self, layer)

    def start(self, clock) -> None:
        self._reset()
        self.clock = clock
        self.active = True
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        self.window_s = time.perf_counter() - self._t0
        self.active = False

    # -- folding ----------------------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, float], int]:
        """Per-layer host self seconds, simulated self ns, and span count."""
        n = len(self.h0)
        child_host = [0.0] * n
        children: Dict[int, List[int]] = defaultdict(list)
        h0, h1, s0, s1 = self.h0, self.h1, self.s0, self.s1
        parents = self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_host[p] += h1[i] - h0[i]
                children[p].append(i)
        host: Dict[str, float] = defaultdict(float)
        sim: Dict[str, float] = defaultdict(float)
        names = self.layer_names
        layers = self.span_layer
        # simulated time is charged by calling into the clock: a ``sim``
        # span's interval belongs to the layer that made the call
        clock_id = self.layer_ids.get("sim", -1)
        for i in range(n):
            layer = names[layers[i]]
            host[layer] += (h1[i] - h0[i]) - child_host[i]
            lo, hi = s0[i], s1[i]
            if hi <= lo or layers[i] == clock_id:
                continue
            covered = 0
            kids = [k for k in children.get(i, ()) if layers[k] != clock_id]
            if kids:
                edge = lo
                for a, b in sorted((max(s0[k], lo), min(s1[k], hi)) for k in kids):
                    if b <= edge:
                        continue
                    if a < edge:
                        a = edge
                    covered += b - a
                    edge = b
            sim[layer] += (hi - lo) - covered
        return dict(host), dict(sim), n


class _Span:
    __slots__ = ("tracer", "layer", "idx")

    def __init__(self, tracer: Tracer, layer: str) -> None:
        self.tracer = tracer
        self.layer = layer

    def __enter__(self):
        self.idx = self.tracer._open(self.layer)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False
