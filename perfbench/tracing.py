"""Per-layer spans for the traced run, installed from outside ``src/``.

The traced run replaces functions and methods of the kernel's modules
with wrappers that time each call.  A span's *self time* is its duration
minus the time of the spans it encloses, so nested and recursive calls
(a ``Message.decode`` inside a batch decode) are counted once.  Module
functions are patched in every module that looked them up, e.g.
``repro.core.pipeline.pack_batch`` as well as
``repro.msg.message.pack_batch``.

Every module under ``src/repro`` that does work on the data path is
covered by some span: the listed layers below, or ``other`` for the
kernel glue (``core/kernel.py``, sites, processes, the toolkit stubs)
and for the event dispatch of both drivers.  Time in ``other`` spans or
outside every span is *unattributed*.

:func:`install` must run before the cluster is built: drivers keep
bound methods (receive handlers, timers) taken at boot.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Module -> layer.  Classes and functions defined in the module are
#: wrapped; ``_span_name`` splits a few layers into named sub-spans.
LAYER_MODULES: Dict[str, str] = {
    "repro.net.transport": "net",
    "repro.net.lan": "net",
    "repro.net.udp": "net",
    "repro.net.packet": "net",
    "repro.net.bulk": "net",
    "repro.core.pipeline": "pipeline",
    "repro.core.tree": "pipeline",
    "repro.core.ordering": "ordering",
    "repro.core.abcast": "ordering",
    "repro.core.cbcast": "causal",
    "repro.core.vectorclock": "causal",
    "repro.core.shards": "causal",
    "repro.core.engine": "engine",
    "repro.core.flush": "flush",
    "repro.fd.heartbeat": "fd",
    "repro.fd.siteview": "fd",
    "repro.fd.membership": "fd",
    "repro.core.wal": "wal",
    "repro.runtime.stable": "wal",
    "repro.core.kernel": "other",
    "repro.core.groups": "other",
    "repro.core.store": "other",
    "repro.core.rpc": "other",
    "repro.core.namespace": "other",
    "repro.runtime.site": "other",
    "repro.runtime.process": "other",
    "repro.runtime.entries": "other",
    "repro.runtime.filters": "other",
}

#: Layers whose self time the budget attributes (``other`` is not one).
LAYERS = ("msg", "sim", "net", "pipeline", "ordering", "causal", "engine",
          "flush", "fd", "wal", "asyncio", "bench")

#: Wire protocols that carry state transfer to a joiner.
TRANSFER_PROTOS = frozenset({"st.data", "st.chunk"})

_NET_RECV = ("_on_", "_process", "recv", "_arrive", "decode", "readable",
             "reassembl", "add")


def _span_name(layer: str, owner: str, name: str) -> str:
    if layer == "other":
        return "other.kernel"
    if layer == "net":
        recv = any(mark in name.lower() for mark in _NET_RECV)
        return "net.recv" if recv else "net.send"
    if layer == "pipeline":
        return ("pipeline.stability" if owner == "StabilityStage"
                else "pipeline.fanout")
    return layer


class Tracer:
    """Span stack and per-span accumulators (self seconds, calls)."""

    def __init__(self) -> None:
        self.stack: List[List[float]] = []
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.transfer_bytes = 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        stack = self.stack
        self_s = self.self_s
        calls = self.calls
        self_s.setdefault(name, 0.0)
        calls.setdefault(name, 0)
        clock = time.perf_counter

        def span(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self_s[name] += duration - child[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", "span")
        return span

    def snapshot(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        return dict(self.self_s), dict(self.calls)


def _patch_function(tracer: Tracer, module, name: str, span: str) -> None:
    """Replace ``module.name`` everywhere a ``repro`` module holds it."""
    orig = getattr(module, name)
    wrapped = tracer.wrap(span, orig)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)


def _patch_method(tracer: Tracer, cls, name: str, span: str) -> None:
    raw = cls.__dict__[name]
    if isinstance(raw, classmethod):
        setattr(cls, name, classmethod(tracer.wrap(span, raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(cls, name, staticmethod(tracer.wrap(span, raw.__func__)))
    else:
        setattr(cls, name, tracer.wrap(span, raw))


def _wrappable(obj) -> bool:
    func = obj
    if isinstance(obj, (classmethod, staticmethod)):
        func = obj.__func__
    return (inspect.isfunction(func)
            and not inspect.isgeneratorfunction(func))


def _patch_module(tracer: Tracer, mod_name: str, layer: str) -> None:
    module = importlib.import_module(mod_name)
    for name, obj in list(vars(module).items()):
        if getattr(obj, "__module__", None) != mod_name:
            continue
        if inspect.isclass(obj):
            for attr, raw in list(obj.__dict__.items()):
                if (attr.startswith("__") and attr != "__post_init__") \
                        or not _wrappable(raw):
                    continue
                _patch_method(tracer, obj, attr,
                              _span_name(layer, obj.__name__, attr))
        elif _wrappable(obj):
            _patch_function(tracer, module, name,
                            _span_name(layer, "", name))


def install(tracer: Tracer, bench_hooks: List[Tuple[object, str]]) -> None:
    """Wrap the kernel's modules; ``bench_hooks`` are (class, method)
    pairs of the benchmark's own callbacks, timed as ``bench.app``."""
    from repro.msg import address, fields, message
    from repro.runtime import asyncio_driver
    from repro.sim import core, cpu

    for mod_name, layer in LAYER_MODULES.items():
        _patch_module(tracer, mod_name, layer)

    # msg: the codec entry points and the address helpers.
    _patch_method(tracer, message.Message, "encode", "msg.encode")
    _patch_method(tracer, message.Message, "decode", "msg.decode")
    _patch_function(tracer, message, "pack_batch", "msg.encode")
    _patch_function(tracer, message, "unpack_batch", "msg.decode")
    for name in ("encode_have_vector", "diff_have_vector",
                 "exact_diff_have_vector"):
        _patch_function(tracer, fields, name, "msg.encode")
    for name in ("decode_have_vector", "apply_have_diff"):
        _patch_function(tracer, fields, name, "msg.decode")
    for name in ("pack", "unpack", "with_entry", "process", "same_process",
                 "__post_init__"):
        _patch_method(tracer, address.Address, name, "msg.address")
    for name in ("make_process_address", "make_group_address"):
        _patch_function(tracer, address, name, "msg.address")

    # sim: heap push/pop and CPU submits; each dispatched event runs in
    # an ``other`` span so the callback's own work is not scheduler time.
    call_at = core.Simulator.call_at

    def sim_call_at(self, when, fn, *args):
        return call_at(self, when, tracer.wrap("other.sim_event", fn), *args)

    core.Simulator.call_at = tracer.wrap("sim.sched", sim_call_at)
    _patch_method(tracer, core.Simulator, "step", "sim.sched")
    _patch_method(tracer, cpu.Cpu, "submit", "sim.cpu")

    # asyncio: the scheduler seam, timers dispatched the same way.
    schedule = asyncio_driver.AsyncioScheduler._schedule

    def net_schedule(self, delay, fn, args):
        return schedule(self, delay, tracer.wrap("other.net_timer", fn),
                        args)

    asyncio_driver.AsyncioScheduler._schedule = tracer.wrap(
        "asyncio", net_schedule)
    _patch_method(tracer, asyncio_driver.RealCpu, "submit", "asyncio")

    # State-transfer bytes: encodes of the transfer messages (the codec
    # caches wire bytes, so each message counts once).
    encode = message.Message.encode

    def counted_encode(self):
        fresh = self._encoded is None
        data = encode(self)
        if fresh and self.get("_proto") in TRANSFER_PROTOS:
            tracer.transfer_bytes += len(data)
        return data

    message.Message.encode = counted_encode

    for cls, name in bench_hooks:
        _patch_method(tracer, cls, name, "bench.app")


def layer_of(span: str) -> Optional[str]:
    """The budget layer a span name belongs to (None for ``other``)."""
    layer = span.split(".", 1)[0]
    return layer if layer in LAYERS else None
