"""Layer spans for the traced pass, recorded from outside the program.

:func:`install` wraps the public entry points of every ``repro`` package —
its public functions and the hand-written public methods (and
``__init__``) of its public classes — and, because a module that did
``from repro.crypto.hashing import hash_obj`` holds its own reference,
rebinds every such name in every ``repro`` module to the wrapper.  It also
wraps the callbacks the program hands to its dispatchers (``Simulator``
events, ``Resource`` job completions, ``Network.register`` handlers,
``NodeRuntime`` message handlers, storage sync completions, guarded
replica callbacks), so a callback's time is charged to the package that
owns it rather than to the dispatcher.

A span opens where a call crosses from one layer (``repro`` package) into
another; calls that stay inside a layer run unwrapped, except for the
entry points named in :data:`FOCUS`, which always get their own span.  Each
span records its name, start, end and parent; the first
:data:`SPAN_CAPACITY` are kept for export.  Self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict

#: Entry points reported on their own, by qualified name.  These always
#: open a span, even when called from inside their own layer.
FOCUS = {
    "repro.crypto.hashing.hash_obj": "crypto.hash_obj",
    "repro.crypto.merkle.MerkleTree.__init__": "crypto.merkle_tree",
    "repro.crypto.keys.KeyPair.sign": "crypto.sign",
    "repro.crypto.keys.KeyRegistry.verify": "crypto.verify",
    "repro.storage.stable.StableStore.append": "storage.append",
    "repro.storage.stable.StableStore.read_log": "storage.read",
    "repro.storage.stable.StableStore.read_entries": "storage.read",
    "repro.storage.stable.StableStore.read_cell": "storage.read",
    "repro.storage.stable.StableStore.verify_entry": "storage.read",
    "repro.storage.stable.StableStore.verify_cell": "storage.read",
    "repro.apps.smartcoin.SmartCoin.execute": "apps.execute",
    "repro.sim.engine.Simulator.run": "sim.run",
}

#: Spans kept for export; later ones are only counted.
SPAN_CAPACITY = 100_000

#: Dispatchers that take a callback, as (module, class, method, index of
#: the callback among the positional arguments after ``self``).
CALLBACK_SITES = (
    ("repro.sim.engine", "Simulator", "schedule", 1),
    ("repro.sim.engine", "Simulator", "schedule_at", 1),
    ("repro.sim.resource", "Resource", "submit", 1),
    ("repro.sim.resource", "Resource", "submit_bulk", 2),
    ("repro.net.network", "Network", "register", 1),
    ("repro.smr.runtime", "NodeRuntime", "register_handler", 1),
    ("repro.storage.stable", "StableStore", "sync", 0),
    ("repro.smr.replica", "ModSmartReplica", "guard", 0),
    ("repro.obs.events", "EventLog", "subscribe", 0),
)


def layer_of(module: str | None) -> str:
    """The layer a module belongs to: its ``repro`` package (or, for the
    top-level ``repro.config`` and ``repro.errors``, the module itself)."""
    if not module or not module.startswith("repro."):
        return "other"
    return module.split(".")[1]


def _owner_module(fn) -> str | None:
    target = fn
    while isinstance(target, functools.partial):
        target = target.func
    module = getattr(target, "__module__", None)
    if module is None and hasattr(target, "__self__"):
        module = type(target.__self__).__module__
    return module


class Tracer:
    """Span stack plus per-entry aggregates for one traced process."""

    def __init__(self):
        #: Open spans: ``[layer, child seconds, span index]``.
        self.stack: list[list] = []
        #: Recorded spans: ``(name, start, end, parent index or -1)``.
        self.spans: list[tuple | None] = []
        self.spans_dropped = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Calls that crossed into a layer from outside it.
        self.layer_calls: dict[str, int] = defaultdict(int)
        self.wrapped = 0
        self.rebound = 0
        self.skipped_modules: list[str] = []
        self._callback_keys: dict[str, tuple[str, str]] = {}

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, fn, layer: str, key: str, always: bool = False,
             keep_metadata: bool = True):
        """``fn`` wrapped in a span charged to ``key`` in ``layer``."""
        stack = self.stack
        spans = self.spans
        self_s = self.self_s
        total_s = self.total_s
        calls = self.calls
        layer_calls = self.layer_calls
        tracer = self

        def traced(*args, **kwargs):
            caller = stack[-1] if stack else None
            crossing = caller is None or caller[0] != layer
            if not crossing and not always:
                return fn(*args, **kwargs)
            if len(spans) < SPAN_CAPACITY:
                index = len(spans)
                spans.append(None)
            else:
                index = -1
                tracer.spans_dropped += 1
            frame = [layer, 0.0, index]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                self_s[key] += duration - frame[1]
                total_s[key] += duration
                calls[key] += 1
                if crossing:
                    layer_calls[layer] += 1
                if caller is not None:
                    caller[1] += duration
                if index >= 0:
                    spans[index] = (key, start, end,
                                    caller[2] if caller is not None else -1)

        return functools.wraps(fn)(traced) if keep_metadata else traced

    def callback(self, fn):
        """Wrap a callback handed to a dispatcher, charged to its owner."""
        if fn is None or getattr(fn, "__perfbench_callback__", False):
            return fn
        module = _owner_module(fn)
        cached = self._callback_keys.get(module)
        if cached is None:
            layer = layer_of(module)
            cached = self._callback_keys[module] = (layer, f"{layer}.callback")
        layer, key = cached
        wrapped = self.span(fn, layer, key, keep_metadata=False)
        wrapped.__perfbench_callback__ = True
        return wrapped

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every public entry point of every importable ``repro``
        module and rebind names other modules imported."""
        import repro

        modules = {"repro": repro}
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            try:
                modules[info.name] = importlib.import_module(info.name)
            except ImportError:
                self.skipped_modules.append(info.name)
        originals: dict[int, object] = {}
        for name, module in sorted(modules.items()):
            source = getattr(module, "__file__", None)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != name:
                    continue
                if inspect.isfunction(value):
                    wrapper = self._wrap_function(value, f"{name}.{attr}", name)
                    setattr(module, attr, wrapper)
                    originals[id(value)] = wrapper
                elif inspect.isclass(value):
                    self._wrap_class(value, name, source)
        self._install_callback_sites(modules)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and value is not wrapper:
                    setattr(module, attr, wrapper)
                    self.rebound += 1

    def _wrap_function(self, fn, qualname: str, module: str):
        key = FOCUS.get(qualname)
        layer = layer_of(module)
        self.wrapped += 1
        return self.span(fn, layer, key or f"{layer}.entry", always=key is not None)

    def _wrap_class(self, cls, module: str, source: str | None) -> None:
        if issubclass(cls, BaseException) or _is_enum(cls):
            return
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            qualname = f"{module}.{cls.__name__}.{attr}"
            kind = None
            fn = value
            if isinstance(value, (staticmethod, classmethod)):
                kind = type(value)
                fn = value.__func__
            if not inspect.isfunction(fn) or not _defined_in(fn, source):
                continue
            wrapper = self._wrap_function(fn, qualname, module)
            setattr(cls, attr, kind(wrapper) if kind else wrapper)

    def _install_callback_sites(self, modules) -> None:
        for module, cls_name, method, index in CALLBACK_SITES:
            cls = getattr(modules[module], cls_name)
            original = getattr(cls, method)
            setattr(cls, method, self._with_callback(original, index))

    def _with_callback(self, original, index: int):
        callback = self.callback

        def dispatch(this, *args, **kwargs):
            if len(args) > index:
                args = (*args[:index], callback(args[index]), *args[index + 1:])
            else:
                for name in ("fn", "handler", "callback"):
                    if name in kwargs:
                        kwargs[name] = callback(kwargs[name])
            return original(this, *args, **kwargs)

        return functools.wraps(original)(dispatch)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Per-layer self time and calls, per-entry aggregates, coverage."""
        layers: dict[str, dict] = {}
        for key, seconds in self.self_s.items():
            layer = key.split(".", 1)[0]
            entry = layers.setdefault(layer, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += seconds
        for layer, count in self.layer_calls.items():
            layers.setdefault(layer, {"self_s": 0.0, "calls": 0})["calls"] = count
        run_s = self.total_s["sim.run"]
        return {
            "layers": layers,
            "entries": {key: {"self_s": self.self_s[key],
                              "calls": self.calls[key]}
                        for key in self.self_s},
            # Share of Simulator.run spent inside the layer spans it
            # dispatched; the rest is the event loop itself.
            "coverage_frac": ((run_s - self.self_s["sim.run"]) / run_s
                              if run_s else 0.0),
            "spans": len(self.spans),
            "spans_dropped": self.spans_dropped,
            "wrapped": self.wrapped,
            "rebound": self.rebound,
            "skipped_modules": self.skipped_modules,
        }


def _is_enum(cls) -> bool:
    import enum
    return issubclass(cls, enum.Enum)


def _defined_in(fn, source: str | None) -> bool:
    """Hand-written in the module's own file (not dataclass-generated)."""
    return source is not None and fn.__code__.co_filename == source
