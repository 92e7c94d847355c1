"""Host-time attribution per layer, from wrappers installed by the benchmark.

The traced pass replaces the public entry points of each layer of
``repro`` with timing wrappers, runs the figure cells, and puts every
original back.  Nothing in the program is edited: the wrappers live on
the classes and modules only while :meth:`LayerTracer.installed` is
active, and :func:`unpatched` proves afterwards that none is left.

Attribution is by self time.  Each call of a wrapped function is a span;
a wrapped generator function gets one span per *resumption* (the call
that creates the generator runs no body code), so a simulated process
that is parked on an event is charged nothing while it waits.  A span's
self time is its duration minus the time covered by the spans nested in
it, so the self times of all layers never overlap and, together with the
time outside every span (``unattributed_s``), they add up to the wall
time of the pass.

Fluid solves run inside the event loop's callbacks, so their time lands
in ``sim`` spans; :func:`layer_seconds` moves the network's own
``solve_wall_s`` counter from ``sim`` to ``sim.fluid``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import time
import types
import typing as _t

#: the layers spans are charged to, in report order
LAYERS = ("sim", "sim.fluid", "mem", "core", "core.strategies",
          "core.eviction", "runtime", "apps", "trace")

#: marker attribute set on every wrapper, so a leftover patch is detectable
MARKER = "__perfbench_layer__"

#: (module, attribute path, layer) of single entry points; a path of
#: ``Class.method`` patches the method on the class that defines it
ENTRY_POINTS = (
    ("repro.sim.environment", "Environment.step", "sim"),
    ("repro.sim.environment", "Environment.run", "sim"),
    ("repro.sim.fluid", "FluidNetwork.start_flow", "sim.fluid"),
    ("repro.sim.fluid", "FluidNetwork.cancel_flow", "sim.fluid"),
    ("repro.mem.mover", "DataMover.move", "mem"),
    ("repro.mem.mover", "DataMover.move_migrate_pages", "mem"),
    ("repro.core.api", "OOCRuntimeBuilder.build", "core"),
    ("repro.core.manager", "OOCManager.finalize_placement", "core"),
    ("repro.core.manager", "OOCManager.intercept", "core"),
    ("repro.core.manager", "OOCManager.post_process", "core"),
    ("repro.core.manager", "OOCManager.retry", "core"),
    ("repro.runtime.converse", "deliver", "runtime"),
    ("repro.runtime.converse", "converse_scheduler", "runtime"),
    # runtime.py binds the scheduler by name at import time
    ("repro.runtime.runtime", "converse_scheduler", "runtime"),
    ("repro.runtime.runtime", "CharmRuntime.send", "runtime"),
    ("repro.runtime.runtime", "CharmRuntime.run_until", "runtime"),
    ("repro.runtime.chare", "Chare.send", "runtime"),
    ("repro.runtime.chare", "ChareArray.send", "runtime"),
    ("repro.runtime.chare", "ChareArray.broadcast", "runtime"),
    ("repro.runtime.reduction", "Reducer.contribute", "runtime"),
    ("repro.trace.tracer", "Tracer.record", "trace"),
    ("repro.trace.projections", "build_report", "trace"),
    ("repro.apps.stencil3d", "Stencil3D.__init__", "apps"),
    ("repro.apps.stencil3d", "Stencil3D.run", "apps"),
    ("repro.apps.matmul", "MatMul.__init__", "apps"),
    ("repro.apps.matmul", "MatMul.run", "apps"),
)

#: (package, base class, layer): every method each subclass defines is
#: wrapped, because the strategies run their own simulated processes
#: (IO threads) whose bodies are private generator methods
CLASS_FAMILIES = (
    ("repro.core.strategies", "repro.core.strategies.base.Strategy",
     "core.strategies"),
    ("repro.core.eviction", "repro.core.eviction.EvictionPolicy",
     "core.eviction"),
)

#: app modules whose chares' entry methods are charged to ``apps``
APP_MODULES = ("repro.apps.stencil3d", "repro.apps.matmul")


class Target(_t.NamedTuple):
    """One patchable attribute: ``getattr(owner, name)`` becomes a wrapper."""

    owner: _t.Any
    name: str
    layer: str
    #: the counter key, e.g. ``DataMover.move``
    key: str


def _resolve(dotted: str) -> _t.Any:
    module, _, attr = dotted.rpartition(".")
    return getattr(importlib.import_module(module), attr)


def _family_targets(package: str, base_path: str,
                    layer: str) -> list[Target]:
    pkg = importlib.import_module(package)
    for info in pkgutil.iter_modules(getattr(pkg, "__path__", [])):
        importlib.import_module(f"{package}.{info.name}")
    base = _resolve(base_path)
    classes, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls.__module__.startswith(package) and cls not in classes:
            classes.append(cls)
        todo.extend(cls.__subclasses__())
    targets = []
    for cls in sorted(classes, key=lambda c: c.__qualname__):
        for name, member in vars(cls).items():
            if inspect.isfunction(member) and not name.startswith("__"):
                targets.append(Target(cls, name, layer,
                                      f"{cls.__name__}.{name}"))
    return targets


def _entry_targets(module_name: str) -> list[Target]:
    from repro.runtime.chare import Chare

    module = importlib.import_module(module_name)
    targets = []
    for cls in vars(module).values():
        if not (isinstance(cls, type) and issubclass(cls, Chare)
                and cls.__module__ == module_name):
            continue
        for name, spec in cls._entry_specs.items():
            if spec.func.__module__ == module_name:
                targets.append(Target(spec, "func", "apps",
                                      f"{cls.__name__}.{name}"))
    return targets


def targets(missing: list[str] | None = None) -> list[Target]:
    """Every attribute the traced pass patches.

    Entry points absent from the program are skipped and, when
    ``missing`` is given, named in it, so a renamed method shows up as a
    report line instead of a crash.
    """
    out: list[Target] = []
    for module_name, path, layer in ENTRY_POINTS:
        owner: _t.Any = importlib.import_module(module_name)
        *owner_path, name = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        if owner is None or name not in vars(owner):
            if missing is not None:
                missing.append(f"{module_name}.{path}")
            continue
        out.append(Target(owner, name, layer, path))
    for package, base, layer in CLASS_FAMILIES:
        out.extend(_family_targets(package, base, layer))
    for module_name in APP_MODULES:
        out.extend(_entry_targets(module_name))
    return out


def unpatched() -> bool:
    """True when no attribute the traced pass patches holds a wrapper."""
    return all(getattr(getattr(t.owner, t.name), MARKER, None) is None
               for t in targets())


class LayerTracer:
    """Span stack with per-layer self time and per-entry-point call counts."""

    def __init__(self, clock: _t.Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: layer -> summed self seconds
        self.self_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        #: counter key (``Class.method``) -> calls
        self.calls: dict[str, int] = {}
        #: counter key -> layer, filled as targets are patched
        self.key_layer: dict[str, str] = {}
        #: entry points named in the table but absent from the program
        self.missing: list[str] = []
        # one [layer, start, child seconds] frame per open span
        self._stack: list[list] = []

    # -- spans -----------------------------------------------------------

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        layer, start, child = self._stack.pop()
        elapsed = self.clock() - start
        self.self_s[layer] = self.self_s.get(layer, 0.0) + elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed

    @property
    def depth(self) -> int:
        return len(self._stack)

    def layer_calls(self) -> dict[str, int]:
        """Calls of wrapped entry points, summed per layer."""
        out = dict.fromkeys(LAYERS, 0)
        for key, n in self.calls.items():
            out[self.key_layer[key]] += n
        return out

    # -- wrappers --------------------------------------------------------

    def wrap(self, func: _t.Callable, layer: str, key: str) -> _t.Callable:
        """``func`` timed as a span of ``layer``; generators per resumption."""
        enter, exit_, calls = self.enter, self.exit, self.calls
        resumptions = self.resumptions

        @functools.wraps(func)
        def wrapper(*args: _t.Any, **kwargs: _t.Any) -> _t.Any:
            calls[key] = calls.get(key, 0) + 1
            enter(layer)
            try:
                result = func(*args, **kwargs)
            finally:
                exit_()
            if type(result) is types.GeneratorType:
                proxy = resumptions(result, layer)
                proxy.__name__ = result.__name__
                proxy.__qualname__ = result.__qualname__
                return proxy
            return result

        setattr(wrapper, MARKER, layer)
        return wrapper

    def resumptions(self, gen: types.GeneratorType,
                    layer: str) -> types.GeneratorType:
        """Drive ``gen`` exactly as ``yield from`` would, one span per step."""
        enter, exit_ = self.enter, self.exit
        send, throw = gen.send, gen.throw
        value: _t.Any = None
        error: BaseException | None = None
        while True:
            enter(layer)
            try:
                item = send(value) if error is None else throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                exit_()
            error = None
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into gen, as yield from
                error, value = exc, None

    # -- installation ----------------------------------------------------

    @contextlib.contextmanager
    def installed(self) -> _t.Iterator["LayerTracer"]:
        """Patch every target for the duration of the block, then restore."""
        saved: list[tuple[_t.Any, str, _t.Any]] = []
        try:
            for target in targets(self.missing):
                original = getattr(target.owner, target.name)
                saved.append((target.owner, target.name, original))
                self.key_layer[target.key] = target.layer
                setattr(target.owner, target.name,
                        self.wrap(original, target.layer, target.key))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)


def layer_seconds(tracer: LayerTracer, solve_wall_s: float,
                  wall_s: float) -> dict[str, float]:
    """Per-layer self seconds plus ``unattributed_s``; they sum to ``wall_s``.

    ``solve_wall_s`` is the fluid networks' own solve time, which ran
    inside ``sim`` spans and is moved to ``sim.fluid``.
    """
    out = {layer: tracer.self_s.get(layer, 0.0) for layer in LAYERS}
    out["sim"] -= solve_wall_s
    out["sim.fluid"] += solve_wall_s
    out["unattributed"] = wall_s - sum(out[layer] for layer in LAYERS)
    return out
