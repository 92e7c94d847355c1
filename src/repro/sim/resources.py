"""Queued resources: stores and counted resources.

These are the building blocks for the runtime's message queues.  ``Store``
is an unbounded FIFO channel with blocking ``get``; ``PriorityStore`` pops
the smallest item; ``Resource`` models N interchangeable slots.
"""

from __future__ import annotations

import heapq
import typing as _t
from collections import deque
from itertools import count

from repro.errors import SimulationError
from repro.race import hooks as _rh
from repro.sim.environment import Environment
from repro.sim.events import PENDING, Event

__all__ = ["Store", "PriorityStore", "Resource"]

# Store.get/Resource.request run once per runtime message; cloning
# Event.__init__ inline there (as Environment.timeout does for Timeout)
# saves the constructor call frame.  Keep in sync with Event.__init__ —
# note the deliberately uninitialised ``_defused`` slot.
_new_event = Event.__new__


class Store:
    """Unbounded FIFO channel.

    ``put(item)`` never blocks.  ``get()`` returns an event that fires with
    the next item (immediately if one is queued).  Getters are served FIFO.
    """

    __slots__ = ("env", "name", "_items", "_getters", "_get_name")

    def __init__(self, env: Environment, name: str = "store"):
        self.env = env
        self.name = name
        self._items: deque[_t.Any] = deque()
        self._getters: deque[Event] = deque()
        # get() runs once per runtime message; formatting the event name
        # there would dominate the fast path, so build it once
        self._get_name = f"{name}.get"

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of queued items (for inspection only)."""
        return tuple(self._items)

    def put(self, item: _t.Any) -> None:
        getters = self._getters
        if getters:
            # inlined Event.succeed() minus its already-triggered guard: a
            # parked getter is untriggered by construction.  put() runs
            # once per runtime message; the call layers were measurable.
            ev = getters.popleft()
            ev._value = item
            env = self.env
            env._agenda_normal.append(ev)
            if env._in_kernel:
                # the kernel's fused branch: no observer is active and the
                # NORMAL domain is uncounted — skip both on the
                # per-message hot path
                return
            env._live += 1
            if _rh.tracker is not None:
                _rh.tracker.on_scheduled(ev)
        else:
            # buffered handoff: the later get() succeeds from the getter's
            # own context, so without this hook the put->get causality edge
            # would be invisible to the race detector
            if _rh.tracker is not None:
                _rh.tracker.on_handoff_put(item)
            self._items.append(item)

    def get(self) -> Event:
        env = self.env
        proc = env._current
        if proc is not None:
            # recycle the resuming process's private handle (see
            # Process._handle): three slot resets replace the allocation
            # + eight-store init below.  _current is published only by
            # the kernel's fused branch, which never runs with an
            # observer installed and whose NORMAL domain is uncounted —
            # the tracker/_live branches of the general path below are
            # statically dead here.  _cb0 keeps naming the owner (the
            # kernel attach relies on it); _cbs needs no reset — every
            # dispatch path clears it at processing time, so a processed
            # handle never carries overflow callbacks.  The
            # parked branch must restore _value = PENDING: conditions
            # (all_of/any_of) read ``triggered`` at construction, and a
            # stale value would make a parked handle look already fired.
            ev = proc._handle
            if ev._processed:
                ev._processed = False
                ev._cb0 = proc
                items = self._items
                if items:
                    ev._value = items.popleft()
                    env._agenda_normal.append(ev)
                else:
                    ev._value = PENDING
                    self._getters.append(ev)
                return ev
        # inlined Event(env, self._get_name): the constructor call frame
        # and the name= keyword cost ~250ns per event at this call rate
        ev = _new_event(Event)
        ev.env = env
        ev.name = self._get_name
        ev._cb0 = None
        ev._cbs = None
        ev._ok = True
        ev._processed = False
        ev._cancelled = False
        if self._items:
            item = self._items.popleft()
            tracker = _rh.tracker
            if tracker is not None:
                tracker.on_handoff_get(item)
            # inlined Event.succeed() (see put()); ev is freshly created
            ev._value = item
            env._agenda_normal.append(ev)
            if not env._in_kernel:
                env._live += 1
                if tracker is not None:
                    tracker.on_scheduled(ev)
        else:
            ev._value = PENDING
            self._getters.append(ev)
        return ev

    def try_get(self) -> _t.Any | None:
        """Non-blocking pop; returns None when empty."""
        if self._items:
            item = self._items.popleft()
            if _rh.tracker is not None:
                _rh.tracker.on_handoff_get(item)
            return item
        return None


class PriorityStore(Store):
    """A store that pops the smallest item (heap order, FIFO among equals)."""

    __slots__ = ("_heap", "_seq")

    def __init__(self, env: Environment, name: str = "pstore"):
        super().__init__(env, name=name)
        self._heap: list[tuple[_t.Any, int, _t.Any]] = []
        self._seq = count()

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def items(self) -> tuple:
        return tuple(item for _, _, item in sorted(self._heap))

    def put(self, item: _t.Any, priority: _t.Any = None) -> None:
        key = item if priority is None else priority
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            if _rh.tracker is not None:
                _rh.tracker.on_handoff_put(item)
            heapq.heappush(self._heap, (key, next(self._seq), item))

    def get(self) -> Event:
        ev = Event(self.env, name=self._get_name)
        if self._heap:
            item = heapq.heappop(self._heap)[2]
            if _rh.tracker is not None:
                _rh.tracker.on_handoff_get(item)
            ev.succeed(item)
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> _t.Any | None:
        if self._heap:
            item = heapq.heappop(self._heap)[2]
            if _rh.tracker is not None:
                _rh.tracker.on_handoff_get(item)
            return item
        return None


class Resource:
    """N interchangeable slots with FIFO grant order.

    ``request()`` yields until a slot is free; ``release()`` frees one.
    """

    __slots__ = ("env", "name", "capacity", "_in_use", "_waiters",
                 "_req_name")

    def __init__(self, env: Environment, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque[Event] = deque()
        self._req_name = f"{name}.request"

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> Event:
        env = self.env
        proc = env._current
        if proc is not None:
            # recycle the caller's handle — see Store.get() (the tracker /
            # _live branches below are statically dead here too)
            ev = proc._handle
            if ev._processed:
                ev._processed = False
                ev._cb0 = proc
                in_use = self._in_use
                if in_use < self.capacity:
                    self._in_use = in_use + 1
                    ev._value = None
                    env._agenda_normal.append(ev)
                else:
                    ev._value = PENDING
                    self._waiters.append(ev)
                return ev
        # inlined Event(env, self._req_name) — see Store.get()
        ev = _new_event(Event)
        ev.env = env
        ev.name = self._req_name
        ev._cb0 = None
        ev._cbs = None
        ev._ok = True
        ev._processed = False
        ev._cancelled = False
        if self._in_use < self.capacity:
            self._in_use += 1
            # inlined Event.succeed() (see Store.put()); ev is fresh
            ev._value = None
            env._agenda_normal.append(ev)
            if not env._in_kernel:
                env._live += 1
                if _rh.tracker is not None:
                    _rh.tracker.on_scheduled(ev)
        else:
            ev._value = PENDING
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        waiters = self._waiters
        if waiters:
            # inlined Event.succeed() (see Store.put()): a parked waiter is
            # untriggered by construction
            ev = waiters.popleft()
            ev._value = None
            env = self.env
            env._agenda_normal.append(ev)
            if env._in_kernel:
                return  # the kernel's fused branch — see Store.put()
            env._live += 1
            if _rh.tracker is not None:
                _rh.tracker.on_scheduled(ev)
        else:
            self._in_use -= 1
