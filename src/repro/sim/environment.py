"""The simulation environment: clock + batched event queue + run loop.

The queue is split into three structures so the hot loop touches the
cheapest one that can serve the next event:

* **agenda** — two FIFO lists (urgent / normal) holding the events due at
  the *current* instant.  ``schedule(delay=0)`` — the overwhelmingly common
  case: every ``succeed()`` cascade — is a single ``list.append``; no heap
  is involved at all.  The drain loop swaps the whole list out and walks it
  with a bare ``for`` (ping-pong batching): one container operation per
  *batch* of same-instant events instead of one pop per event.
* **buckets** — future events grouped by their exact timestamp
  (``dict[time, list[Event]]``).  Same-timestamp cascades (64 movers waking
  from one timeout) cost one heap entry for the whole batch instead of one
  heap push/pop per event.
* **time heap** — a heap of plain floats, one per occupied bucket.  The
  clock advances by popping a time and draining its bucket into the agenda
  in one pass.

Processing order is identical to the previous one-entry-per-heap-push
design: events run in ``(time, priority-band, scheduling order)`` order,
with URGENT (process resumption) ahead of NORMAL at the same instant —
including URGENT events scheduled *while* a normal batch is draining,
which preempt the rest of that batch.  The one deliberate exception: a
``delay > 0`` that rounds to the current instant lands *after* the
already-queued same-instant events instead of interleaving by sequence
number (both orders are deterministic).

Cancellation is O(1): :meth:`cancel` tombstones the event in place and the
drain loops skip it.  When tombstones outnumber live entries (a long
open-loop run cancelling bandwidth wakeups forever), :meth:`_compact`
sweeps them out, so dead entries can no longer accumulate without bound.

When a same-instant tie-breaker is installed (the schedule explorer), the
environment falls back to the legacy single-heap layout whose entries
carry the permuted sequence keys — batched FIFO lists cannot represent a
permuted same-instant order.
"""

from __future__ import annotations

import os as _os
import typing as _t
from heapq import heapify as _heapify
from heapq import heappop as _heappop
from heapq import heappush as _heappush
from itertools import count

from repro.errors import DeadlockError, SimulationError
from repro.race import hooks as _rh
from repro.sim import kernel as _kernel
from repro.sim.events import Event, AllOf, AnyOf, Timeout

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import Process

__all__ = ["Environment"]

#: Priority band for normal events.
NORMAL = 1
#: Priority band for urgent events (process resumption ahead of same-time events).
URGENT = 0

#: compact when tombstones exceed both this floor and the live count
_COMPACT_MIN_DEAD = 64

_INF = float("inf")

#: hoisted for Environment.timeout() (one LOAD_ATTR per timeout otherwise)
_new_timeout = Timeout.__new__


class Environment:
    """Owns the simulated clock and the pending-event structures.

    Typical usage::

        env = Environment()
        env.process(my_generator(env))
        env.run()

    :meth:`schedule` returns an opaque token (the event itself in the
    batched layout, a heap entry under a tie-breaker) which may be passed
    to :meth:`cancel` for O(1) invalidation.  Cancelled entries are
    skipped lazily and swept out wholesale once they outnumber live ones.
    """

    __slots__ = ("_now", "_times", "_buckets", "_urgent_buckets",
                 "_agenda_urgent", "_agenda_normal", "_legacy_queue",
                 "_seq", "_live", "_dead", "_active", "_tie_break",
                 "_kernel", "_reuse", "_current", "_in_kernel",
                 "_tcache_t", "_tcache")

    def __init__(self, initial_time: float = 0.0, *,
                 reuse_handles: bool = False,
                 kernel: bool | None = None):
        self._now = float(initial_time)
        #: every run() form goes through the fused kernel loop
        #: (repro.sim.kernel.drain) unless disabled here or via
        #: $REPRO_SIM_KERNEL=0; all loops are order-identical
        if kernel is None:
            kernel = _os.environ.get("REPRO_SIM_KERNEL", "1") != "0"
        self._kernel = kernel
        #: opt-in: event factories may recycle the calling process's
        #: private handle event (see Process._handle for the contract)
        self._reuse = bool(reuse_handles)
        #: process currently being resumed by the kernel loop, published
        #: only when reuse_handles is on (event factories consult it)
        self._current = None
        #: True while a kernel drain is running: the NORMAL event domain
        #: is then *uncounted* — scheduling paths skip the per-event
        #: ``_live`` bookkeeping and the kernel reconciles on exit (see
        #: repro.sim.kernel for the conversion contract)
        self._in_kernel = False
        #: one-slot bucket cache for timeout(): consecutive timeouts to
        #: the same instant (the 64-lane lockstep shape) skip the float
        #: hash + dict lookup.  Invalidated wholesale wherever a bucket
        #: can leave ``_buckets`` (_advance_clock / peek / _compact).
        self._tcache_t = -1.0
        self._tcache: list[Event] | None = None
        #: heap of bucket timestamps (floats; may hold stale duplicates)
        self._times: list[float] = []
        #: future NORMAL events by exact timestamp
        self._buckets: dict[float, list[Event]] = {}
        #: future URGENT events by exact timestamp (rare: URGENT is only
        #: used for same-instant process bootstrap today)
        self._urgent_buckets: dict[float, list[Event]] = {}
        #: events due at the current instant, FIFO per priority band
        self._agenda_urgent: list[Event] = []
        self._agenda_normal: list[Event] = []
        #: legacy ``[time, priority, seq, event]`` heap (tie-breaker mode)
        self._legacy_queue: list[list] = []
        self._seq = count()
        #: number of live (non-cancelled) entries across all structures.
        #: NOTE: while a batch is draining this lags behind by the events
        #: dispatched so far in the batch (flushed at batch end).
        self._live = 0
        #: number of cancelled entries still parked in the structures
        self._dead = 0
        #: live processes, for deadlock diagnostics
        self._active: dict[int, "Process"] = {}
        #: optional same-instant tie-breaker (schedule explorer); maps the
        #: raw sequence number to the heap sequence key
        self._tie_break: _t.Callable[[int], _t.Any] | None = None

    # -- clock --------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    # -- event factories ----------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create an untriggered :class:`Event` bound to this environment."""
        return Event(self, name)

    def timeout(self, delay: float, value: _t.Any = None) -> Timeout:
        """An event that fires after ``delay`` simulated seconds.

        This is a fully inlined copy of ``Timeout.__init__`` + the
        future-bucket branch of :meth:`schedule`: one timeout is created
        per PE-loop iteration, and the constructor + scheduling call
        layers were a measurable slice of event-churn wall time.
        """
        proc = self._current
        if proc is not None:
            # recycle the resuming process's private handle (reuse_handles
            # mode): resets instead of an allocation + full slot init.
            # _current is published only by the fused kernel loop, which
            # never runs with an observer or tie-breaker installed and
            # whose NORMAL domain is uncounted — the tracker/tie-break/
            # _live bookkeeping of the general path is statically dead
            # here.  _cb0 keeps naming the owner (the kernel attach
            # relies on it); the ``delay`` slot is NOT refreshed — a
            # recycled handle's repr may show a stale delay, which the
            # opaque-handle contract permits (see Process._handle).
            ev = proc._handle
            if ev._processed:
                if delay > 0.0:
                    ev._processed = False
                    ev._cb0 = proc
                    ev._value = value
                    t = self._now + delay
                    if t == self._tcache_t:
                        self._tcache.append(ev)
                        return ev
                    buckets = self._buckets
                    bucket = buckets.get(t)
                    if bucket is None:
                        bucket = [ev]
                        buckets[t] = bucket
                        _heappush(self._times, t)
                    else:
                        bucket.append(ev)
                    self._tcache_t = t
                    self._tcache = bucket
                    return ev
                if delay == 0.0:
                    ev._processed = False
                    ev._cb0 = proc
                    ev._value = value
                    self._agenda_normal.append(ev)
                    return ev
                # negative or NaN: the validating constructor raises
                return Timeout(self, delay, value)
        if not (delay >= 0.0 and self._tie_break is None):
            return Timeout(self, delay, value)  # slow/validating path (NaN
            # and negative delays fail the >= check and get the real error)
        ev = _new_timeout(Timeout)
        ev.env = self
        ev.name = "timeout"
        ev._cb0 = None
        ev._cbs = None
        ev._ok = True
        ev._value = value
        ev._processed = False
        ev._cancelled = False
        ev.delay = delay
        if delay == 0.0:
            self._agenda_normal.append(ev)
        else:
            t = self._now + delay
            if t == self._tcache_t:
                self._tcache.append(ev)
                if self._in_kernel:
                    return ev
                self._live += 1
                if _rh.tracker is not None:
                    _rh.tracker.on_scheduled(ev)
                return ev
            buckets = self._buckets
            bucket = buckets.get(t)
            if bucket is None:
                bucket = [ev]
                buckets[t] = bucket
                _heappush(self._times, t)
            else:
                bucket.append(ev)
            self._tcache_t = t
            self._tcache = bucket
        if self._in_kernel:
            return ev
        self._live += 1
        if _rh.tracker is not None:
            _rh.tracker.on_scheduled(ev)
        return ev

    def all_of(self, events: _t.Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: _t.Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def process(self, generator: _t.Generator, name: str = "") -> "Process":
        """Spawn a new simulated process from a generator."""
        from repro.sim.process import Process

        return Process(self, generator, name=name)

    # -- scheduling ---------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = NORMAL) -> _t.Any:
        """Queue a triggered event for callback processing at ``now+delay``.

        Returns an opaque token that may be passed to :meth:`cancel`.
        """
        tie_break = self._tie_break
        if tie_break is not None:
            # legacy single-heap layout: entries carry permuted seq keys
            if delay < 0 or delay != delay:
                raise SimulationError(
                    f"cannot schedule into the past (delay={delay!r})")
            entry = [self._now + delay, priority, tie_break(next(self._seq)),
                     event]
            _heappush(self._legacy_queue, entry)
            self._live += 1
            if _rh.tracker is not None:
                _rh.tracker.on_scheduled(event)
            return entry
        if delay == 0.0:
            # current instant: plain FIFO append, no heap traffic
            if priority == URGENT:
                self._agenda_urgent.append(event)
                # URGENT entries stay counted even inside a kernel drain:
                # they are consumed via _dispatch, which decrements
                self._live += 1
                if _rh.tracker is not None:
                    _rh.tracker.on_scheduled(event)
                return event
            self._agenda_normal.append(event)
        elif delay > 0.0:
            t = self._now + delay
            if priority == URGENT:
                store = self._urgent_buckets
                bucket = store.get(t)
                if bucket is None:
                    store[t] = [event]
                    _heappush(self._times, t)
                else:
                    bucket.append(event)
                self._live += 1
                if _rh.tracker is not None:
                    _rh.tracker.on_scheduled(event)
                return event
            store = self._buckets
            bucket = store.get(t)
            if bucket is None:
                store[t] = [event]
                _heappush(self._times, t)
            else:
                bucket.append(event)
            if t == self._tcache_t and bucket is not self._tcache:
                # defensive: never let the timeout cache alias a bucket
                # this path just replaced (cannot happen today — the
                # cache is invalidated wherever buckets are dropped —
                # but the check is one compare on a cold path)
                self._tcache_t = -1.0  # pragma: no cover
        else:
            raise SimulationError(
                f"cannot schedule into the past (delay={delay!r})")
        # NORMAL domain: uncounted while a kernel drain is running (the
        # drain reconciles _live on exit; see repro.sim.kernel)
        if self._in_kernel:
            return event
        self._live += 1
        if _rh.tracker is not None:
            _rh.tracker.on_scheduled(event)
        return event

    def set_tie_breaker(
            self, fn: "_t.Callable[[int], _t.Any] | None") -> None:
        """Install a same-instant ordering permuter (schedule explorer).

        ``fn`` maps each raw sequence number to the sequence key actually
        used in the heap — events with equal ``(time, priority)`` are then
        processed in key order instead of FIFO, while the keys stay unique
        so cross-time/priority ordering is untouched.  Must be installed
        before anything is scheduled: the batched FIFO layout cannot
        retrofit permuted keys onto already-queued events.
        """
        if self._live or self._dead or self._legacy_queue:
            raise SimulationError(
                "set_tie_breaker() requires an empty event queue")
        self._tie_break = fn

    def cancel(self, entry: _t.Any) -> bool:
        """Invalidate a scheduled entry in place (O(1)).

        The entry's callbacks will never run; the dead entry is discarded
        lazily (and swept wholesale once tombstones outnumber live
        entries).  Returns False if the entry was already cancelled or
        processed.
        """
        if type(entry) is list:  # legacy-mode heap entry
            if entry[3] is None:
                return False
            if _rh.tracker is not None:
                _rh.tracker.on_descheduled(entry[3])
            entry[3] = None
            self._live -= 1
            self._dead += 1
            if self._dead > _COMPACT_MIN_DEAD and self._dead > self._live:
                self._compact()
            return True
        event: Event = entry
        if event._cancelled or event._processed:
            return False
        if _rh.tracker is not None:
            _rh.tracker.on_descheduled(event)
        event._cancelled = True
        if not self._in_kernel:
            # mid-drain the NORMAL domain is uncounted (and URGENT
            # entries are never exposed for cancellation), so there is
            # nothing to decrement; the tombstone is reconciled by the
            # skip sites (see repro.sim.kernel)
            self._live -= 1
        self._dead += 1
        if self._dead > _COMPACT_MIN_DEAD and self._dead > self._live:
            self._compact()
        return True

    def _compact(self) -> None:
        """Sweep tombstones out of every queue structure.

        Triggered from :meth:`cancel` once dead entries outnumber live
        ones (and exceed a small floor), so the sweep is amortized O(1)
        per cancellation and the structures hold at most
        ``2 * live + 64`` entries at any time.  All containers are
        mutated *in place* — the run loop may alias them.
        """
        self._tcache_t = -1.0  # the sweep below may drop buckets
        if self._tie_break is not None:
            queue = self._legacy_queue
            queue[:] = [e for e in queue if e[3] is not None]
            _heapify(queue)
            self._dead = 0
            return
        for agenda in (self._agenda_urgent, self._agenda_normal):
            if agenda:
                agenda[:] = [e for e in agenda if not e._cancelled]
        for store in (self._buckets, self._urgent_buckets):
            for t in list(store):
                bucket = store[t]
                keep = [e for e in bucket if not e._cancelled]
                if keep:
                    bucket[:] = keep
                else:
                    del store[t]
        times = self._times
        times[:] = list(self._buckets.keys() | self._urgent_buckets.keys())
        _heapify(times)
        # an in-flight drain batch is unreachable from here, so any
        # tombstones it still holds were not swept; the drain loop's
        # per-event decrement may then push _dead slightly negative,
        # which only postpones the next sweep by that many cancels
        self._dead = 0

    # -- introspection -------------------------------------------------------

    def live_entry_count(self) -> int:
        """O(pending) recount of live entries (simsan conservation check).

        Only meaningful at quiescence or between :meth:`step` calls — an
        in-flight drain batch is invisible to this walk.
        """
        if self._tie_break is not None:
            return sum(1 for e in self._legacy_queue if e[3] is not None)
        n = sum(1 for e in self._agenda_urgent if not e._cancelled)
        n += sum(1 for e in self._agenda_normal if not e._cancelled)
        for store in (self._buckets, self._urgent_buckets):
            for bucket in store.values():
                n += sum(1 for e in bucket if not e._cancelled)
        return n

    def stored_entry_count(self) -> int:
        """Total parked entries including tombstones (leak diagnostics)."""
        if self._tie_break is not None:
            return len(self._legacy_queue)
        n = len(self._agenda_urgent) + len(self._agenda_normal)
        for store in (self._buckets, self._urgent_buckets):
            for bucket in store.values():
                n += len(bucket)
        return n

    # -- run loop -----------------------------------------------------------

    def _advance_clock(self, limit: float = _INF) -> bool:
        """Drain the next non-empty bucket into the agenda; move the clock.

        Returns False when no live future event exists at or before
        ``limit`` (the kernel's deadline exit; buckets past it stay
        queued).  The clock only lands on instants that still hold at
        least one live entry.
        """
        self._tcache_t = -1.0  # buckets may leave the dict below
        times = self._times
        buckets, ubuckets = self._buckets, self._urgent_buckets
        if self._dead == 0 and not ubuckets:
            # no tombstones anywhere and no urgent futures (the common
            # case): move the whole bucket without per-event checks
            while times:
                if times[0] > limit:
                    return False
                t = _heappop(times)
                nb = buckets.pop(t, None)
                if nb is None:
                    continue  # stale duplicate timestamp
                self._agenda_normal.extend(nb)
                self._now = t
                return True
            return False
        while times:
            if times[0] > limit:
                return False
            t = _heappop(times)
            ub = ubuckets.pop(t, None)
            nb = buckets.pop(t, None)
            if ub is None and nb is None:
                continue  # stale duplicate timestamp
            moved = False
            if ub is not None:
                urgent = self._agenda_urgent
                for event in ub:
                    if event._cancelled:
                        self._dead -= 1
                    else:
                        urgent.append(event)
                        moved = True
            if nb is not None:
                normal = self._agenda_normal
                for event in nb:
                    if event._cancelled:
                        self._dead -= 1
                    else:
                        normal.append(event)
                        moved = True
            if moved:
                self._now = t
                return True
        return False

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        self._tcache_t = -1.0  # the sweep below may drop buckets
        if self._tie_break is not None:
            queue = self._legacy_queue
            while queue and queue[0][3] is None:
                _heappop(queue)
                self._dead -= 1
            return queue[0][0] if queue else float("inf")
        for agenda in (self._agenda_urgent, self._agenda_normal):
            if agenda:
                live = [e for e in agenda if not e._cancelled]
                if len(live) != len(agenda):
                    self._dead -= len(agenda) - len(live)
                    agenda[:] = live
                if agenda:
                    return self._now
        times = self._times
        while times:
            t = times[0]
            live_t = False
            for store in (self._urgent_buckets, self._buckets):
                bucket = store.get(t)
                if bucket is not None:
                    keep = [e for e in bucket if not e._cancelled]
                    self._dead -= len(bucket) - len(keep)
                    if keep:
                        bucket[:] = keep
                        live_t = True
                    else:
                        del store[t]
            if live_t:
                return t
            _heappop(times)
        return float("inf")

    def step(self) -> None:
        """Process exactly one live event (advancing the clock to it)."""
        if self._tie_break is not None:
            self._legacy_step()
            return
        urgent, normal = self._agenda_urgent, self._agenda_normal
        while True:
            if urgent:
                event = urgent.pop(0)
            elif normal:
                event = normal.pop(0)
            elif not self._advance_clock():
                raise SimulationError("step() on an empty event queue")
            else:
                urgent, normal = self._agenda_urgent, self._agenda_normal
                continue
            if event._cancelled:
                self._dead -= 1
                continue
            break
        self._dispatch(event)

    def _legacy_step(self) -> None:
        queue = self._legacy_queue
        while True:
            if not queue:
                raise SimulationError("step() on an empty event queue")
            entry = _heappop(queue)
            when, event = entry[0], entry[3]
            if event is not None:
                break
            self._dead -= 1
        # mark the entry consumed so a late cancel() is a no-op
        entry[3] = None
        self._now = when
        self._dispatch(event)

    def _dispatch(self, event: Event) -> None:
        """Consume one live event: run its callbacks, surface failures."""
        event._processed = True
        self._live -= 1
        if _rh.tracker is not None:
            _rh.tracker.on_processing(event)
        event._process()
        if not event._ok and not event._defused:
            # Nobody handled this failure: surface it instead of silently
            # dropping a crashed process.
            raise event._value

    def _drain_reference(self) -> None:
        """The reference hot loop: batched drain with inlined dispatch.

        This is the pure scheduling loop with an inlined copy of the
        callback dispatch (`Event._process` + the failure surfacing of
        :meth:`_dispatch`): at millions of events per run, the method
        call layers are a measurable fraction of total wall time.  Any
        semantic change here must be mirrored in :meth:`step` /
        :meth:`_dispatch` and in :func:`repro.sim.kernel.drain` (the
        fused production loop), which must stay order-identical.

        Batching: the current-instant agenda list is swapped out whole
        and walked with a bare ``for`` (one container op per batch, not
        per event); events appended meanwhile land in the fresh list and
        form the next batch — exactly FIFO order.  URGENT events that
        arrive mid-batch preempt the rest of the normal batch, matching
        the old heap's ``(time, priority, seq)`` order.
        """
        advance = self._advance_clock
        spare_u: list[Event] = []
        spare_n: list[Event] = []
        while True:
            tracker = _rh.tracker
            batch = self._agenda_urgent
            if batch:
                # URGENT batches are rare (process bootstrap only), so they
                # take the readable reference dispatch; failure splicing
                # matches the normal-batch path below.
                self._agenda_urgent = spare_u
                try:
                    for event in batch:
                        if event._cancelled:
                            self._dead -= 1
                        else:
                            self._dispatch(event)
                except BaseException:
                    self._agenda_urgent[:0] = batch[batch.index(event) + 1:]
                    raise
                batch.clear()
                spare_u = batch
                continue
            batch = self._agenda_normal
            if batch:
                self._agenda_normal = spare_n
            elif advance():
                continue
            else:
                if self._live:  # pragma: no cover - conservation net
                    raise SimulationError(
                        f"{self._live} live entr(ies) unreachable by "
                        "the run loop (queue conservation broken)")
                return
            # _live accounting is batched: per-event position is recovered
            # with batch.index() on the rare paths (failure, preemption)
            # instead of paying a counter increment on every event.
            u_agenda = self._agenda_urgent
            skipped = 0
            flushed = 0
            for event in batch:
                if event._cancelled:
                    self._dead -= 1
                    skipped += 1
                    continue
                # -- inlined dispatch (see _dispatch / Event._process).
                # _cb0/_cbs are deliberately not cleared here: _processed
                # already gates every callback-view and add-after-process
                # path, and the batch list drops the refs when cleared.
                event._processed = True
                if tracker is not None:
                    tracker.on_processing(event)
                callback = event._cb0
                if callback is not None:
                    callback(event)
                callbacks = event._cbs
                if callbacks is not None:
                    # cleared so a processed *handle* (reuse mode) can be
                    # recycled without re-checking overflow callbacks; the
                    # reference semantics (_process) clear here anyway
                    event._cbs = None
                    for callback in callbacks:
                        callback(event)
                if not event._ok and not event._defused:
                    # surface the unhandled failure; the rest of the batch
                    # goes back to the head of its agenda so a follow-up
                    # run() resumes exactly where this one stopped
                    idx = batch.index(event)
                    self._live -= idx + 1 - skipped - flushed
                    self._agenda_normal[:0] = batch[idx + 1:]
                    raise event._value
                # URGENT arrivals (process bootstrap) preempt the rest of
                # this NORMAL batch, matching the old heap's
                # (time, priority, seq) order.
                if u_agenda:
                    dispatched = batch.index(event) + 1 - skipped
                    self._live -= dispatched - flushed
                    flushed = dispatched
                    while u_agenda:
                        uev = u_agenda.pop(0)
                        if uev._cancelled:
                            self._dead -= 1
                        else:
                            self._dispatch(uev)
            self._live -= len(batch) - skipped - flushed
            batch.clear()
            spare_n = batch

    def run(self, until: "float | Event | None" = None) -> _t.Any:
        """Run until the queue drains, a deadline, or an event fires.

        * ``until=None`` — drain the queue completely.
        * ``until=<float>`` — run to that simulated time.  Events at
          exactly ``until`` run; the clock then reads ``until``.
        * ``until=<Event>`` — run until that event is processed and return
          its value.  Raises :class:`DeadlockError` if the queue drains
          first (the event can then never fire).

        All three go through the fused kernel loop
        (:func:`repro.sim.kernel.drain`, with its stop-event and deadline
        exits) unless the kernel is disabled, a tie-breaker is installed
        or an observer (race tracker / sanitizer) is live.  Then — and
        for whatever is left after an observer is installed mid-run — the
        reference loops run: :meth:`_drain_reference` for full drains and
        a :meth:`step` loop for the bounded ones.  Every loop processes
        events in the same ``(time, priority-band, FIFO)`` order.
        """
        on_kernel = (self._kernel and self._tie_break is None
                     and _rh.tracker is None)
        if until is None:
            if on_kernel:
                _kernel.drain(self)
            elif self._tie_break is not None:
                while self._live:
                    self._legacy_step()
            else:
                self._drain_reference()
            return None

        if isinstance(until, Event):
            target = until
            if not target._processed:
                if on_kernel:
                    _kernel.drain(self, target)
                if not target._processed:
                    # the reference path; after a kernel drain, only an
                    # observer handoff or an empty queue (deadlock) is left
                    done: list = []
                    target.add_callback(done.append)
                    while self._live and not done:
                        self.step()
                    if not done:
                        raise DeadlockError(
                            f"event queue drained before {target!r} fired",
                            waiting=tuple(sorted(
                                p.name for p in self._active.values())),
                        )
            if not target.ok:
                target.defuse()
                raise target.value
            return target.value

        deadline = float(until)
        if deadline < self._now:
            raise SimulationError(
                f"run(until={deadline!r}) is in the past (now={self._now!r})")
        if deadline != deadline:
            raise SimulationError("run(until=nan): the deadline is not a time")
        if on_kernel:
            _kernel.drain(self, None, deadline)
        while self._live and self.peek() <= deadline:
            self.step()
        self._now = deadline
        return None

    # -- diagnostics ----------------------------------------------------------

    def register_process(self, process: "Process") -> None:
        self._active[id(process)] = process

    def unregister_process(self, process: "Process") -> None:
        self._active.pop(id(process), None)

    @property
    def active_process_names(self) -> tuple[str, ...]:
        """Names of processes that have started and not yet finished."""
        return tuple(sorted(p.name for p in self._active.values()))

    def __repr__(self) -> str:
        return f"<Environment t={self._now:g} pending={self._live}>"
