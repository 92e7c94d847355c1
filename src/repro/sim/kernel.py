"""The simulation kernel: the one event loop.

Every :meth:`Environment.run` form goes through :func:`drain`, which runs
the environment's pending-event structures dry, or up to one of two exact
exits — right after a given event was dispatched (``run(until=event)``,
the apps' ``run_until``) or before the clock would pass a deadline
(``run(until=t)``).  The loop body touches only locals, lists, dicts and
scalar slots — no closures, no property layers, no per-event
method-object allocation — so a future mypyc/Cython pass has a single
self-contained function to compile.

The loop takes one same-instant *batch* at a time (the current agenda
list, swapped out whole) and decides three things per batch, never per
event:

* **Tie-breaking.**  With a same-instant tie-breaker installed
  (:meth:`Environment.set_tie_breaker`: the schedule explorer and every
  replicate ``r >= 1``), a batch of two or more events is permuted in
  place by the breaker's keys, one decision per batch position.  Without
  one the batch runs FIFO; either way the cost is one check per batch.
* **Observers.**  With a race tracker / sanitizer installed, each event
  of the batch takes the steps of :meth:`Environment._dispatch` (inlined
  in the loop) — the per-event
  ``on_scheduled`` / ``on_processing`` / ``on_resume`` hooks are the
  observable contract — in the *counted* regime (below) and with
  ``env._current`` unset, so no handle is recycled.  An observer
  installed or removed mid-run switches branch at the next batch.
* **Everything else** takes the fused branch.

What the fused branch fuses (and why it is order-preserving):

* **Process resume.** The overwhelmingly common callback is "resume the
  generator that yielded this event".  The kernel recognises a
  :class:`Process` waiter by type and drives ``generator.send`` directly,
  including the yield-target attach — the same ``send`` sequence as
  :meth:`Process._resume`, minus its call frame.  The resume guard is
  ``process._target is event``: a stale wake-up (the process moved on,
  or died) is delivered to overflow callbacks only, as ``_resume`` does.
* **Handle reuse.** The resuming process is published in
  ``env._current`` so that ``Store.get`` / ``Resource.request`` /
  ``Environment.timeout`` called *from inside that process's own turn*
  recycle the process's private handle event instead of allocating a
  fresh one (see :attr:`Process._handle` for the ownership contract).
  Queue contents and append positions are unchanged — only the object
  identity of the hot events differs.  Handles are recognised by name
  identity (``event.name is HANDLE_NAME``) and take their own copy of the
  fused resume: a fired handle always names its owner in ``_cb0`` and
  never fails, and when the factory recycled it *in place* (the steady
  state) the attach collapses to one identity check.  A handle its owner
  is not awaiting (parked in a condition, or a message-latency timer)
  goes to its overflow callbacks only.
* **Live-entry accounting.** ``env._live`` normally counts every
  scheduled entry, so that :meth:`Environment.step` and the sanitizer's
  conservation check can see the queue depth.  The fused branch needs no
  counter, so the kernel *converts* the NORMAL domain to an uncounted
  regime (subtracting its live entries in one walk) and every
  NORMAL-domain scheduling path skips the per-event ``_live += 1`` while
  ``env._in_kernel`` is set.  URGENT entries stay counted: they are
  dispatched through :meth:`Environment._dispatch`.  The observer branch
  converts back, and so does the ``finally`` clause, so the counter is
  exact whenever user code can observe it.

Exits and failures: the stop-event exit is one identity check per
dispatched event, made before the URGENT preemption, and the deadline
exit bounds :meth:`Environment._advance_clock`.  On a stop, an unhandled
failure or any exception escaping a callback, the rest of the batch is
spliced back to the head of its agenda and URGENT arrivals stay queued —
exactly the state a :meth:`Environment.step` loop leaves — so a run split
into any number of bounded drains dispatches the same sequence as one
full drain.
"""

from __future__ import annotations

import typing as _t
from operator import itemgetter

from repro.errors import SimulationError
from repro.race import hooks as _rh

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.environment import Environment
    from repro.sim.events import Event

__all__ = ["drain"]

_INF = float("inf")
_key = itemgetter(0)

#: resolved lazily on first drain: process.py imports environment.py which
#: imports this module, so a top-level import would be circular
_Process: type | None = None
_HANDLE_NAME: str | None = None


def _bad_yield(process: _t.Any, nxt: _t.Any) -> _t.NoReturn:
    """A fused resume got a non-Event from the generator (as _resume)."""
    process._target = None
    raise SimulationError(
        f"process {process.name!r} yielded {nxt!r}; processes may only "
        "yield Event instances") from None


def _set_counted(env: "Environment", counted: bool) -> None:
    """Switch the NORMAL domain between the counted and uncounted regimes."""
    n = sum(1 for e in env._agenda_normal if not e._cancelled)
    for bucket in env._buckets.values():
        n += sum(1 for e in bucket if not e._cancelled)
    env._live += n if counted else -n
    env._in_kernel = not counted


def _permute(batch: list, tie_break: _t.Callable[[int], _t.Any]) -> None:
    """Reorder a same-instant batch in place by the tie-breaker's keys."""
    keyed = sorted(zip(map(tie_break, range(len(batch))), batch), key=_key)
    batch[:] = [event for _k, event in keyed]


def _run_urgent(env: "Environment", until_event: "Event | None") -> bool:
    """Dispatch the URGENT agenda dry; True if ``until_event`` ran.

    URGENT entries (process bootstrap) are rare, so they take the
    reference dispatch in both regimes.  The agenda list keeps its
    identity — the NORMAL loop holds an alias to test for arrivals.
    """
    env._current = None  # preempting the fused branch: no handle reuse
    urgent = env._agenda_urgent
    dispatch = env._dispatch
    while urgent:
        batch = urgent[:]
        urgent.clear()
        if env._tie_break is not None and len(batch) > 1:
            _permute(batch, env._tie_break)
        event = None
        try:
            for event in batch:
                if event._cancelled:
                    env._dead -= 1
                    continue
                dispatch(event)
                if event is until_event:
                    urgent[:0] = batch[batch.index(event) + 1:]
                    return True
        except BaseException:
            urgent[:0] = batch[batch.index(event) + 1:]
            raise
    return False


def drain(env: "Environment", until_event: "Event | None" = None,
          deadline: float = _INF) -> None:
    """Run pending events in order until an exit condition.

    * ``until_event`` — stop right after this event has been dispatched
      (its callbacks ran).  The rest of its batch goes back to the head
      of its agenda and URGENT arrivals stay queued, exactly the state a
      ``step()`` loop leaves behind.
    * ``deadline`` — never advance the clock past it; events at exactly
      ``deadline`` still run.

    Without either exit the queue is run dry.
    """
    global _Process, _HANDLE_NAME
    if _Process is None:
        from repro.sim.process import HANDLE_NAME, Process
        _Process, _HANDLE_NAME = Process, HANDLE_NAME
    try:
        _loop(env, until_event, deadline)
    finally:
        env._current = None
        if env._in_kernel:
            _set_counted(env, True)


def _loop(env: "Environment", until_event: "Event | None",
          deadline: float) -> None:
    """The batch loop of :func:`drain` (which restores the counters)."""
    process_t = _Process
    handle_name = _HANDLE_NAME
    advance = env._advance_clock
    spare: list = []
    while True:
        tracker = _rh.tracker
        if (tracker is None) is not env._in_kernel:
            _set_counted(env, tracker is not None)
        if env._agenda_urgent and _run_urgent(env, until_event):
            return
        batch = env._agenda_normal
        if batch:
            env._agenda_normal = spare
        elif advance(deadline):
            continue
        else:
            if env._live and deadline == _INF:  # pragma: no cover
                # conservation net (a deadline exit may leave URGENT
                # futures, which stay counted, beyond the deadline)
                raise SimulationError(
                    f"{env._live} live entr(ies) unreachable by "
                    "the run loop (queue conservation broken)")
            return
        if env._tie_break is not None and len(batch) > 1:
            _permute(batch, env._tie_break)
        # URGENT arrivals (process bootstrap) preempt the rest of the
        # batch, matching (time, priority, seq) order; a stop breaks
        # out with ``event`` naming the last event dispatched
        u_agenda = env._agenda_urgent
        event = None
        try:
            if tracker is not None:
                # observer branch, counted regime: Environment._dispatch
                # and Event._process inlined, the two frames the hooks
                # would add per event; the slot is re-read per event, so
                # an observer leaving mid-batch is not called again
                for event in batch:
                    if event._cancelled:
                        env._dead -= 1
                        continue
                    event._processed = True
                    env._live -= 1
                    tracker = _rh.tracker
                    if tracker is not None:
                        tracker.on_processing(event)
                    callback, event._cb0 = event._cb0, None
                    callbacks, event._cbs = event._cbs, None
                    if callback is not None:
                        callback(event)
                    if callbacks is not None:
                        for extra in callbacks:
                            extra(event)
                    if not event._ok and not event._defused:
                        raise event._value
                    if event is until_event or (
                            u_agenda and _run_urgent(env, until_event)):
                        break
                else:
                    event = None
            else:
                for event in batch:
                    if event._cancelled:
                        env._dead -= 1
                        continue
                    event._processed = True
                    callback = event._cb0
                    if event.name is handle_name:
                        # a recycled handle: _cb0 names its owner for good
                        # and the factories only ever succeed it, so the
                        # type/_ok checks below are statically true
                        if callback._target is event:
                            env._current = callback
                            try:
                                nxt = callback._send(event._value)
                            except BaseException as exc:
                                callback._finish(exc)
                            else:
                                # recycled in place (the steady state): the
                                # factory re-armed it, nothing to attach
                                if nxt is not event:
                                    try:
                                        callback._target = nxt
                                        if nxt._processed:
                                            nxt.add_callback(callback)
                                        elif nxt._cb0 is None:
                                            nxt._cb0 = callback
                                        elif nxt._cb0 is not callback:
                                            nxt.add_callback(callback)
                                    except AttributeError:
                                        _bad_yield(callback, nxt)
                            # no extras: a handle its owner awaits directly
                            # carries none, and any the owner attached in
                            # its turn belong to the handle's next firing
                        else:
                            # parked in a condition or used as a timer
                            # while its owner waits elsewhere
                            callbacks = event._cbs
                            if callbacks is not None:
                                event._cbs = None
                                env._current = None
                                for extra in callbacks:
                                    extra(event)
                    elif type(callback) is process_t and event._ok:
                        if callback._target is event:
                            env._current = callback
                            try:
                                nxt = callback._send(event._value)
                            except BaseException as exc:
                                callback._finish(exc)
                            else:
                                try:
                                    callback._target = nxt
                                    if nxt._cb0 is None and not nxt._processed:
                                        nxt._cb0 = callback
                                    elif (nxt._cb0 is not callback
                                          or nxt._processed):
                                        nxt.add_callback(callback)
                                except AttributeError:
                                    _bad_yield(callback, nxt)
                        # _cb0 is kept: _processed gates every callback
                        # view, and the batch list drops the reference
                        callbacks = event._cbs
                        if callbacks is not None:
                            event._cbs = None
                            env._current = None
                            for extra in callbacks:
                                extra(event)
                    else:
                        # generic callbacks (flow completions, conditions)
                        # may call the event factories: clear _current so
                        # they never recycle a bystander's handle.  _cb0
                        # is dropped first, as Event._process does — a
                        # condition and its children would otherwise stay
                        # a cycle for the cyclic collector
                        env._current = None
                        if callback is not None:
                            event._cb0 = None
                            callback(event)
                        callbacks = event._cbs
                        if callbacks is not None:
                            event._cbs = None
                            for extra in callbacks:
                                extra(event)
                        if not event._ok and not event._defused:
                            raise event._value
                    if event is until_event or (
                            u_agenda and _run_urgent(env, until_event)):
                        break
                else:
                    event = None
        except BaseException:
            # the rest of the batch goes back to the head of its
            # agenda, so a follow-up run() resumes exactly here
            if event is not None:
                env._agenda_normal[:0] = batch[batch.index(event) + 1:]
            raise
        if event is not None:  # stop exit: same splice
            env._agenda_normal[:0] = batch[batch.index(event) + 1:]
            return
        env._current = None
        batch.clear()
        spare = batch
