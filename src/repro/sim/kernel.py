"""The extracted simulation kernel: fused drain loop over plain structures.

This module is the interpreter-friendly core of the event loop.  It holds
exactly one entry point, :func:`drain`, which every
:meth:`Environment.run` form uses: it runs the environment's
pending-event structures dry, or up to one of two exact exits — right
after a given event was dispatched (``run(until=event)``, the apps'
``run_until``) or before the clock would pass a deadline
(``run(until=t)``).  The loop body touches only locals, lists, dicts and
scalar slots — no closures, no property layers, no per-event
method-object allocation — so a future mypyc/Cython pass has a single
self-contained function to compile.

What the kernel fuses (and why it is order-preserving):

* **Process resume.** The overwhelmingly common callback is "resume the
  generator that yielded this event".  The reference loop pays a bound
  method call into :meth:`Process._resume` per event; the kernel
  recognises a :class:`Process` waiter by type and drives
  ``generator.send`` directly, including the yield-target attach.  The
  sequence of ``send`` calls is identical to the reference loop's —
  fusion removes call frames, never reorders dispatch.
* **Handle reuse.** When the environment was built with
  ``reuse_handles=True``, the kernel publishes the currently-resuming
  process in ``env._current`` so that ``Store.get`` /
  ``Resource.request`` / ``Environment.timeout`` called *from inside
  that process's own turn* can recycle the process's private handle
  event instead of allocating a fresh one (see
  :attr:`Process._handle` for the ownership contract).  Queue contents
  and append positions are unchanged — only the object identity of the
  hot events differs — so processing order is untouched.
* **Exits.** The stop-event exit is one identity check per dispatched
  event (NORMAL and URGENT paths alike), made before the URGENT
  preemption: the rest of the batch is spliced back to the head of its
  agenda and URGENT arrivals stay queued — exactly the state a ``step()``
  loop leaves when it stops at that event.  The deadline exit is a bound
  on :meth:`Environment._advance_clock`, which leaves every bucket past
  the deadline in place; events at exactly the deadline still run.
  Neither exit reorders anything, so a run split into any number of
  bounded drains dispatches the same ``(time, band, FIFO)`` sequence as
  one full drain.
* **Live-entry accounting.** ``env._live`` normally counts every
  scheduled entry so that the reference ``step()`` loops and
  the sanitizer's conservation check can see the queue depth.  Inside a
  kernel drain nothing reads that counter — the drain is agenda/bucket
  driven — so on entry the kernel *converts* the NORMAL domain to an
  uncounted regime (subtracting its live entries in one walk) and every
  NORMAL-domain scheduling path skips the per-event ``_live += 1``
  while ``env._in_kernel`` is set.  URGENT entries stay counted: they
  are dispatched through :meth:`Environment._dispatch`, which
  decrements per event.  The ``finally`` clause converts back (a walk
  over whatever survived an exit, an exception or an observer handoff),
  so the counter is exact again whenever user code can observe it.

The loop body is deliberately duplicated per mode (``reuse_handles`` on
vs off): the reuse copy carries the ``env._current`` publication and the
persistent-handle attach, the default copy stays a line-for-line fusion
of :meth:`Process._resume`.  Keeping the hot loop branch-free beats
sharing the sixty lines.

Observers always win: when a race tracker / sanitizer is installed the
environment runs the reference loops instead, whose per-event hook
points are the observable contract.  An observer installed *mid-batch*
takes over at the next batch boundary: a full drain delegates to
:meth:`Environment._drain_reference`, a bounded one returns to
``run()``'s ``step()`` loop, which honours the exit.  All loops process
events in exactly ``(time, priority-band, scheduling order)`` order, so
flipping between them can never change a simulation result —
``REPRO_SIM_KERNEL=0`` forces the reference loops for byte-identity
cross-checks.
"""

from __future__ import annotations

import typing as _t

from repro.errors import ProcessKilled, SimulationError
from repro.race import hooks as _rh
from repro.sim.events import PENDING

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.environment import Environment
    from repro.sim.events import Event

__all__ = ["drain"]

_INF = float("inf")

#: resolved lazily on first drain: process.py imports environment.py which
#: imports this module, so a top-level import would be circular
_Process: type | None = None
_HANDLE_NAME: str | None = None


def _live_normal_count(env: "Environment") -> int:
    """Live entries in the NORMAL domain (agenda + future buckets)."""
    n = sum(1 for e in env._agenda_normal if not e._cancelled)
    for bucket in env._buckets.values():
        n += sum(1 for e in bucket if not e._cancelled)
    return n


def drain(env: "Environment", until_event: "Event | None" = None,
          deadline: float = _INF) -> None:
    """Run pending events in order until an exit condition (kernel loop).

    * ``until_event`` — stop right after this event has been dispatched
      (its callbacks ran).  The rest of its batch goes back to the head
      of its agenda and URGENT arrivals stay queued, exactly the state a
      ``step()`` loop leaves behind.
    * ``deadline`` — never advance the clock past it; events at exactly
      ``deadline`` still run.

    Without either exit the queue is run dry.  A bounded drain also
    returns early when an observer is installed mid-run;
    :meth:`Environment.run` then finishes with its ``step()`` loop.

    Semantically identical to :meth:`Environment._drain_reference` plus
    the ``step()`` loops of :meth:`Environment.run`; any behavioural
    change here must be mirrored there (and in ``step()`` /
    ``_dispatch``, the one-event reference versions).
    """
    global _Process, _HANDLE_NAME
    if _Process is None:
        from repro.sim.process import HANDLE_NAME, Process as _P
        _Process = _P
        _HANDLE_NAME = HANDLE_NAME
    # entry conversion: the NORMAL domain runs uncounted until exit
    env._live -= _live_normal_count(env)
    env._in_kernel = True
    try:
        if env._reuse:
            _drain_reuse(env, until_event, deadline)
        else:
            _drain_plain(env, until_event, deadline)
    finally:
        env._current = None
        env._in_kernel = False
        env._live += _live_normal_count(env)
    if (_rh.tracker is not None and until_event is None
            and deadline == _INF):
        # an observer was installed (possibly mid-run by a test): its
        # per-event hooks are the contract, so the reference loop — fed
        # the reconverted, exact counters — takes over the remainder.  A
        # bounded drain hands back to run()'s step loop instead, which
        # honours the exit (the reference loop would run past it).
        env._drain_reference()


def _drain_plain(env: "Environment", until_event: "Event | None",
                 deadline: float) -> None:
    """Fused drain, default mode: no handle reuse, no ``_current``."""
    process_t = _Process
    pending = PENDING
    advance = env._advance_clock
    dispatch = env._dispatch
    unregister = env.unregister_process
    spare_u: list = []
    spare_n: list = []
    while True:
        if _rh.tracker is not None:
            return  # observer handoff (drain() reconverts, then delegates)
        batch = env._agenda_urgent
        if batch:
            # URGENT batches are rare (process bootstrap only): reference
            # dispatch, with failure splicing matching _drain_reference
            env._agenda_urgent = spare_u
            try:
                for event in batch:
                    if event._cancelled:
                        env._dead -= 1
                    else:
                        dispatch(event)
                        if event is until_event:
                            break
                else:
                    batch.clear()
                    spare_u = batch
                    continue
            except BaseException:
                env._agenda_urgent[:0] = batch[batch.index(event) + 1:]
                raise
            # stop exit: the rest of the batch stays queued, in order
            env._agenda_urgent[:0] = batch[batch.index(event) + 1:]
            return
        batch = env._agenda_normal
        if batch:
            env._agenda_normal = spare_n
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
        u_agenda = env._agenda_urgent
        for event in batch:
            if event._cancelled:
                env._dead -= 1
                continue
            event._processed = True
            callback = event._cb0
            if type(callback) is process_t and event._ok:
                # -- fused resume: the callback is a process waiting on a
                # successful event.  This inlines Process._resume minus
                # the call frame; the except arms mirror it exactly.
                if callback._value is pending:
                    try:
                        nxt = callback._send(event._value)
                    except StopIteration as stop:
                        callback._target = None
                        unregister(callback)
                        callback.succeed(stop.value)
                    except ProcessKilled as killed:
                        callback._target = None
                        unregister(callback)
                        callback._ok = False
                        callback._value = killed
                        callback._defused = True
                        env.schedule(callback)
                    except BaseException as exc:
                        callback._target = None
                        unregister(callback)
                        callback.fail(exc)
                    else:
                        try:
                            callback._target = nxt
                            # inlined add_callback single-waiter branch
                            # (see Process._resume for why _cbs needs no
                            # check here)
                            if nxt._cb0 is None and not nxt._processed:
                                nxt._cb0 = callback
                            else:
                                nxt.add_callback(callback)
                        except AttributeError:
                            callback._target = None
                            raise SimulationError(
                                f"process {callback.name!r} yielded "
                                f"{nxt!r}; processes may only yield "
                                "Event instances") from None
                callbacks = event._cbs
                if callbacks is not None:
                    event._cbs = None
                    for extra in callbacks:
                        extra(event)
            else:
                # generic callbacks: flow completions, conditions, hooks.
                # _cb0 is dropped first, as Event._process does: a
                # condition's child holds the condition's bound _check
                # and the condition holds its children, a cycle the
                # cyclic collector would otherwise have to free
                if callback is not None:
                    event._cb0 = None
                    callback(event)
                callbacks = event._cbs
                if callbacks is not None:
                    event._cbs = None
                    for extra in callbacks:
                        extra(event)
                if not event._ok and not event._defused:
                    # surface the unhandled failure; the rest of the
                    # batch goes back to the head of its agenda so a
                    # follow-up run() resumes exactly where this stopped
                    env._agenda_normal[:0] = batch[batch.index(event) + 1:]
                    raise event._value
            if event is until_event:
                # stop exit, checked before the URGENT preemption below:
                # a step() loop would stop here too, with the URGENT
                # arrivals and the rest of this batch still queued
                env._agenda_normal[:0] = batch[batch.index(event) + 1:]
                return
            # URGENT arrivals (process bootstrap) preempt the rest of
            # this NORMAL batch, matching (time, priority, seq) order.
            if u_agenda:
                while u_agenda:
                    uev = u_agenda.pop(0)
                    if uev._cancelled:
                        env._dead -= 1
                    else:
                        dispatch(uev)
                        if uev is until_event:
                            env._agenda_normal[:0] = \
                                batch[batch.index(event) + 1:]
                            return
        batch.clear()
        spare_n = batch


def _drain_reuse(env: "Environment", until_event: "Event | None",
                 deadline: float) -> None:
    """Fused drain, ``reuse_handles`` mode.

    Differences from :func:`_drain_plain`, both confined to the fused
    branch:

    * The resuming process is published in ``env._current`` so the event
      factories can recycle its private handle.
    * The resume guard is ``callback._target is event`` (instead of
      "process still alive"): a recycled handle keeps its owner in
      ``_cb0`` *permanently*, so a handle parked inside a condition
      (``yield env.all_of([store.get(), ...])``) still names the owner —
      the target check routes its firing to the condition's ``_cbs``
      callback instead of mis-resuming the owner.  ``_target`` is
      cleared on every process-death path, so the guard subsumes the
      alive check.
    * The attach skips the ``_cb0`` store when the yielded event already
      names this process — the steady state for recycled handles.
    * Handles are recognised by name identity (``event.name is
      HANDLE_NAME``) and get their own copy of the fused branch: a fired
      handle always carries its owner process in ``_cb0`` and never
      fails (the factories only ever succeed them), so the general
      branch's ``type``/``_ok`` checks are skipped, the extras scan is
      dropped (a directly-yielded handle cannot carry overflow
      callbacks), and when the factory recycled the handle *in place*
      (``nxt is event``, the steady state) the whole attach collapses to
      that one identity check — ``_target`` still names the handle and
      the builder re-armed ``_cb0``.
    """
    process_t = _Process
    handle_name = _HANDLE_NAME
    advance = env._advance_clock
    dispatch = env._dispatch
    unregister = env.unregister_process
    spare_u: list = []
    spare_n: list = []
    while True:
        if _rh.tracker is not None:
            env._current = None
            return  # observer handoff (drain() reconverts, then delegates)
        batch = env._agenda_urgent
        if batch:
            env._agenda_urgent = spare_u
            try:
                for event in batch:
                    if event._cancelled:
                        env._dead -= 1
                    else:
                        dispatch(event)
                        if event is until_event:
                            break
                else:
                    batch.clear()
                    spare_u = batch
                    continue
            except BaseException:
                env._agenda_urgent[:0] = batch[batch.index(event) + 1:]
                raise
            env._agenda_urgent[:0] = batch[batch.index(event) + 1:]
            return
        batch = env._agenda_normal
        if batch:
            env._agenda_normal = spare_n
        elif advance(deadline):
            continue
        else:
            env._current = None
            if env._live and deadline == _INF:  # pragma: no cover
                raise SimulationError(
                    f"{env._live} live entr(ies) unreachable by "
                    "the run loop (queue conservation broken)")
            return
        u_agenda = env._agenda_urgent
        for event in batch:
            if event._cancelled:
                env._dead -= 1
                continue
            event._processed = True
            callback = event._cb0
            if event.name is handle_name:
                # -- recycled handle: _cb0 always names its owner process
                # and the factories only ever succeed it, so the general
                # branch's type/_ok checks are statically true here.
                if callback._target is event:
                    env._current = callback
                    try:
                        nxt = callback._send(event._value)
                    except StopIteration as stop:
                        callback._target = None
                        unregister(callback)
                        callback.succeed(stop.value)
                    except ProcessKilled as killed:
                        callback._target = None
                        unregister(callback)
                        callback._ok = False
                        callback._value = killed
                        callback._defused = True
                        env.schedule(callback)
                    except BaseException as exc:
                        callback._target = None
                        unregister(callback)
                        callback.fail(exc)
                    else:
                        if nxt is not event:
                            try:
                                callback._target = nxt
                                cb0 = nxt._cb0
                                if cb0 is callback:
                                    if nxt._processed:
                                        nxt.add_callback(callback)
                                elif not nxt._processed:
                                    if cb0 is None:
                                        nxt._cb0 = callback
                                    else:
                                        nxt.add_callback(callback)
                                else:
                                    nxt.add_callback(callback)
                            except AttributeError:
                                callback._target = None
                                env._current = None
                                raise SimulationError(
                                    f"process {callback.name!r} yielded "
                                    f"{nxt!r}; processes may only yield "
                                    "Event instances") from None
                        # else: the factory recycled the handle in place —
                        # _target still names it and the builder re-armed
                        # _cb0/_processed, so the attach is a no-op.
                    # no extras scan: a *directly yielded* handle cannot
                    # carry overflow callbacks — only its owner ever sees
                    # the handle (ownership contract), and an owner that
                    # parks it in a condition yields the condition, which
                    # routes through the branch below.
                else:
                    # owner is waiting elsewhere (handle parked inside a
                    # condition) or died: deliver to overflow callbacks
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
                    except StopIteration as stop:
                        callback._target = None
                        unregister(callback)
                        callback.succeed(stop.value)
                    except ProcessKilled as killed:
                        callback._target = None
                        unregister(callback)
                        callback._ok = False
                        callback._value = killed
                        callback._defused = True
                        env.schedule(callback)
                    except BaseException as exc:
                        callback._target = None
                        unregister(callback)
                        callback.fail(exc)
                    else:
                        try:
                            callback._target = nxt
                            cb0 = nxt._cb0
                            if cb0 is callback:
                                # recycled handle: already attached (the
                                # builders store the owner in _cb0) unless
                                # the process re-yielded a stale processed
                                # event, which must re-fire immediately
                                if nxt._processed:
                                    nxt.add_callback(callback)
                            elif not nxt._processed:
                                if cb0 is None:
                                    nxt._cb0 = callback
                                else:
                                    nxt.add_callback(callback)
                            else:
                                nxt.add_callback(callback)
                        except AttributeError:
                            callback._target = None
                            env._current = None
                            raise SimulationError(
                                f"process {callback.name!r} yielded "
                                f"{nxt!r}; processes may only yield "
                                "Event instances") from None
                callbacks = event._cbs
                if callbacks is not None:
                    event._cbs = None
                    env._current = None
                    for extra in callbacks:
                        extra(event)
            else:
                # generic callbacks may call the event factories: clear
                # _current so they can never recycle a bystander's handle
                # (_cb0 is dropped as in _drain_plain)
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
                    env._agenda_normal[:0] = batch[batch.index(event) + 1:]
                    raise event._value
            if event is until_event:
                env._agenda_normal[:0] = batch[batch.index(event) + 1:]
                return  # drain() clears _current
            if u_agenda:
                env._current = None
                while u_agenda:
                    uev = u_agenda.pop(0)
                    if uev._cancelled:
                        env._dead -= 1
                    else:
                        dispatch(uev)
                        if uev is until_event:
                            env._agenda_normal[:0] = \
                                batch[batch.index(event) + 1:]
                            return
        env._current = None
        batch.clear()
        spare_n = batch
