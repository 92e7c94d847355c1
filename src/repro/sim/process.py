"""Generator-based simulated processes.

A :class:`Process` drives a generator: each ``yield``-ed :class:`Event`
suspends the process until the event fires.  A process is itself an event
that fires when the generator returns (value = the generator's return value)
or raises (failure).  This lets processes wait on each other::

    def child(env):
        yield env.timeout(1.0)
        return 42

    def parent(env):
        result = yield env.process(child(env))
        assert result == 42
"""

from __future__ import annotations

import typing as _t

from repro.errors import ProcessKilled, SimulationError
from repro.race import hooks as _rh
from repro.sim.environment import URGENT, Environment
from repro.sim.events import Event, PENDING, Timeout

__all__ = ["Process"]

#: hoisted allocator for the reusable handle event (see Process._handle)
_new_timeout = Timeout.__new__

#: every reusable handle shares this one name *object*, so a handle is
#: recognisable by identity (``event.name is HANDLE_NAME``).  Built via
#: join so it is NOT the interned literal — a user event created with
#: ``name="proc.handle"`` can never alias it.
HANDLE_NAME = "".join(("proc.", "handle"))


class _Init(Event):
    """Internal bootstrap event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: Environment):
        super().__init__(env, name="init")
        self._ok = True
        self._value = None
        env.schedule(self, priority=URGENT)


class Process(Event):
    """A running generator coroutine inside the simulation."""

    __slots__ = ("generator", "_target", "_send", "_throw", "_resume_cb",
                 "_handle")

    def __init__(self, env: Environment, generator: _t.Generator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise SimulationError(
                f"process body must be a generator, got {type(generator).__name__}; "
                "did you forget a 'yield'?")
        super().__init__(env, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        # bound methods cached once: _resume runs per event on the hottest
        # loop in the simulator, and send/throw lookups add up.  The process
        # itself is callable (``__call__ = _resume``), so it is its own
        # resume callback: the kernel loop recognises a process waiter by
        # type and fuses the resume, and no method object is ever allocated
        self._send = generator.send
        self._throw = generator.throw
        self._resume_cb = self
        # The process's private *handle*: a recyclable event the factories
        # (Store.get / Resource.request / env.timeout) hand back instead of
        # a fresh allocation when this process calls them during its own
        # turn in the kernel's fused branch.  Ownership contract: an
        # awaited factory event may not be retained past the resume —
        # keep the delivered value, not the event object.  Born
        # processed=True: "ready for reuse".
        handle = _new_timeout(Timeout)
        handle.env = env
        handle.name = HANDLE_NAME
        handle._cb0 = None
        handle._cbs = None
        handle._ok = True
        handle._value = None
        handle._processed = True
        handle._cancelled = False
        handle.delay = 0.0
        self._handle = handle
        env.register_process(self)
        #: the event this process is currently waiting on (None once
        #: finished); only that event may resume it
        self._target: Event | None = _Init(env)
        self._target.add_callback(self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    @property
    def waiting_on(self) -> Event | None:
        """The event this process is blocked on, for diagnostics."""
        return self._target

    def interrupt(self, cause: _t.Any = None) -> None:
        """Kill the process by throwing :class:`ProcessKilled` into it."""
        if not self.is_alive:
            return
        kill = self.env.event(name=f"interrupt({self.name})")
        kill.fail(ProcessKilled(cause if cause is not None else self.name))
        kill.defuse()
        # Detach from whatever it was waiting on and resume with the failure.
        kill.add_callback(self._interrupted)

    def _interrupted(self, kill: Event) -> None:
        """A kill reaches a live process whatever it was waiting on."""
        if self._value is PENDING:
            self._target = kill
            self._resume(kill)

    # -- driving the generator ------------------------------------------------

    def _resume(self, event: Event) -> None:
        # direct slot access throughout: this callback runs once per event
        # on the hottest loop in the simulator, and the property layer
        # (is_alive / ok / value / defuse) costs a measurable fraction.
        # A wake-up from anything but the current target is stale: the
        # process moved on (interrupted, or a recycled handle parked in
        # a condition fired) or finished, which clears _target
        if self._target is not event:
            return
        if _rh.tracker is not None:
            _rh.tracker.on_resume(self, event)
        try:
            if event._ok:
                next_event = self._send(event._value)
            else:
                event._defused = True
                next_event = self._throw(event._value)
        except BaseException as exc:
            self._finish(exc)
            return

        # Yield-target validation rides on the slot accesses themselves: a
        # non-Event (no _cb0/_processed slots) raises AttributeError, turned
        # into the diagnostic below — the valid path pays no isinstance
        # call.  Yielding an event bound to a *different* Environment is
        # not detected (same as simpy): processes and their events must
        # share one environment.
        try:
            self._target = next_event
            # inlined add_callback() single-waiter branch (the ~universal
            # case: the yielded event has no other waiter yet).  An
            # unprocessed event with _cb0 unset cannot have overflow
            # callbacks either — add_callback always fills _cb0 first and
            # only processing clears it — so _cbs needs no check here.
            if next_event._cb0 is None and not next_event._processed:
                next_event._cb0 = self
            else:
                next_event.add_callback(self)
        except AttributeError:
            self._target = None
            raise SimulationError(
                f"process {self.name!r} yielded {next_event!r}; processes may "
                "only yield Event instances") from None

    def _finish(self, exc: BaseException) -> None:
        """The generator is done: ``exc`` is what its last resume raised.

        Shared by :meth:`_resume` and the kernel's fused resumes.
        """
        self._target = None
        self.env.unregister_process(self)
        if isinstance(exc, StopIteration):
            self.succeed(exc.value)
        elif isinstance(exc, ProcessKilled):
            self._ok = False
            self._value = exc
            self._defused = True
            self.env.schedule(self)
        else:
            self.fail(exc)

    # The process is its own resume callback: generic dispatch paths call
    # ``event._cb0(event)`` without caring whether the waiter is a plain
    # function or a process, and the kernel loop fuses the resume after a
    # single ``type(callback) is Process`` check.
    __call__ = _resume
