"""Kernel drain loop vs reference loop: equivalence and handle semantics.

The fused kernel (:mod:`repro.sim.kernel`) and the reference loop
(:meth:`Environment._drain_reference`) must produce identical simulations;
``reuse_handles=True`` additionally recycles each process's private handle
event through the factories.  These tests run one mixed workload — stores,
resources, timeouts, conditions, interrupts, mid-run spawns, failures —
under every loop/mode combination and require identical traces, then pin
down the handle-specific corners (identity recycling, condition parking,
cancellation, name aliasing).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.errors import DeadlockError, ProcessKilled, SimulationError
from repro.race import hooks as _rh
from repro.sim.environment import URGENT, Environment
from repro.sim.events import Event
from repro.sim.process import HANDLE_NAME
from repro.sim.resources import Resource, Store


def _mixed_workload(env: Environment) -> list:
    """A workload touching every dispatch path; returns its event trace."""
    trace: list = []
    store: Store = Store(env, name="s")
    spill: Store = Store(env, name="spill")
    res = Resource(env, capacity=2, name="r")

    def producer():
        for k in range(6):
            store.put(k)
            yield env.timeout(1.0)
        spill.put("late")

    def consumer(tag):
        while True:
            item = yield store.get()
            trace.append((env.now, tag, "got", item))
            if item >= 4:
                return item
            yield res.request()
            yield env.timeout(0.25)
            res.release()

    def condition_waiter():
        # parks a factory event inside a condition (AllOf) — in reuse mode
        # this routes the handle through the overflow-callback path
        got = yield env.all_of([spill.get(), env.timeout(9.0)])
        trace.append((env.now, "cond", sorted(map(str, got.values()))))

    def any_waiter():
        first = yield env.any_of([env.timeout(2.5, "quick"),
                                  env.timeout(50.0, "slow")])
        trace.append((env.now, "any", sorted(map(str, first.values()))))

    def crasher():
        yield env.timeout(3.0)
        raise RuntimeError("boom")

    def guardian():
        victim = env.process(crasher(), name="crasher")
        try:
            yield victim
        except RuntimeError as exc:
            trace.append((env.now, "guard", str(exc)))

    def interrupter():
        target = env.process(sleeper(), name="sleeper")
        yield env.timeout(1.5)
        target.interrupt("wake")

    def sleeper():
        try:
            yield env.timeout(40.0)
        except ProcessKilled as exc:
            trace.append((env.now, "killed", str(exc)))

    def spawner():
        # urgent bootstrap arriving mid-batch: the kernel must preempt
        yield env.timeout(2.0)
        for i in range(3):
            env.process(late_child(i), name=f"late{i}")
            yield env.timeout(0.0)

    def late_child(i):
        yield env.timeout(0.5)
        trace.append((env.now, "late", i))

    def canceller():
        doomed = env.timeout(7.0)
        kept = env.timeout(0.75)
        assert env.cancel(doomed)
        got = yield kept
        trace.append((env.now, "cancel", got))

    def chain_parent():
        child = env.process(chain_child(), name="chain-child")
        value = yield child
        trace.append((env.now, "chain", value))

    def chain_child():
        yield env.timeout(4.5)
        return "child-done"

    for i in range(2):
        env.process(consumer(f"c{i}"), name=f"c{i}")
    for fn in (producer, condition_waiter, any_waiter, guardian,
               interrupter, spawner, canceller, chain_parent):
        env.process(fn(), name=fn.__name__)
    env.run()
    trace.append(("end", env.now))
    return trace


ENV_MODES = [
    pytest.param(dict(), id="kernel-plain"),
    pytest.param(dict(kernel=False), id="reference"),
    pytest.param(dict(reuse_handles=True), id="kernel-reuse"),
    pytest.param(dict(reuse_handles=True, kernel=False), id="reference-reuse"),
]


@pytest.mark.parametrize("mode", ENV_MODES[1:])
def test_all_loop_modes_produce_identical_traces(mode) -> None:
    reference = _mixed_workload(Environment())
    assert _mixed_workload(Environment(**mode)) == reference


def test_env_var_disables_kernel(monkeypatch) -> None:
    monkeypatch.setenv("REPRO_SIM_KERNEL", "0")
    env = Environment()
    assert not env._kernel
    monkeypatch.setenv("REPRO_SIM_KERNEL", "1")
    assert Environment()._kernel


def test_live_counter_exact_after_kernel_run() -> None:
    for mode in (dict(), dict(reuse_handles=True)):
        env = Environment(**mode)
        _mixed_workload(env)
        assert env._live == 0


def test_reuse_recycles_one_handle_per_process() -> None:
    env = Environment(reuse_handles=True)
    store = Store(env)
    ids: list[int] = []

    def worker():
        for k in range(4):
            ev = store.get()
            ids.append(id(ev))
            item = yield ev
            assert item == k
            t = env.timeout(0.5)
            ids.append(id(t))
            yield t

    def feeder():
        for k in range(4):
            store.put(k)
            yield env.timeout(1.0)

    env.process(worker())
    env.process(feeder())
    env.run()
    # the first get() runs during the URGENT bootstrap turn (outside the
    # fused NORMAL batch) and allocates fresh; every later factory event
    # the worker awaited is the same recycled handle object
    assert len(set(ids[1:])) == 1
    assert len(set(ids)) <= 2


def test_reuse_handle_carries_the_shared_name() -> None:
    env = Environment(reuse_handles=True)
    captured: list = []

    def worker():
        yield env.timeout(1.0)  # bootstrap turn: allocated fresh
        ev = env.timeout(1.0)   # fused turn: the recycled handle
        captured.append(ev)
        yield ev

    env.process(worker())
    env.run()
    assert captured[0].name is HANDLE_NAME


def test_user_event_named_like_a_handle_is_not_mistaken() -> None:
    # HANDLE_NAME is deliberately not the interned literal: a user event
    # carrying the same *text* must still dispatch via the generic branch
    env = Environment(reuse_handles=True)
    fired: list = []
    ev = Event(env, name="proc.handle")
    assert ev.name is not HANDLE_NAME
    ev.add_callback(lambda e: fired.append(e.value))
    ev.succeed("ok")
    env.run()
    assert fired == ["ok"]


def test_reuse_condition_over_factory_events() -> None:
    # one factory call per turn recycles the handle; the second allocates
    # fresh — the condition must still collect both values correctly
    env = Environment(reuse_handles=True)
    out: list = []
    store = Store(env)

    def worker():
        got = yield env.all_of([store.get(), env.timeout(2.0, "t")])
        out.append(sorted(map(str, got.values())))

    def feeder():
        yield env.timeout(1.0)
        store.put("item")

    env.process(worker())
    env.process(feeder())
    env.run()
    assert out == [[sorted(["item", "t"])[0], sorted(["item", "t"])[1]]]


def test_reuse_interrupt_while_parked_then_stale_fire() -> None:
    # the parked handle stays in the store queue after the interrupt; when
    # put() finally fires it the kernel must drop it (owner moved on) —
    # matching the reference loop's dead-process check
    env = Environment(reuse_handles=True)
    out: list = []
    store = Store(env)

    def victim():
        try:
            yield store.get()
            out.append("resumed")  # pragma: no cover - must not happen
        except ProcessKilled:
            out.append("killed")
            yield env.timeout(5.0)
            out.append("continued")

    def killer(proc):
        yield env.timeout(1.0)
        proc.interrupt()
        yield env.timeout(1.0)
        store.put("stale")

    p = env.process(victim())
    env.process(killer(p))
    env.run()
    assert out == ["killed", "continued"]


def test_reuse_cancelled_handle_is_never_recycled() -> None:
    env = Environment(reuse_handles=True)
    seen: list = []

    def worker():
        yield env.timeout(0.5)  # leave the bootstrap turn (fresh events)
        doomed = env.timeout(3.0)  # the recycled handle
        assert doomed.name is HANDLE_NAME
        assert env.cancel(doomed)
        nxt = env.timeout(1.0)
        assert nxt is not doomed  # cancelled handle is permanently retired
        yield nxt
        later = env.timeout(1.0)
        assert later is not doomed
        yield later
        seen.append(env.now)

    env.process(worker())
    env.run()
    assert seen == [2.5]


def test_reuse_failure_surfacing_matches_reference() -> None:
    def scenario(env):
        def worker():
            yield env.timeout(1.0)
            raise ValueError("unhandled")
        env.process(worker())
        with pytest.raises(ValueError, match="unhandled"):
            env.run()
        return env.now

    assert (scenario(Environment(reuse_handles=True))
            == scenario(Environment(kernel=False)))


def _canon(result) -> bytes:
    return json.dumps(dataclasses.asdict(result), sort_keys=True,
                      default=repr).encode()


def test_fig2_fig8_tables_byte_identical_kernel_on_off(monkeypatch) -> None:
    """The flagship tables must not change when the kernel is disabled.

    The comparison is only kernel-vs-reference if the apps actually run on
    the kernel: with it on, the stencil cells of Fig 2 (driven through
    ``run_until``) must make no ``Environment.step`` call at all, and
    with it off they go through the step loop.
    """
    from repro.bench.experiments import (fig2_stencil_fits_in_hbm,
                                         fig8_stencil_speedup)

    calls = [0]
    step = Environment.step

    def counting_step(self):
        calls[0] += 1
        step(self)

    monkeypatch.setattr(Environment, "step", counting_step)
    monkeypatch.delenv("REPRO_SIM_KERNEL", raising=False)
    fig2_on = _canon(fig2_stencil_fits_in_hbm())
    assert calls[0] == 0
    fig8_on = _canon(fig8_stencil_speedup())
    monkeypatch.setenv("REPRO_SIM_KERNEL", "0")
    assert _canon(fig2_stencil_fits_in_hbm()) == fig2_on
    assert calls[0] > 0
    assert _canon(fig8_stencil_speedup()) == fig8_on


# ---------------------------------------------------------------------------
# stop-event and deadline exits: run(until=...) on the kernel
# ---------------------------------------------------------------------------

def _live_exact(env: Environment) -> None:
    assert env._live == env.live_entry_count()


def _kernel_vs_step_loop(monkeypatch, scenario, *, steps_on_kernel=False):
    """Run ``scenario(env)`` on the kernel (both drain modes) and on the
    ``kernel=False`` step loop; all must return the same trace.  The
    kernel runs must not fall back to ``step()`` unless an observer
    handoff forces it."""
    calls = [0]
    step = Environment.step

    def counting_step(self):
        calls[0] += 1
        step(self)

    monkeypatch.setattr(Environment, "step", counting_step)
    reference = scenario(Environment(kernel=False))
    for mode in (dict(), dict(reuse_handles=True)):
        calls[0] = 0
        assert scenario(Environment(**mode)) == reference, mode
        assert (calls[0] > 0) == steps_on_kernel, mode
    return reference


def _logger(env: Environment, log: list, tag):
    return lambda ev: log.append((env.now, tag))


def test_until_event_leaves_same_instant_events_queued(monkeypatch) -> None:
    def scenario(env):
        log: list = []
        evs = [env.timeout(1.0, k) for k in range(4)]
        for k, ev in enumerate(evs):
            ev.add_callback(_logger(env, log, k))
        value = env.run(until=evs[1])
        _live_exact(env)
        first = (env.now, value, list(log))
        # a same-instant event scheduled between the runs lands behind
        # the two still queued from the first batch
        env.timeout(0.0).add_callback(_logger(env, log, "late"))
        value = env.run(until=evs[3])
        _live_exact(env)
        second = (env.now, value, list(log))
        env.run()
        _live_exact(env)
        return first, second, log

    first, second, log = _kernel_vs_step_loop(monkeypatch, scenario)
    assert first == (1.0, 1, [(1.0, 0), (1.0, 1)])
    assert second[2] == [(1.0, k) for k in range(4)]
    assert log[-1] == (1.0, "late")


def test_until_event_leaves_urgent_arrivals_queued(monkeypatch) -> None:
    def scenario(env):
        log: list = []

        def child():
            log.append((env.now, "child-start"))
            yield env.timeout(0.0)
            log.append((env.now, "child-end"))

        target = env.timeout(1.0, "t")
        behind = env.timeout(1.0)
        # the target's callback spawns a process: its bootstrap is URGENT
        target.add_callback(lambda ev: env.process(child(), name="child"))
        target.add_callback(_logger(env, log, "target"))
        behind.add_callback(_logger(env, log, "behind"))
        value = env.run(until=target)
        _live_exact(env)
        snapshot = (value, list(log))
        env.run()
        _live_exact(env)
        return snapshot, log

    snapshot, log = _kernel_vs_step_loop(monkeypatch, scenario)
    assert snapshot == ("t", [(1.0, "target")])
    # the URGENT bootstrap still runs ahead of the queued NORMAL event
    assert [tag for _t, tag in log] == [
        "target", "child-start", "behind", "child-end"]


def _urgent(env: Environment, value, log: list) -> Event:
    """A triggered event for URGENT scheduling (the process-bootstrap band)."""
    ev = env.event()
    ev._ok, ev._value = True, value
    ev.add_callback(_logger(env, log, value))
    return ev


def test_until_event_dispatched_from_the_urgent_paths(monkeypatch) -> None:
    def scenario(env):
        log: list = []
        # (a) the target sits in an URGENT batch with one entry behind it
        first = _urgent(env, "u0", log)
        env.schedule(first, priority=URGENT)
        env.schedule(_urgent(env, "u1", log), priority=URGENT)
        env.timeout(0.0).add_callback(_logger(env, log, "n0"))
        out = [env.run(until=first), list(log)]
        _live_exact(env)
        # (b) the target is an URGENT arrival that preempts the rest of a
        # NORMAL batch: the NORMAL event behind it stays queued
        arrival = _urgent(env, "u2", log)
        a = env.timeout(1.0)
        a.add_callback(lambda ev: env.schedule(arrival, priority=URGENT))
        a.add_callback(_logger(env, log, "a"))
        env.timeout(1.0).add_callback(_logger(env, log, "b"))
        out.append(env.run(until=arrival))
        out.append(list(log))
        _live_exact(env)
        env.run()
        _live_exact(env)
        return out, log

    out, log = _kernel_vs_step_loop(monkeypatch, scenario)
    assert out[:2] == ["u0", [(0.0, "u0")]]
    assert out[2:] == ["u2", [(0.0, "u0"), (0.0, "u1"), (0.0, "n0"),
                              (1.0, "a"), (1.0, "u2")]]
    assert log[-1] == (1.0, "b")


def test_until_failed_target_raises_and_resumes(monkeypatch) -> None:
    def scenario(env):
        log: list = []
        bare = env.event()
        caught = env.event()

        def failer():
            yield env.timeout(1.0)
            bare.fail(ValueError("bare"))
            env.timeout(0.0).add_callback(_logger(env, log, "after-bare"))
            yield env.timeout(1.0)
            caught.fail(KeyError("caught"))

        def waiter():
            # a process waiting on the target defuses its failure; run()
            # still re-raises it to the caller
            try:
                yield caught
            except KeyError:
                log.append((env.now, "waiter-caught"))

        env.process(failer())
        env.process(waiter())
        out = []
        for target, exc in ((bare, ValueError), (caught, KeyError)):
            with pytest.raises(exc):
                env.run(until=target)
            _live_exact(env)
            out.append((env.now, list(log)))
        env.run()
        _live_exact(env)
        return out, log

    out, log = _kernel_vs_step_loop(monkeypatch, scenario)
    assert out[0] == (1.0, [])
    assert (1.0, "after-bare") in log and (2.0, "waiter-caught") in log


def test_until_event_deadlock_when_queue_drains_first(monkeypatch) -> None:
    def scenario(env):
        never = env.event("never")
        store = Store(env)

        def blocked():
            yield env.timeout(2.0)
            yield store.get()

        env.process(blocked(), name="blocked")
        with pytest.raises(DeadlockError) as info:
            env.run(until=never)
        _live_exact(env)
        return env.now, info.value.waiting

    assert _kernel_vs_step_loop(monkeypatch, scenario) == (2.0, ("blocked",))


class _Observer:
    """A minimal race tracker: every hook is a no-op except processing."""

    def __init__(self) -> None:
        self.processed = 0

    def on_processing(self, event) -> None:
        self.processed += 1

    def __getattr__(self, name):
        return lambda *args, **kwargs: None


@pytest.mark.parametrize("until", ["event", "time"])
def test_observer_installed_mid_run_takes_over(monkeypatch, until) -> None:
    def scenario(env):
        log: list = []
        obs = _Observer()
        install = env.timeout(1.0)
        install.add_callback(lambda ev: _rh.install(obs))
        for t in (2.0, 3.0, 3.0, 4.0):
            env.timeout(t).add_callback(_logger(env, log, t))
        target = env.timeout(3.0, "target")
        behind = env.timeout(3.0)
        behind.add_callback(_logger(env, log, "behind"))
        try:
            result = env.run(until=target if until == "event" else 3.0)
            _live_exact(env)
            snapshot = (env.now, result, list(log), obs.processed)
        finally:
            _rh.uninstall(obs)
        env.run()
        _live_exact(env)
        return snapshot, log

    snapshot, _log = _kernel_vs_step_loop(monkeypatch, scenario,
                                          steps_on_kernel=True)
    if until == "event":
        assert snapshot == (3.0, "target", [(2.0, 2.0), (3.0, 3.0),
                                           (3.0, 3.0)], 4)
    else:
        assert snapshot[2][-1] == (3.0, "behind")


def test_until_time_runs_events_at_the_deadline(monkeypatch) -> None:
    def scenario(env):
        log: list = []
        for t in (1.0, 2.0, 2.0, 3.0, 5.0):
            env.timeout(t).add_callback(_logger(env, log, t))
        cancelled = [env.timeout(4.0) for _ in range(3)]
        out = []
        for deadline in (2.0, 2.0, 3.5):
            env.run(until=deadline)
            _live_exact(env)
            out.append((env.now, list(log)))
        for ev in cancelled:
            env.cancel(ev)
        # only tombstones at 4.0: nothing runs, the clock stops at 4.0
        env.run(until=4.0)
        _live_exact(env)
        out.append((env.now, list(log), env.peek()))
        env.run(until=10.0)
        _live_exact(env)
        out.append((env.now, list(log)))
        return out

    out = _kernel_vs_step_loop(monkeypatch, scenario)
    assert out[0] == (2.0, [(1.0, 1.0), (2.0, 2.0), (2.0, 2.0)])
    assert out[2][0] == 3.5 and out[2][1][-1] == (3.0, 3.0)
    assert out[3] == (4.0, out[2][1], 5.0)
    assert out[4] == (10.0, out[2][1] + [(5.0, 5.0)])


def test_until_time_rejects_nan() -> None:
    with pytest.raises(SimulationError):
        Environment().run(until=float("nan"))


@pytest.mark.parametrize("latency", [0.0, 2e-6])
def test_app_pattern_run_until_then_same_instant_sends(monkeypatch,
                                                       latency) -> None:
    """run_until a reduction, inject sends at that instant, run again."""
    from repro.machine.knl import build_knl
    from repro.runtime.chare import Chare
    from repro.runtime.entry import entry
    from repro.runtime.runtime import CharmRuntime
    from repro.units import GiB

    class Worker(Chare):
        @entry
        def work(self, k, reducer):
            yield self.runtime.env.timeout(1e-3 * (1 + self.index[0] % 3))
            reducer.contribute((k, self.index[0], self.runtime.env.now))

    def scenario(env):
        node = build_knl(env, cores=4, mcdram_capacity=GiB,
                         ddr_capacity=4 * GiB)
        rt = CharmRuntime(node, message_latency=latency)
        arr = rt.create_array(Worker, 8)
        out = []
        for k in range(3):
            red = rt.reducer(8, combiner=list)
            arr.broadcast("work", k, red)  # same instant as the last stop
            out.append((env.now, rt.run_until(red.done)))
            _live_exact(env)
        rt.shutdown()
        _live_exact(env)
        out.append([pe.tasks_executed for pe in rt.pes])
        return out

    out = _kernel_vs_step_loop(monkeypatch, scenario)
    assert out[-1] == [6, 6, 6, 6]
