"""The layer tracer: self-time arithmetic, generator semantics, restoration."""

from __future__ import annotations

import math

import pytest

import layers
import workloads
from repro.bench.experiments import fig2_plan
from repro.bench.harness import Scale


class FakeClock:
    """A clock the code under test advances explicitly."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


def test_nested_calls_self_time(clock):
    tracer = layers.LayerTracer(clock)

    def inner():
        clock.work(2.0)
        return "x"

    inner_w = tracer.wrap(inner, "mem", "inner")

    def outer():
        clock.work(1.0)
        assert inner_w() == "x"
        clock.work(3.0)
        assert inner_w() == "x"
        return 7

    outer_w = tracer.wrap(outer, "core", "outer")
    clock.work(5.0)  # outside every span: unattributed
    assert outer_w() == 7
    assert tracer.self_s["core"] == pytest.approx(4.0)
    assert tracer.self_s["mem"] == pytest.approx(4.0)
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert tracer.depth == 0
    split = layers.layer_seconds(tracer, 0.0, clock.now)
    assert split["unattributed"] == pytest.approx(5.0)
    assert math.fsum(split.values()) == pytest.approx(clock.now)


def test_generator_chain_charges_each_resumption(clock):
    tracer = layers.LayerTracer(clock)

    def move():
        clock.work(2.0)
        got = yield "alloc"
        clock.work(0.5)
        assert got == "sent"
        return "moved"

    move_w = tracer.wrap(move, "mem", "move")

    def submit():
        clock.work(1.0)
        result = yield from move_w()
        clock.work(0.25)
        return result

    submit_w = tracer.wrap(submit, "core.strategies", "submit")
    gen = submit_w()
    assert gen.__name__ == "submit"
    assert next(gen) == "alloc"
    clock.work(10.0)  # parked on an event: charged to nobody
    with pytest.raises(StopIteration) as stop:
        gen.send("sent")
    assert stop.value.value == "moved"
    assert tracer.self_s["mem"] == pytest.approx(2.5)
    assert tracer.self_s["core.strategies"] == pytest.approx(1.25)
    assert tracer.depth == 0
    split = layers.layer_seconds(tracer, 0.0, clock.now)
    assert split["unattributed"] == pytest.approx(10.0)


def test_thrown_exception_reaches_wrapped_generator(clock):
    tracer = layers.LayerTracer(clock)
    caught = []

    def body():
        try:
            yield 1
        except KeyError as exc:
            caught.append(exc)
            yield 2

    gen = tracer.wrap(body, "sim", "body")()
    assert next(gen) == 1
    assert gen.throw(KeyError("k")) == 2
    assert isinstance(caught[0], KeyError)
    gen.close()
    assert tracer.depth == 0


def test_exception_inside_span_closes_it(clock):
    tracer = layers.LayerTracer(clock)

    def boom():
        clock.work(1.0)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "apps", "boom")()
    assert tracer.depth == 0
    assert tracer.self_s["apps"] == pytest.approx(1.0)


def test_solve_time_moves_from_sim_to_fluid(clock):
    tracer = layers.LayerTracer(clock)
    tracer.self_s["sim"] = 3.0
    split = layers.layer_seconds(tracer, 1.0, 4.0)
    assert split["sim"] == pytest.approx(2.0)
    assert split["sim.fluid"] == pytest.approx(1.0)
    assert split["unattributed"] == pytest.approx(1.0)


def _cheap_spec():
    return fig2_plan(Scale.TINY).specs[0]  # hbm-only, a few ms


def test_traced_pass_restores_every_attribute():
    before = [(t.owner, t.name, getattr(t.owner, t.name))
              for t in layers.targets()]
    assert before and layers.unpatched()
    tracer = layers.LayerTracer()
    with tracer.installed():
        assert not layers.unpatched()
        traced = workloads.run_cell(_cheap_spec())
    assert layers.unpatched()
    for owner, name, original in before:
        assert getattr(owner, name) is original, name
    assert tracer.missing == []
    assert tracer.layer_calls()["sim"] > 0
    assert tracer.layer_calls()["apps"] > 0
    untraced = workloads.run_cell(_cheap_spec())
    assert traced.result == untraced.result
    assert traced.sim == untraced.sim


def test_restored_after_an_exception():
    with pytest.raises(RuntimeError):
        with layers.LayerTracer().installed():
            raise RuntimeError("cell crashed")
    assert layers.unpatched()


def test_traced_self_times_sum_to_wall():
    import time

    tracer = layers.LayerTracer()
    with tracer.installed():
        t0 = time.perf_counter()
        run = workloads.run_cell(_cheap_spec())
        wall = time.perf_counter() - t0
    split = layers.layer_seconds(tracer, run.solve_wall_s, wall)
    assert math.fsum(split.values()) == pytest.approx(wall, rel=1e-9)
    assert all(split[layer] >= 0 for layer in layers.LAYERS)
    assert split["unattributed"] >= 0
