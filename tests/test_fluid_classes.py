"""Flow classes: the class kernel's exactness, its fallback, the class index.

The incremental solver runs progressive filling over flow classes (active
flows with identical ``(links, weight, max_rate)``) instead of over flows.
It claims bit-identical rates to the per-flow kernel ``_solve_scalar``
whenever every flow shares one weight and no capped batch mixes unequal
caps, and hands every other shape to the per-flow kernel.  These tests
check the claim rate by rate with ``==``, check that both fallback shapes
are taken and still match the ``"full"`` oracle, and check the class index
that ``start_flow`` and ``_detach`` keep (simsan's SAN210 recount).
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.lint.sanitizer import SimSanitizer
from repro.sim.environment import Environment
from repro.sim.fluid import FluidNetwork, _closure

#: small alphabets, so ties, capped batches and saturated rounds all occur
CAPACITIES = (10e9, 20e9, 30e9, 60e9)
MAX_RATES = (2.5e9, 5e9, 10e9, 15e9, math.inf)
WEIGHTS = (0.1, 0.3, 1.0, 3.0)

CLASS = st.fixed_dictionaries({
    "links": st.lists(st.integers(0, 3), min_size=1, max_size=3,
                      unique=True),
    "max_rate": st.sampled_from(MAX_RATES),
    "weight": st.sampled_from(WEIGHTS),
    "members": st.integers(1, 8),
})

COMPONENT = st.fixed_dictionaries({
    "capacities": st.lists(st.sampled_from(CAPACITIES), min_size=1,
                           max_size=4),
    "classes": st.lists(CLASS, min_size=1, max_size=5),
    "uniform": st.booleans(),
})


def _build(spec, order):
    """A network holding the component's flows, started in ``order``."""
    net = FluidNetwork(Environment(), solver="incremental")
    links = [net.add_link(f"l{i}", cap)
             for i, cap in enumerate(spec["capacities"])]
    weight = spec["classes"][0]["weight"]
    flows = []
    for k in order:
        cls = spec["classes"][k]
        flows.append(net.start_flow(
            1e9, [links[i % len(links)] for i in cls["links"]],
            weight=weight if spec["uniform"] else cls["weight"],
            max_rate=cls["max_rate"]))
    return net, flows


@settings(max_examples=300, deadline=None)
@given(spec=COMPONENT, data=st.data())
def test_class_kernel_matches_per_flow_kernel(spec, data):
    order = [k for k, cls in enumerate(spec["classes"])
             for _ in range(cls["members"])]
    order = data.draw(st.permutations(order))
    net, flows = _build(spec, order)
    dirty = set(net.links)
    classes, links = _closure(dirty, "classes")
    weights = {cls.weight for cls in classes}
    exact = FluidNetwork._solve_classes(classes, links)
    # no two distinct caps in the alphabet lie within 1e-12 of each other,
    # so a uniform weight is the only condition for the exact kernel
    assert exact == (len(weights) == 1)
    if not exact:
        return
    class_rates = {cls: cls.rate for cls in classes}
    net._solve_scalar(*_closure(dirty, "flows"))
    for flow in flows:
        assert flow._rate == class_rates[flow.cls]


def _run(solver: str, starts) -> tuple[dict, FluidNetwork]:
    """Start ``(nbytes, links, weight, max_rate)`` flows; map fid -> end."""
    env = Environment()
    net = FluidNetwork(env, solver=solver)
    a = net.add_link("a", 50e9)
    b = net.add_link("b", 35e9)
    pick = {"a": [a], "b": [b], "ab": [a, b]}
    flows = []

    def driver():
        for wave in range(2):
            for nbytes, links, weight, max_rate in starts:
                flows.append(net.start_flow(
                    nbytes * (1 + wave), pick[links], weight=weight,
                    max_rate=max_rate))
            yield env.timeout(1e-3)

    env.process(driver())
    env.run()
    return {f.fid: f.finished_at for f in flows}, net


MIXED_WEIGHTS = [(2e8, "ab", 1.0, math.inf), (3e8, "a", 2.0, math.inf),
                 (1e8, "b", 0.5, 9e9), (4e8, "ab", 1.0, math.inf)]
NEAR_CAPS = [(2e8, "a", 1.0, 4e9), (3e8, "ab", 1.0, 4e9 * (1 + 5e-13)),
             (1e8, "b", 1.0, math.inf), (2e8, "ab", 1.0, math.inf)]


def test_mixed_weights_take_the_fallback_and_match_full():
    got, net = _run("incremental", MIXED_WEIGHTS)
    oracle, _ = _run("full", MIXED_WEIGHTS)
    assert net.fallback_solves > 0
    assert got == oracle


def test_near_equal_caps_take_the_fallback_and_match_full():
    got, net = _run("incremental", NEAR_CAPS)
    oracle, _ = _run("full", NEAR_CAPS)
    assert net.fallback_solves > 0
    assert got == oracle


def test_class_path_actually_engages():
    """Uniform weights and distinct caps: no fallback, few classes."""
    uniform = [(2e8, "ab", 1.0, 4e9), (3e8, "a", 1.0, math.inf),
               (1e8, "b", 1.0, 9e9), (4e8, "ab", 1.0, 4e9)]
    got, net = _run("incremental", uniform)
    oracle, _ = _run("full", uniform)
    assert got == oracle
    assert net.solves > 0 and net.fallback_solves == 0


def test_class_index_follows_membership():
    env = Environment()
    net = FluidNetwork(env, solver="incremental")
    a = net.add_link("a", 100.0)
    b = net.add_link("b", 100.0)
    f1 = net.start_flow(1000.0, [a, b])
    f2 = net.start_flow(3000.0, [a, b])
    f3 = net.start_flow(300.0, [a], max_rate=10.0)
    assert f1.cls is f2.cls is not f3.cls
    assert len(net._classes) == 2
    assert list(a.classes) == [f1.cls, f3.cls]
    assert list(b.classes) == [f1.cls]
    assert f1.rate == f2.rate == f1.cls.rate == 45.0
    env.run(f1.done)
    assert list(f2.cls.members) == [f2]
    env.run(f3.done)
    assert list(a.classes) == [f2.cls]
    env.run()
    assert not net._classes and not a.classes and not b.classes


def _san210(net: FluidNetwork) -> list[str]:
    sanitizer = SimSanitizer(mode="record")
    sanitizer.check_fluid(net)
    assert {v.rule for v in sanitizer.violations} <= {"SAN210"}
    return [v.message for v in sanitizer.violations]


def test_san210_silent_on_a_consistent_network():
    _, net = _run("incremental", MIXED_WEIGHTS)
    assert _san210(net) == []
    env = Environment()
    net = FluidNetwork(env, solver="full")
    link = net.add_link("l", 100.0)
    for k in range(3):
        net.start_flow(100.0 * (k + 1), [link], max_rate=40.0 - k)
    assert _san210(net) == []
    env.run(2.0)
    assert _san210(net) == []


def test_san210_reports_each_kind_of_drift():
    env = Environment()
    net = FluidNetwork(env, solver="incremental")
    a = net.add_link("a", 100.0)
    b = net.add_link("b", 100.0)
    f1 = net.start_flow(1000.0, [a])
    f2 = net.start_flow(1000.0, [a])
    f3 = net.start_flow(1000.0, [b])
    assert f1.rate == 50.0
    assert _san210(net) == []
    f1._rate = 60.0  # a member's rate left its class rate
    assert len(_san210(net)) == 1
    f1._rate = 50.0
    del f2.cls.members[f2]  # an active flow fell out of its class
    assert len(_san210(net)) == 1
    f2.cls.members[f2] = None
    b.classes.clear()  # a link forgot the class of its flow
    assert len(_san210(net)) == 1
    b.classes[f3.cls] = None
    assert _san210(net) == []
