"""The strategy layer's incremental counters agree with a from-scratch
recount under any interleaving of block and wait-queue transitions.

The OOC manager keeps three derived quantities current instead of
rescanning for them on every scheduling decision:

* each live task's ``missing`` bytes (dependences in DDR),
* each PE's ``wait_missing`` total over its wait queue,
* the evictable index (INHBM, refcount 0, unpinned) and its byte total.

The property test drives a real manager through random sequences of
move, settle, whole transfers, retain, release, pin, enqueue, dequeue,
task arrival and task completion, and recounts everything from the
blocks after every step.  A second check runs whole applications under
the sanitizer, whose SAN209 rule performs the same recount after every
task completion.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.matmul import MatMul, MatMulConfig
from repro.apps.stencil3d import Stencil3D, StencilConfig
from repro.core.api import OOCRuntimeBuilder
from repro.core.ooc_task import OOCTask
from repro.lint.sanitizer import SimSanitizer
from repro.mem.block import AccessIntent, BlockState, DataBlock
from repro.units import GiB, MiB

N_BLOCKS = 6
N_PES = 2
SIZES = (1 * MiB, 2 * MiB, 3 * MiB, 5 * MiB, 8 * MiB, 13 * MiB)


def _recount(mgr, tasks):
    """(task missing, PE totals, evictable bids, evictable bytes) derived
    from the blocks alone."""
    missing = {task.tid: sum(b.nbytes for b in task.blocks
                             if b.state is BlockState.INDDR)
               for task in tasks}
    per_pe = [sum(missing[task.tid] for task in pe.wait_queue)
              for pe in mgr.runtime.pes]
    evictable = {b.bid for b in mgr.registry
                 if b.state is BlockState.INHBM and b.refcount == 0
                 and not b.pinned}
    return missing, per_pe, evictable, sum(
        mgr.registry.get(bid).nbytes for bid in evictable)


def _live(mgr, tasks):
    return ({task.tid: task.missing for task in tasks},
            [pe.wait_missing for pe in mgr.runtime.pes],
            set(mgr.evictable), mgr.evictable_bytes)


class _World:
    """A real manager plus blocks and tasks that the ops below mutate."""

    def __init__(self):
        built = OOCRuntimeBuilder("no-io", cores=N_PES,
                                  mcdram_capacity=256 * MiB,
                                  ddr_capacity=1 * GiB).build()
        self.mgr = built.manager
        self.hbm, self.ddr = self.mgr.hbm, self.mgr.ddr
        self.blocks = []
        for i, size in enumerate(SIZES):
            state = BlockState.INHBM if i % 2 else BlockState.INDDR
            block = DataBlock(f"b{i}", size, state=state)
            self.mgr.registry.register(block)
            self.blocks.append(block)
        #: live tasks (registered as demand), in arrival order
        self.tasks: list[OOCTask] = []

    def apply(self, op, a, b):
        block = self.blocks[a % N_BLOCKS]
        pe = self.mgr.runtime.pes[b % N_PES]
        if op == "transfer":
            self.apply("move", a, b)
            self.apply("settle", a, b)
        elif op == "move" and not block.moving:
            block.begin_move()
        elif op == "settle" and block.moving:
            to_hbm = b % 2 == 0
            block.settle(self.hbm if to_hbm else self.ddr,
                         BlockState.INHBM if to_hbm else BlockState.INDDR)
        elif op == "retain":
            block.retain()
        elif op == "release" and block.refcount:
            block.release()
        elif op == "pin":
            block.pinned = not block.pinned
        elif op == "arrive":
            deps = {self.blocks[(a + k * (b + 1)) % N_BLOCKS]
                    for k in range(1 + b % 3)}
            task = OOCTask(SimpleNamespace(), pe.id,
                           [(d, AccessIntent.READONLY) for d in deps], 0.0)
            for dep in task.blocks:
                dep.add_demand(task.tid, task)
            self.tasks.append(task)
        elif op == "enqueue" and self.tasks:
            task = self.tasks[a % len(self.tasks)]
            if task.waiting_on is None:
                if b % 2:
                    pe.wait_enqueue(task)
                else:
                    pe.wait_requeue_front(task)
        elif op == "dequeue":
            pe.wait_dequeue()
        elif op == "finish" and self.tasks:
            task = self.tasks[a % len(self.tasks)]
            if task.waiting_on is None:
                for dep in task.blocks:
                    dep.drop_demand(task.tid)
                self.tasks.remove(task)


#: ``transfer`` is a whole move (begin_move then settle), the common case
OPS = st.sampled_from(["move", "settle", "transfer", "retain", "release",
                       "pin", "arrive", "enqueue", "dequeue", "finish"])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(OPS, st.integers(0, 50), st.integers(0, 50)),
                min_size=10, max_size=80))
def test_counters_match_recount_after_every_transition(steps):
    world = _World()
    sanitizer = SimSanitizer()
    for op, a, b in steps:
        world.apply(op, a, b)
        assert _live(world.mgr, world.tasks) == _recount(world.mgr,
                                                         world.tasks)
    assert sanitizer.check_bookkeeping(world.mgr) == 0, sanitizer.render()


def test_sanitizer_reports_drift():
    """SAN209 fires on each kind of counter a missed callback would skew."""
    world = _World()
    for op, a, b in [("arrive", 0, 1), ("enqueue", 0, 1)]:
        world.apply(op, a, b)
    task, pe = world.tasks[0], world.mgr.runtime.pes[1]
    task.missing += 1
    pe.wait_missing += 1
    world.mgr.evictable_bytes += 1
    resident = next(b for b in world.blocks if b.in_hbm)
    del world.mgr.evictable[resident.bid]
    sanitizer = SimSanitizer()
    assert sanitizer.check_bookkeeping(world.mgr) == 4
    assert {v.rule for v in sanitizer.violations} == {"SAN209"}


@pytest.mark.parametrize("strategy", ["single-io", "no-io", "multi-io"])
@pytest.mark.parametrize("app", ["stencil", "matmul"])
def test_no_drift_under_real_schedules(app, strategy):
    """SAN209 recounts after every task completion of a real run."""
    built = OOCRuntimeBuilder(strategy, cores=8, mcdram_capacity=64 * MiB,
                              ddr_capacity=1 * GiB).build()
    sanitizer = SimSanitizer(mode="raise").install(built.manager)
    try:
        if app == "stencil":
            Stencil3D(built, StencilConfig(total_bytes=128 * MiB,
                                           block_bytes=4 * MiB,
                                           iterations=2)).run()
        else:
            MatMul(built, MatMulConfig.for_working_set(
                96 * MiB, block_dim=128)).run()
        assert built.manager.check_quiescent() == 0
    finally:
        sanitizer.uninstall()
    assert built.manager.tasks_completed > 0
    assert sanitizer.violations == []
