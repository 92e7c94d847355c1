"""The per-PE converse scheduler loop.

"Tasks are picked up in FIFO order from the run queue and scheduled."
(§IV-B)  The run queue carries both plain messages and prefetched
:class:`~repro.runtime.interception.ReadyTask`s; interception happens right
before delivery, exactly where the paper hooks Converse.
"""

from __future__ import annotations

import typing as _t
from types import GeneratorType

from repro.errors import EntryMethodError
from repro.obs import hooks as _oh
from repro.race import hooks as _rh
from repro.runtime.interception import ReadyTask, RetryFetch
from repro.runtime.message import Message
from repro.runtime.pe import PE
from repro.trace.events import TraceCategory

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import CharmRuntime

__all__ = ["STOP", "converse_scheduler", "deliver"]


class _Stop:
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<STOP>"


#: sentinel that shuts a PE scheduler down
STOP = _Stop()


def deliver(runtime: "CharmRuntime", pe: PE, message: Message,
            task: _t.Any = None) -> _t.Generator:
    """Execute one entry method on ``pe`` (generator; runs in the PE loop)."""
    env = runtime.env
    chare = message.target
    spec = message.entry
    # simulated time only moves across the yields below, so each stretch
    # between them reads the clock once
    started = message.delivered_at = env.now
    pe.messages_delivered += 1
    if _rh.tracker is not None:
        _rh.tracker.on_deliver(pe, message, task)

    if _oh.collector is not None:
        # begin is published before the entry runs so messages sent from
        # inside it can parent on this span (causal send -> execute edges)
        _oh.collector.on_execute_begin(pe.id, message, task, started)
    runtime.current_pe_id = pe.id
    chare._exec_pe_id = pe.id
    result = spec.func(chare, *message.args, **message.kwargs)
    if type(result) is GeneratorType:
        # a simulated-time entry method; a plain one returned its value
        result = yield from result
    ended = env.now
    elapsed = ended - started
    pe.note_busy(elapsed)
    pe.tasks_executed += 1
    chare._measured_load += elapsed
    if runtime.tracer.enabled:
        # lane and label are interned (built once per PE / chare entry)
        runtime.tracer.record(pe.lane, TraceCategory.EXECUTE,
                              started, ended,
                              label=chare.entry_label(spec.name))
    if _oh.collector is not None:
        _oh.collector.on_execute_end(pe.id, message, task, started, ended,
                                     chare.entry_label(spec.name))

    if task is not None and runtime.interceptor is not None:
        yield from runtime.interceptor.post_process(pe, task)
        pe.note_overhead(env.now - ended)
    return result


def converse_scheduler(runtime: "CharmRuntime", pe: PE) -> _t.Generator:
    """The scheduler loop bound to one PE (one simulated process)."""
    env = runtime.env
    pe.started_at = env.now
    while True:
        item = yield pe.run_queue.get()
        if type(item) is not Message:
            # plain messages are the common item; the rest are rare
            if item is STOP:
                break
            if isinstance(item, ReadyTask):
                yield from deliver(runtime, pe, item.message, task=item.task)
                continue
            if isinstance(item, RetryFetch):
                if runtime.interceptor is not None:
                    started = env.now
                    yield from runtime.interceptor.retry(pe)
                    pe.note_overhead(env.now - started)
                continue
            if not isinstance(item, Message):
                raise EntryMethodError(
                    f"pe{pe.id}: unexpected run-queue item {item!r}")
        interceptor = runtime.interceptor
        if (interceptor is not None and not item.intercepted
                and interceptor.wants(item)):
            item.intercepted = True
            started = env.now
            yield from interceptor.intercept(pe, item)
            pe.note_overhead(env.now - started)
            continue
        yield from deliver(runtime, pe, item)
    pe.stopped_at = env.now
