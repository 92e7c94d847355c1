"""The runtime façade: machine + PEs + messaging + interception wiring."""

from __future__ import annotations

import typing as _t

from repro.errors import ChareError, RuntimeModelError
from repro.machine.node import MachineNode
from repro.runtime.chare import Chare, ChareArray, NodeGroup
from repro.runtime.converse import STOP, converse_scheduler
from repro.runtime.interception import Interceptor
from repro.runtime.loadbalance import round_robin_map
from repro.runtime.message import Message
from repro.runtime.pe import PE
from repro.runtime.reduction import Reducer
from repro.sim.events import Event
from repro.trace.tracer import Tracer

__all__ = ["CharmRuntime"]

Index = tuple[int, ...]


class CharmRuntime:
    """One simulated Charm++ runtime instance on one machine node.

    Construction starts one converse scheduler process per PE; applications
    then create chare arrays, send messages, and drive the simulation with
    :meth:`run_until`.
    """

    def __init__(self, machine: MachineNode, *,
                 n_pes: int | None = None,
                 message_latency: float = 2e-6,
                 tracer: Tracer | None = None):
        self.machine = machine
        self.env = machine.env
        if n_pes is None:
            n_pes = len(machine.cores)
        if not 1 <= n_pes <= len(machine.cores):
            raise RuntimeModelError(
                f"n_pes must be in [1, {len(machine.cores)}], got {n_pes}")
        #: fixed per-message delivery latency (intra-node)
        self.message_latency = message_latency
        self.tracer = tracer if tracer is not None else Tracer(self.env)
        self.pes: list[PE] = [PE(self.env, i, machine.cores[i])
                              for i in range(n_pes)]
        #: the OOC manager, installed by :meth:`install_interceptor`
        self.interceptor: Interceptor | None = None
        #: PE whose scheduler is currently executing (for chare helpers)
        self.current_pe_id = 0
        self.arrays: list[ChareArray] = []
        self.node_groups: list[NodeGroup] = []
        self.messages_sent = 0
        self._running = True
        for pe in self.pes:
            pe.scheduler_process = self.env.process(
                converse_scheduler(self, pe), name=f"converse-pe{pe.id}")

    # -- interception -----------------------------------------------------------

    def install_interceptor(self, interceptor: Interceptor) -> None:
        """Install the OOC manager (must happen before messages flow)."""
        if self.interceptor is not None:
            raise RuntimeModelError("an interceptor is already installed")
        self.interceptor = interceptor

    # -- chare management ---------------------------------------------------------

    def create_array(self, cls: type[Chare],
                     indices: _t.Sequence[Index] | int, *,
                     pe_map: _t.Mapping[Index, int] | None = None,
                     name: str = "") -> ChareArray:
        """Create a chare array over ``indices`` (int = 1-D range)."""
        if isinstance(indices, int):
            index_list: list[Index] = [(i,) for i in range(indices)]
        else:
            index_list = [tuple(i) if not isinstance(i, tuple) else i
                          for i in indices]
        if not index_list:
            raise ChareError("a chare array needs at least one element")
        if pe_map is None:
            pe_map = round_robin_map(index_list, len(self.pes))
        array = ChareArray(self, cls, index_list, pe_map, name=name)
        self.arrays.append(array)
        return array

    def create_node_group(self, cls: type[NodeGroup] = NodeGroup,
                          *args: _t.Any, **kwargs: _t.Any) -> NodeGroup:
        """Create a node group (one instance: we simulate one node)."""
        group = cls(*args, **kwargs)
        group._bind(self, (0,), 0, None)
        self.node_groups.append(group)
        return group

    # -- messaging ------------------------------------------------------------------

    def send(self, target: Chare, entry_name: str, *args: _t.Any,
             nbytes: int = 0, **kwargs: _t.Any) -> Message:
        """Asynchronously invoke ``target.entry_name(*args)``.

        The message lands on the target's PE run queue after the delivery
        latency; interception and execution happen in the converse loop.
        """
        if target.runtime is not self:
            raise ChareError(f"{target!r} does not belong to this runtime")
        spec = target.entry_spec(entry_name)
        msg = Message(target, spec, args, kwargs, nbytes=nbytes,
                      created_at=self.env.now)
        self.messages_sent += 1
        pe = self.pes[target.pe_id]
        if self.message_latency > 0:
            self.env.timeout(self.message_latency, msg).add_callback(
                pe.on_arrival)
        else:
            pe.run_queue.put(msg)
        return msg

    # -- load balancing ---------------------------------------------------------

    def migrate(self, chare: Chare, new_pe: int) -> None:
        """Move a chare to another PE.

        "Objects do not migrate at anytime, they migrate only when load
        balancing explicitly moves them" (§III-A): messages sent after the
        migration route to the new PE; in-flight deliveries complete where
        they are.
        """
        if chare.runtime is not self:
            raise ChareError(f"{chare!r} does not belong to this runtime")
        if not 0 <= new_pe < len(self.pes):
            raise RuntimeModelError(f"no PE {new_pe}")
        chare.pe_id = new_pe

    def rebalance(self, array: ChareArray) -> dict[tuple[int, ...], int]:
        """Greedy LPT rebalancing of one array from measured loads.

        Uses each chare's cumulative entry-method execution time (the
        instrumented load Charm++'s load balancers consume) and resets the
        measurements afterwards.  Returns the new index -> PE map.
        """
        from repro.runtime.loadbalance import GreedyLoadBalancer

        loads = {idx: chare._measured_load
                 for idx, chare in array.elements.items()}
        mapping = GreedyLoadBalancer(len(self.pes)).rebalance(loads)
        for idx, pe_id in mapping.items():
            chare = array.elements[idx]
            chare.pe_id = pe_id
            chare._measured_load = 0.0
        return mapping

    def reducer(self, expected: int, *,
                combiner: _t.Callable[[list], _t.Any] | None = None,
                name: str = "reduction") -> Reducer:
        return Reducer(self.env, expected, combiner=combiner, name=name)

    # -- driving ------------------------------------------------------------------

    def run_until(self, event: Event) -> _t.Any:
        """Advance the simulation until ``event`` fires; returns its value."""
        return self.env.run(until=event)

    def shutdown(self) -> None:
        """Stop all PE schedulers (drains pending run-queue items first)."""
        if not self._running:
            return
        self._running = False
        for pe in self.pes:
            pe.run_queue.put(STOP)
        self.env.run()

    # -- stats ---------------------------------------------------------------------

    def total_busy_time(self) -> float:
        return sum(pe.busy_time for pe in self.pes)

    def total_overhead_time(self) -> float:
        return sum(pe.overhead_time for pe in self.pes)

    def __repr__(self) -> str:
        return (f"<CharmRuntime pes={len(self.pes)} arrays={len(self.arrays)} "
                f"sent={self.messages_sent}>")
