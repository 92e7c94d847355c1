"""Chares, chare arrays and node groups (paper §III-A).

"CHARM++ requires for work to be over-decomposed in work units called
chares... there are more work units/chares than number of processors."
Over-decomposition is the mechanism that lets the runtime keep the *reduced*
working set (one wave of chares) inside the 16 GB HBM even when the *total*
working set is far larger.
"""

from __future__ import annotations

import typing as _t
from itertools import count

from repro.errors import ChareError
from repro.mem.block import DataBlock
from repro.runtime.entry import EntrySpec, collect_entry_specs

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import CharmRuntime

__all__ = ["Chare", "ChareArray", "NodeGroup"]

_chare_ids = count()


class Chare:
    """Base class for application work units.

    Subclasses declare entry methods with :func:`repro.runtime.entry.entry`
    and data blocks with :meth:`declare_block` (the ``CkIOHandle`` member
    declaration of §IV-A).
    """

    _entry_specs: dict[str, EntrySpec] = {}

    def __init_subclass__(cls, **kwargs: _t.Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._entry_specs = collect_entry_specs(cls)

    def __init__(self) -> None:
        self.cid = next(_chare_ids)
        self.runtime: "CharmRuntime | None" = None
        self.index: tuple[int, ...] = ()
        self.pe_id: int = -1
        self.array: "ChareArray | None" = None
        #: blocks declared by this chare, in declaration order
        self.blocks: list[DataBlock] = []
        #: cumulative entry-method execution time (drives load balancing)
        self._measured_load = 0.0

    # -- wiring (done by the runtime at insertion) ----------------------------

    def _bind(self, runtime: "CharmRuntime", index: tuple[int, ...],
              pe_id: int, array: "ChareArray | None") -> None:
        self.runtime = runtime
        self.index = index
        self.pe_id = pe_id
        self.array = array
        #: entry name -> ``label.entry`` trace label, allocated by the
        #: first traced delivery (untraced runs never build one)
        self._entry_labels: dict[str, str] | None = None

    @property
    def label(self) -> str:
        idx = ",".join(map(str, self.index))
        return f"{type(self).__name__}[{idx}]"

    def entry_label(self, entry_name: str) -> str:
        """The ``label.entry`` trace label, built once per entry method.

        The index never changes after binding, so each label is built on
        the first traced delivery and reused for every later one.
        """
        labels = self._entry_labels
        if labels is None:
            labels = self._entry_labels = {}
        label = labels.get(entry_name)
        if label is None:
            label = labels[entry_name] = f"{self.label}.{entry_name}"
        return label

    def entry_spec(self, name: str) -> EntrySpec:
        try:
            return self._entry_specs[name]
        except KeyError:
            raise ChareError(
                f"{type(self).__name__} has no entry method {name!r}") from None

    # -- application-facing helpers -----------------------------------------

    def declare_block(self, name: str, nbytes: int, *,
                      payload: _t.Any = None) -> DataBlock:
        """Declare a ``CkIOHandle``-style data block owned by this chare.

        The block is registered with the runtime's block registry; *initial
        placement* is the active strategy's job and happens when the
        application is launched.
        """
        if self.runtime is None:
            raise ChareError(
                f"declare_block before {self.label} was inserted into the runtime")
        block = DataBlock(f"{self.label}.{name}", nbytes,
                          payload=payload, owner=self)
        self.runtime.machine.registry.register(block)
        self.blocks.append(block)
        return block

    def kernel(self, flops: float, reads: _t.Sequence[DataBlock] = (),
               writes: _t.Sequence[DataBlock] = (), *,
               traffic_scale: float = 1.0) -> _t.Generator:
        """Run a compute kernel on this chare's PE (generator; ``yield from``)."""
        if self.runtime is None:
            raise ChareError("kernel() on an unbound chare")
        # Use the PE whose converse loop is executing us (set by deliver):
        # with the node-level run queue option a ready task may run on a PE
        # other than the chare's home.
        pe = self.runtime.pes[getattr(self, "_exec_pe_id", self.pe_id)]
        result = yield from self.runtime.machine.run_kernel_on_blocks(
            pe.core, flops, reads, writes, traffic_scale=traffic_scale)
        return result

    def send(self, entry_name: str, *args: _t.Any, nbytes: int = 0,
             **kwargs: _t.Any) -> None:
        """Send a message to *this* chare (self-sends are common in Charm++)."""
        if self.runtime is None:
            raise ChareError("send() on an unbound chare")
        self.runtime.send(self, entry_name, *args, nbytes=nbytes, **kwargs)

    def __repr__(self) -> str:
        return f"<{self.label} pe={self.pe_id}>"


class ChareArray:
    """An indexed collection of chares distributed over the PEs."""

    def __init__(self, runtime: "CharmRuntime", cls: type[Chare],
                 indices: _t.Sequence[tuple[int, ...]],
                 pe_map: _t.Mapping[tuple[int, ...], int],
                 name: str = ""):
        self.runtime = runtime
        self.cls = cls
        self.name = name or cls.__name__
        self.elements: dict[tuple[int, ...], Chare] = {}
        for index in indices:
            chare = cls()
            chare._bind(runtime, index, pe_map[index], self)
            self.elements[index] = chare

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> _t.Iterator[Chare]:
        return iter(self.elements.values())

    def __getitem__(self, index: tuple[int, ...] | int) -> Chare:
        if isinstance(index, int):
            index = (index,)
        try:
            return self.elements[index]
        except KeyError:
            raise ChareError(f"{self.name} has no element {index}") from None

    def send(self, index: tuple[int, ...] | int, entry_name: str,
             *args: _t.Any, nbytes: int = 0, **kwargs: _t.Any) -> None:
        """Send a message to one element."""
        self.runtime.send(self[index], entry_name, *args,
                          nbytes=nbytes, **kwargs)

    def broadcast(self, entry_name: str, *args: _t.Any, nbytes: int = 0,
                  **kwargs: _t.Any) -> None:
        """Send a message to every element (deterministic index order)."""
        for index in sorted(self.elements):
            self.runtime.send(self.elements[index], entry_name, *args,
                              nbytes=nbytes, **kwargs)

    def __repr__(self) -> str:
        return f"<ChareArray {self.name} n={len(self.elements)}>"


class NodeGroup(Chare):
    """A chare with one instance per node, used for node-level caching.

    The paper's MatMul "use[s] a nodegroup in CHARM++ which allows caching
    of data at node-level" to share read-only A/B blocks across chares.  On
    our single simulated node a NodeGroup is a singleton whose blocks are
    visible to every PE.
    """

    def __init__(self) -> None:
        super().__init__()
        #: shared read-only cache: key -> DataBlock
        self.shared: dict[_t.Any, DataBlock] = {}

    def share_block(self, key: _t.Any, nbytes: int, *,
                    payload: _t.Any = None) -> DataBlock:
        """Get-or-create a node-shared block (refcounted like any other)."""
        if key not in self.shared:
            block = self.declare_block(f"shared{key}", nbytes, payload=payload)
            self.shared[key] = block
        return self.shared[key]
