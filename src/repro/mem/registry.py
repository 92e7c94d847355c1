"""Block registry: the runtime's metadata store over all ``CkIOHandle``s.

The paper stores and queries "metadata about the data block" at runtime
level; this registry is that store, plus the invariant checks the test
suite leans on (capacity accounting, refcount sanity, state consistency).
"""

from __future__ import annotations

import typing as _t

from repro.errors import BlockStateError
from repro.mem.block import BlockState, DataBlock
from repro.mem.topology import MemoryTopology

__all__ = ["BlockRegistry"]


class BlockRegistry:
    """All data blocks known to the runtime, with aggregate queries."""

    def __init__(self, topology: MemoryTopology):
        self.topology = topology
        self._blocks: dict[int, DataBlock] = {}
        #: receives every registered block's changes (see :meth:`watch`)
        self.watcher: _t.Any = None
        # the watcher's bound ``block_changed``, shared by every block
        self._callback: _t.Any = None

    # -- membership -----------------------------------------------------------

    def register(self, block: DataBlock) -> DataBlock:
        if block.bid in self._blocks:
            raise BlockStateError(f"block {block.name!r} registered twice")
        self._blocks[block.bid] = block
        if self._callback is not None:
            block.watch = self._callback
            self._callback(block, block.state)
        return block

    def unregister(self, block: DataBlock) -> None:
        if self._blocks.pop(block.bid, None) is not None \
                and block.watch is not None:
            block.watch = None
            self.watcher.block_forgotten(block)

    def watch(self, watcher: _t.Any) -> None:
        """Route the changes of every block, present and future, to
        ``watcher.block_changed(block, old_state)`` (installed as each
        block's :attr:`DataBlock.watch`); ``watcher.block_forgotten(block)``
        hears of unregistered blocks.  Each block is announced once on
        attach, with ``old_state`` equal to its current state.
        """
        self.watcher = watcher
        self._callback = callback = watcher.block_changed
        for block in self._blocks.values():
            block.watch = callback
            callback(block, block.state)

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> _t.Iterator[DataBlock]:
        return iter(self._blocks.values())

    def __contains__(self, block: DataBlock) -> bool:
        return block.bid in self._blocks

    def get(self, bid: int) -> DataBlock | None:
        return self._blocks.get(bid)

    # -- aggregate queries -------------------------------------------------------

    def blocks_in_state(self, state: BlockState) -> list[DataBlock]:
        return [b for b in self._blocks.values() if b.state is state]

    def bytes_in_state(self, state: BlockState) -> int:
        return sum(b.nbytes for b in self._blocks.values() if b.state is state)

    def resident_bytes(self, device_name: str) -> int:
        return sum(b.nbytes for b in self._blocks.values()
                   if b.device is not None and b.device.name == device_name
                   and b.allocation is not None and b.allocation.live)

    def evictable_blocks(self, state: BlockState = BlockState.INHBM) -> list[DataBlock]:
        """Blocks the paper would allow to be evicted: refcount 0, not pinned."""
        return [b for b in self._blocks.values()
                if b.state is state and not b.in_use and not b.pinned]

    def total_bytes(self) -> int:
        return sum(b.nbytes for b in self._blocks.values())

    # -- invariants ---------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise if any cross-cutting invariant is violated.

        * a block's registry-visible residency never exceeds its device's
          allocator accounting;
        * resident blocks have live allocations matching their device;
        * no refcount is negative (enforced in DataBlock, re-checked here).
        """
        per_device: dict[str, int] = {}
        for block in self._blocks.values():
            if block.refcount < 0:  # pragma: no cover - DataBlock forbids it
                raise BlockStateError(f"negative refcount on {block!r}")
            if block.allocation is not None and block.allocation.live:
                if block.device is None:
                    raise BlockStateError(
                        f"block {block.name!r} has live allocation but no device")
                if block.allocation.nbytes < block.nbytes:
                    raise BlockStateError(
                        f"block {block.name!r} allocation smaller than block")
                per_device[block.device.name] = (
                    per_device.get(block.device.name, 0) + block.allocation.nbytes)
            elif block.state is not BlockState.MOVING and block.device is not None:
                # A settled block must have live backing store.
                raise BlockStateError(
                    f"block {block.name!r} is {block.state.value} on "
                    f"{block.device.name} without a live allocation")
        for dev in self.topology.devices:
            used = per_device.get(dev.name, 0)
            if used > dev.allocator.used:
                raise BlockStateError(
                    f"registry accounts {used}B on {dev.name} but allocator "
                    f"says only {dev.allocator.used}B are in use")
