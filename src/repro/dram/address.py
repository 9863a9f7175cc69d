"""Physical address mapping.

Rows are identified two ways throughout the code base:

* a :class:`RowAddress` triple ``(bank, subarray, row)`` used by the
  device model, and
* a flat *global row index* in ``[0, config.total_rows)`` used by the
  RowHammer counters, the lock-table, and the defenses.

:class:`AddressMapper` converts between the two, and between full byte
addresses and ``(row, column)`` pairs.  The mapping is row-interleaved
(bank index in the low bits of the row number) like a real controller,
so consecutive rows of one subarray are *physically adjacent* -- which
is exactly the adjacency the RowHammer model disturbs.

Above the per-channel mapper sits :class:`ChannelInterleaver`, the
policy layer of the multi-channel serving system: it spreads a flat
*system row* space ``[0, config.system_rows)`` over
``config.channels`` independent channels, each of which then resolves
its local row through its own :class:`AddressMapper`.  Adjacency (and
therefore RowHammer disturbance and DRAM-Locker's aggressors) is a
strictly per-channel notion; the interleaver only decides placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .config import DRAMConfig

__all__ = ["RowAddress", "ByteAddress", "AddressMapper", "ChannelInterleaver"]


class RowAddress(NamedTuple):
    """Hierarchical address of one DRAM row."""

    bank: int
    subarray: int
    row: int


@dataclass(frozen=True)
class ByteAddress:
    """A fully-resolved physical byte location."""

    row: RowAddress
    column: int


class AddressMapper:
    """Bidirectional address translation bound to one :class:`DRAMConfig`."""

    def __init__(self, config: DRAMConfig):
        self.config = config
        # The geometry as plain ints: the config derives most of these
        # in properties, which the decode paths would pay per call.
        self.banks = config.banks
        self.subarrays_per_bank = config.subarrays_per_bank
        self.rows_per_subarray = config.rows_per_subarray
        self.rows_per_bank = config.rows_per_bank
        self.total_rows = config.total_rows

    # ------------------------------------------------------------------
    # Row index <-> RowAddress
    # ------------------------------------------------------------------
    def row_index(self, addr: RowAddress | tuple[int, int, int]) -> int:
        """Flatten a row address to a global row index."""
        if not isinstance(addr, RowAddress):
            addr = RowAddress(*addr)
        self._check(addr)
        return (
            addr.bank * self.rows_per_bank
            + addr.subarray * self.rows_per_subarray
            + addr.row
        )

    def row_address(self, index: int) -> RowAddress:
        """Expand a global row index back to ``(bank, subarray, row)``."""
        if not 0 <= index < self.total_rows:
            raise ValueError(f"row index {index} out of range")
        bank, rest = divmod(index, self.rows_per_bank)
        subarray, row = divmod(rest, self.rows_per_subarray)
        return RowAddress(bank, subarray, row)

    # ------------------------------------------------------------------
    # Byte address <-> (row, column)
    # ------------------------------------------------------------------
    def byte_address(self, physical: int) -> ByteAddress:
        """Resolve a flat physical byte address."""
        cfg = self.config
        if not 0 <= physical < cfg.capacity_bytes:
            raise ValueError(f"physical address {physical:#x} out of range")
        row_index, column = divmod(physical, cfg.row_bytes)
        return ByteAddress(self.row_address(row_index), column)

    def physical(self, addr: ByteAddress) -> int:
        """Flatten a :class:`ByteAddress` to a physical byte address."""
        if not 0 <= addr.column < self.config.row_bytes:
            raise ValueError(f"column {addr.column} out of range")
        return self.row_index(addr.row) * self.config.row_bytes + addr.column

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def neighbors(self, index: int, radius: int = 1) -> list[int]:
        """Global indices of rows physically adjacent to ``index``.

        Adjacency never crosses a subarray boundary: the sense-amplifier
        stripes between subarrays isolate the disturbance, which is also
        why RowClone FPM and SHADOW shuffling are intra-subarray.
        """
        if radius < 1:
            raise ValueError("radius must be >= 1")
        if not 0 <= index < self.total_rows:
            raise ValueError(f"row index {index} out of range")
        # A subarray's rows are contiguous global indices, so only the
        # row's offset inside its subarray matters.
        local = index % self.rows_per_subarray
        return [
            index + offset
            for offset in range(-radius, radius + 1)
            if offset and 0 <= local + offset < self.rows_per_subarray
        ]

    def aggressors_of(self, victims: Iterable[int], radius: int = 1) -> set[int]:
        """Rows that could disturb any of ``victims`` when hammered.

        This is the set DRAM-Locker's protection planner locks: every row
        within ``radius`` of a protected row, excluding the protected
        rows themselves (the paper deliberately leaves hot data unlocked
        so normal execution needs no unlock).
        """
        victim_set = set(victims)
        aggressors: set[int] = set()
        for victim in victim_set:
            aggressors.update(self.neighbors(victim, radius=radius))
        return aggressors - victim_set

    def same_subarray(self, a: int, b: int) -> bool:
        """True when two global rows live in the same subarray."""
        addr_a = self.row_address(a)
        addr_b = self.row_address(b)
        return (addr_a.bank, addr_a.subarray) == (addr_b.bank, addr_b.subarray)

    def reserved_rows(self, bank: int, subarray: int) -> list[int]:
        """Global indices of the reserved swap-pool rows of one subarray."""
        first = self.config.usable_rows_per_subarray
        return [
            self.row_index(RowAddress(bank, subarray, local))
            for local in range(first, self.rows_per_subarray)
        ]

    def _check(self, addr: RowAddress) -> None:
        if not 0 <= addr.bank < self.banks:
            raise ValueError(f"bank {addr.bank} out of range")
        if not 0 <= addr.subarray < self.subarrays_per_bank:
            raise ValueError(f"subarray {addr.subarray} out of range")
        if not 0 <= addr.row < self.rows_per_subarray:
            raise ValueError(f"row {addr.row} out of range")


class ChannelInterleaver:
    """System-row placement across the channels of one memory system.

    Policies:

    * ``"row"`` (default) -- consecutive system rows round-robin across
      channels (``channel = row % channels``), so any contiguous
      workload -- a tenant partition, a weight-streaming sweep --
      spreads evenly and aggregate throughput scales with the channel
      count;
    * ``"block"`` -- contiguous blocks (``channel = row //
      rows_per_channel``), the isolation placement: one tenant's
      contiguous partition lives entirely on one channel.

    With ``channels == 1`` both policies are the identity, which is the
    equivalence :class:`~repro.serving.ShardedMemorySystem` leans on:
    a single-channel sharded system is observationally identical to a
    bare :class:`~repro.controller.MemoryController`.
    """

    POLICIES = ("row", "block")

    def __init__(self, config: DRAMConfig, policy: str = "row"):
        if policy not in self.POLICIES:
            raise ValueError(
                f"unknown interleaving policy {policy!r}; "
                f"choose from {self.POLICIES}"
            )
        self.config = config
        self.policy = policy
        self.channels = config.channels
        self.rows_per_channel = config.total_rows
        self.system_rows = config.system_rows

    def locate(self, system_row: int) -> tuple[int, int]:
        """Resolve a system row to ``(channel, per-channel row)``."""
        if not 0 <= system_row < self.system_rows:
            raise ValueError(f"system row {system_row} out of range")
        if self.policy == "row":
            return (
                system_row % self.channels,
                system_row // self.channels,
            )
        return divmod(system_row, self.rows_per_channel)

    def channel_of(self, system_row: int) -> int:
        """The channel serving one system row."""
        return self.locate(system_row)[0]

    def system_row(self, channel: int, local_row: int) -> int:
        """Inverse of :meth:`locate`."""
        if not 0 <= channel < self.channels:
            raise ValueError(f"channel {channel} out of range")
        if not 0 <= local_row < self.rows_per_channel:
            raise ValueError(f"local row {local_row} out of range")
        if self.policy == "row":
            return local_row * self.channels + channel
        return channel * self.rows_per_channel + local_row
