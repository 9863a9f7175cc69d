"""The DRAM device model.

The device exposes two planes:

* a **command plane** (``activate`` / ``precharge`` / ``read_burst`` /
  ``write_burst`` / ``rowclone`` / ``advance``) that costs energy,
  advances RowHammer counters and can trigger disturbance bit-flips;
  the batched twins ``read_burst_run`` / ``write_burst_run`` account a
  whole run of same-row bursts in one call (used by
  :meth:`repro.controller.MemoryController.execute_batch`) with
  bit-identical stats;
* a **data plane** (``peek_*`` / ``poke_*``) that reads or writes stored
  bytes with no simulated cost -- used to load initial contents (e.g.
  DNN weights) and to observe ground truth in experiments.

Attacks and workloads must go through the command plane (normally via
:class:`repro.controller.MemoryController`) so that protection effects
are emergent rather than scripted.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .address import AddressMapper
from .config import DRAMConfig
from .energy import DDR4_ENERGY, EnergyParams
from .refresh import RefreshEngine
from .rowhammer import BitFlip, Disturbance, RowHammerModel
from .stats import MemoryStats, walk_add_many
from .subarray import Bank, Subarray
from .timing import DDR4_2400, TimingParams
from .vulnerability import VulnerabilityMap

__all__ = ["DRAMDevice"]

FlipListener = Callable[[BitFlip], None]


class DRAMDevice:
    """One simulated DRAM memory system."""

    def __init__(
        self,
        config: DRAMConfig,
        timing: TimingParams = DDR4_2400,
        energy: EnergyParams = DDR4_ENERGY,
        vulnerability: VulnerabilityMap | None = None,
        trh: int | None = None,
        half_double_factor: float | None = None,
    ):
        self.config = config
        self.timing = timing if trh is None else timing.with_trh(trh)
        self.energy = energy
        self.mapper = AddressMapper(config)
        self.banks = [Bank(config) for _ in range(config.banks)]
        self.vulnerability = vulnerability or VulnerabilityMap(config)
        self.rowhammer = RowHammerModel(
            config,
            self.mapper,
            self.vulnerability,
            trh=self.timing.trh,
            half_double_factor=half_double_factor,
        )
        self.stats = MemoryStats()
        self.refresh = RefreshEngine(self)
        self.now_ns = 0.0
        self._flip_listeners: list[FlipListener] = []

    # ------------------------------------------------------------------
    # Location helpers
    # ------------------------------------------------------------------
    def locate(self, row_index: int) -> tuple[Bank, Subarray, int]:
        """Resolve a global row index to bank, subarray and local row."""
        addr = self.mapper.row_address(row_index)
        bank = self.banks[addr.bank]
        subarray = bank.subarrays[addr.subarray]
        return bank, subarray, addr.row

    # ------------------------------------------------------------------
    # Clock & refresh
    # ------------------------------------------------------------------
    def advance(self, elapsed_ns: float) -> None:
        """Advance simulated time; runs refresh and background energy."""
        if elapsed_ns < 0:
            raise ValueError("time cannot run backwards")
        self.now_ns += elapsed_ns
        self.stats.energy.background += self.energy.background_nj(elapsed_ns)
        self.refresh.tick(self.now_ns)

    # ------------------------------------------------------------------
    # Command plane
    # ------------------------------------------------------------------
    def activate(self, row_index: int, bank: int | None = None) -> list[BitFlip]:
        """ACT one row: latch it, hammer-account it, apply disturbances.

        ``bank`` is the row's bank index, for callers that have already
        decoded the row address."""
        if bank is None:
            bank = self.mapper.row_address(row_index).bank
        self.banks[bank].open_row = row_index
        self.stats.activates += 1
        self.stats.energy.activate += self.energy.e_act
        events = self.rowhammer.on_activate(row_index, self.now_ns)
        return self._apply_disturbances(events)

    def precharge(self, bank_index: int) -> None:
        """PRE one bank: close its open row."""
        bank = self.banks[bank_index]
        bank.open_row = None
        self.stats.precharges += 1
        self.stats.energy.precharge += self.energy.e_pre

    def read_burst(self, row_index: int, column: int) -> np.ndarray:
        """Transfer one 64-byte burst from the open row to the channel."""
        self._require_open(row_index)
        self.stats.reads += 1
        self.stats.energy.read += self.energy.e_rd_burst
        self.stats.energy.io += self.energy.e_io_burst
        return self.peek_bytes(row_index, column, 64)

    def write_burst(self, row_index: int, column: int, data: np.ndarray) -> None:
        """Transfer one 64-byte burst from the channel into the open row."""
        self._require_open(row_index)
        self.stats.writes += 1
        self.stats.energy.write += self.energy.e_wr_burst
        self.stats.energy.io += self.energy.e_io_burst
        self.poke_bytes(row_index, column, data)

    def read_burst_run(
        self, row_index: int, column: int, bursts: int, bank: int | None = None
    ) -> None:
        """Serve ``bursts`` back-to-back 64-byte read bursts of one open row.

        Accounting-equivalent to ``bursts`` :meth:`read_burst` calls over
        the controller's clamped column walk (one ACT serving N column
        reads), without materialising the per-burst copies nobody
        consumes.  Energy is accumulated burst-by-burst so the totals are
        bit-identical to the scalar loop.  ``bank`` as for
        :meth:`activate`.
        """
        cap = self.config.row_bytes - 64
        if min(column, cap) < 0:
            raise ValueError("byte range does not fit in the row")
        self._require_open(row_index, bank)
        stats = self.stats
        stats.reads += bursts
        breakdown = stats.energy
        breakdown.read, breakdown.io = walk_add_many(
            (breakdown.read, breakdown.io),
            (self.energy.e_rd_burst, self.energy.e_io_burst),
            bursts,
        )

    def write_burst_run(
        self,
        row_index: int,
        column: int,
        bursts: int,
        data: np.ndarray,
        bank: int | None = None,
    ) -> None:
        """Store the same 64-byte ``data`` burst at ``bursts`` consecutive
        (clamped) column offsets of one open row -- the bulk twin of
        :meth:`write_burst`, with bit-identical stats and stored bytes.
        ``bank`` as for :meth:`activate`."""
        data = np.asarray(data, dtype=np.uint8).ravel()
        cap = self.config.row_bytes - data.size
        if min(column, cap) < 0:
            raise ValueError("byte range does not fit in the row")
        self._require_open(row_index, bank)
        stats = self.stats
        stats.writes += bursts
        breakdown = stats.energy
        breakdown.write, breakdown.io = walk_add_many(
            (breakdown.write, breakdown.io),
            (self.energy.e_wr_burst, self.energy.e_io_burst),
            bursts,
        )
        row = self.peek_row(row_index, copy=False)
        for burst in range(bursts):
            start = min(column + burst * 64, cap)
            row[start : start + data.size] = data

    def rowclone(self, src_index: int, dst_index: int) -> list[BitFlip]:
        """Intra-subarray RowClone FPM copy (ACT src, ACT dst, PRE).

        Both activations are RowHammer-accounted: defenses that copy
        rows (SHADOW, RRS, DRAM-Locker's SWAP) hammer the array too.
        """
        src = self.mapper.row_address(src_index)
        dst = self.mapper.row_address(dst_index)
        if src[:2] != dst[:2]:
            raise ValueError(
                "RowClone FPM requires source and destination in one subarray"
            )
        if src_index == dst_index:
            raise ValueError("RowClone source and destination must differ")
        flips = self.activate(src_index, src.bank)
        flips += self.activate(dst_index, src.bank)
        subarray = self.banks[src.bank].subarrays[src.subarray]
        subarray.copy_row(src.row, dst.row)
        self.precharge(src.bank)
        self.stats.rowclones += 1
        # ACT/PRE energy was charged by the primitives above; add the
        # residual restore energy so one clone totals rowclone_copy_nj.
        residual = self.energy.rowclone_copy_nj() - 2 * self.energy.e_act - self.energy.e_pre
        self.stats.energy.rowclone += max(0.0, residual)
        return flips

    # ------------------------------------------------------------------
    # Data plane (no simulated cost)
    # ------------------------------------------------------------------
    def peek_row(self, row_index: int, copy: bool = True) -> np.ndarray:
        _, subarray, local = self.locate(row_index)
        return subarray.read_row(local, copy=copy)

    def poke_row(self, row_index: int, data: np.ndarray) -> None:
        _, subarray, local = self.locate(row_index)
        subarray.write_row(local, data)

    def peek_bytes(self, row_index: int, column: int, length: int) -> np.ndarray:
        if not 0 <= column <= self.config.row_bytes - length:
            raise ValueError("byte range does not fit in the row")
        row = self.peek_row(row_index, copy=False)
        return row[column : column + length].copy()

    def poke_bytes(self, row_index: int, column: int, data) -> None:
        data = np.asarray(data, dtype=np.uint8).ravel()
        if not 0 <= column <= self.config.row_bytes - data.size:
            raise ValueError("byte range does not fit in the row")
        row = self.peek_row(row_index, copy=False)
        row[column : column + data.size] = data

    def flip_bit(self, row_index: int, bit: int) -> None:
        """Directly toggle one stored bit (test/ground-truth helper)."""
        _, subarray, local = self.locate(row_index)
        subarray.flip_bits(local, [bit])

    # ------------------------------------------------------------------
    # Flip listeners
    # ------------------------------------------------------------------
    def add_flip_listener(self, listener: FlipListener) -> None:
        """Register a callback invoked for every disturbance bit-flip."""
        self._flip_listeners.append(listener)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _apply_disturbances(self, events: Iterable[Disturbance]) -> list[BitFlip]:
        applied: list[BitFlip] = []
        for event in events:
            if event.flips:
                self.stats.disturbances += 1
            for flip in event.flips:
                _, subarray, local = self.locate(flip.row)
                subarray.flip_bits(local, [flip.bit])
                self.stats.bit_flips += 1
                applied.append(flip)
                for listener in self._flip_listeners:
                    listener(flip)
        return applied

    def _require_open(self, row_index: int, bank: int | None = None) -> None:
        if bank is None:
            bank = self.mapper.row_address(row_index).bank
        if self.banks[bank].open_row != row_index:
            raise RuntimeError(
                f"row {row_index} is not open in bank {bank}; "
                "issue ACT first (the controller does this for you)"
            )
