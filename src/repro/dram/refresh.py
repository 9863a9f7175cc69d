"""Auto-refresh engine.

Real DDR4 issues one REF every tREFI; 8192 REFs cover the device in one
64 ms window.  Here each REF refreshes an equal slice of the global row
space in index order and resets the RowHammer counters of the refreshed
rows -- which is exactly the interaction the attacks race against.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .stats import walk_add, walk_reach

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .device import DRAMDevice

__all__ = ["RefreshEngine"]


class RefreshEngine:
    """Walks the row space, one slice per tREFI."""

    def __init__(self, device: "DRAMDevice"):
        self.device = device
        timing = device.timing
        self.refs_per_window = max(1, round(timing.tref_w / timing.trefi))
        self.rows_per_ref = math.ceil(device.config.total_rows / self.refs_per_window)
        self.cursor = 0
        self.next_ref_ns = timing.trefi
        self.windows_completed = 0

    def tick(self, now_ns: float) -> None:
        """Issue every REF that became due at or before ``now_ns``."""
        while now_ns >= self.next_ref_ns:
            self._refresh_slice()
            self.next_ref_ns += self.device.timing.trefi

    def act_span(self, row: int, now_ns: float, step_ns: float, limit: int) -> int:
        """How many ``step_ns``-sized ACT steps of ``row`` one bulk
        chunk may take, at most ``limit``.

        A REF that refreshes another row and completes no window
        commutes with the chunk, so it may fall inside.  The chunk ends
        at -- and includes -- the step whose advance makes the first
        other REF due: the one that refreshes ``row`` or completes a
        window, which then fires after the chunk's last ACT just as on
        the scalar path.  Both walks replay the scalar float folds
        (``next_ref_ns += trefi``, ``now_ns += step_ns``) in closed
        form and stop within reach of the chunk's own length.
        """
        if limit <= 0:
            return 0
        trefi = self.device.timing.trefi
        rows = self.rows_per_ref
        if row >= self.cursor:
            stop = (row - self.cursor) // rows
        else:
            # ``row`` waits for the next window; the window-completing
            # REF comes first.
            stop = -(-(self.device.config.total_rows - self.cursor) // rows) - 1
        reach = now_ns + limit * step_ns
        refs = min(stop, max(0, int((reach - self.next_ref_ns) / trefi)) + 2)
        due = walk_add(self.next_ref_ns, trefi, refs)
        steps = min(limit, max(0, int((due - now_ns) / step_ns)) + 2)
        return walk_reach(now_ns, step_ns, steps, due)

    def _refresh_slice(self) -> None:
        device = self.device
        total = device.config.total_rows
        start = self.cursor
        end = min(start + self.rows_per_ref, total)
        device.rowhammer.reset_rows(start, end)
        device.stats.refreshes += 1
        device.stats.energy.refresh += device.energy.e_ref
        # REF requires all banks precharged.
        for bank in device.banks:
            bank.open_row = None
        if end >= total:
            self.cursor = 0
            self.windows_completed += 1
        else:
            self.cursor = end
