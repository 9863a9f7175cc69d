"""Aggressor-tracking data structures shared by the counter-based defenses."""

from __future__ import annotations

from .. import obs

__all__ = ["MisraGries"]


class MisraGries:
    """The Misra-Gries frequent-items summary (Graphene's count table).

    Maintains at most ``k`` counters.  The classical guarantee -- which
    the property tests verify -- is that for every item::

        true_count - N/(k+1) <= estimate(item) <= true_count

    where ``N`` is the total number of observations and ``true_count``
    counts the item's observations since its last :meth:`reset_item`
    (every counter is at least 1, so no dead entry holds a slot).
    Graphene relies on it to never *miss* a row that was activated more
    than the threshold.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.counters: dict[int, int] = {}
        self.decrements = 0
        self.observations = 0

    def observe(self, item: int) -> int:
        """Count one occurrence; return the item's current estimate."""
        self.observations += 1
        count = self.counters.get(item)
        if count is not None:
            self.counters[item] = count + 1
            return count + 1
        if len(self.counters) < self.k:
            self.counters[item] = 1
            return 1
        # Table full: decrement everybody (the item itself is absorbed).
        self.decrements += 1
        tel = obs.ACTIVE
        if tel is not None:
            tel.metrics.inc("defense.graphene.decrements")
        for key in list(self.counters):
            remaining = self.counters[key] - 1
            if remaining == 0:
                del self.counters[key]
            else:
                self.counters[key] = remaining
        return 0

    def estimate(self, item: int) -> int:
        return self.counters.get(item, 0)

    def quiet_span(self, item: int, ceiling: int) -> int:
        """Consecutive observations of a *tracked* ``item`` before its
        estimate reaches ``ceiling`` -- each a pure increment (no
        insertion, no decrement-all), so a bulk caller may absorb them
        via :meth:`absorb_run`.  0 when the item is untracked (the next
        observation inserts or decrements, which is stateful)."""
        count = self.counters.get(item)
        if count is None:
            return 0
        return max(0, ceiling - 1 - count)

    def absorb_run(self, item: int, count: int) -> None:
        """Closed-form commit of ``count`` increment-only observations
        of a tracked item (caller respects :meth:`quiet_span`)."""
        self.observations += count
        self.counters[item] += count

    def reset(self) -> None:
        self.counters.clear()
        self.decrements = 0
        self.observations = 0

    def reset_item(self, item: int) -> None:
        """Graphene resets a counter after mitigating its row.  A zero
        counter is a free Misra-Gries slot, so the entry goes."""
        self.counters.pop(item, None)
