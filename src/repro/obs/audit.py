"""The security audit stream: an ordered log of defense-relevant events.

Every event is one dict with a stable schema:

* ``kind`` -- the event family (``trh-crossing``, ``locker-block``,
  ``locker-exposure``, ``locker-swap-failed``, ``locker-restore-failed``,
  ``dnn-defender-swap``, ``radar-recovery``, ``quarantine``, ``shed``);
* ``seq`` -- position in the canonical order (assigned by
  :meth:`AuditStream.snapshot`);
* ``now_ns`` -- the *simulated* clock of the emitting device, when the
  event has one (never wall clock: the stream must be deterministic);
* context fields installed by the emitting layer: ``slice`` (serving
  slice index, via :meth:`set_field`) and ``channel`` (via
  :meth:`context` around channel batch execution);
* event-specific fields (``row``, ``count``, ``group``, ``mode``, ...).

**Canonical order.**  A serving slice interleaves channels: tenant
streams alternate between channels and the boundary traffic
(victim-owner reads, attacker bursts) runs after them, so the raw
arrival order mixes channels.  :meth:`snapshot` therefore orders
events canonically: a stable sort by ``(slice, channel)``, with
channel-less events (health probes, sheds, quarantines -- all emitted
at deterministic points of the slice loop) sorting after that slice's
channel events.  Within one ``(slice, channel)`` cell the arrival
order is kept; per-channel execution order is pinned identical across
the scalar and bulk engines by the engine-equivalence contract, so the
canonical snapshot is engine-invariant too --
``tests/test_telemetry_equivalence.py`` pins it.
"""

from __future__ import annotations

from contextlib import contextmanager

__all__ = ["AuditStream"]

#: Channel-less events sort after any real channel within their slice.
_NO_CHANNEL = 1 << 30


class AuditStream:
    """Ordered defense-event log with layered context fields."""

    def __init__(self) -> None:
        self.events: list[dict] = []
        self._context: dict = {}

    def emit(self, kind: str, now_ns: float | None = None, **fields) -> None:
        """Append one event, merging the active context fields."""
        event = {"kind": kind}
        if now_ns is not None:
            event["now_ns"] = int(now_ns)
        event.update(self._context)
        event.update(fields)
        self.events.append(event)

    def set_field(self, key: str, value) -> None:
        """Install a persistent context field (e.g. the serving slice)."""
        self._context[key] = value

    @contextmanager
    def context(self, **fields):
        """Scoped context fields (e.g. ``channel=`` around a batch)."""
        saved = {key: self._context.get(key, _MISSING) for key in fields}
        self._context.update(fields)
        try:
            yield
        finally:
            for key, value in saved.items():
                if value is _MISSING:
                    self._context.pop(key, None)
                else:
                    self._context[key] = value

    def __len__(self) -> int:
        return len(self.events)

    def snapshot(self) -> list[dict]:
        """The canonical, engine-invariant event order (see module
        docstring), with ``seq`` assigned to the canonical position."""
        ordered = sorted(
            self.events,
            key=lambda event: (
                event.get("slice", -1),
                event.get("channel", _NO_CHANNEL),
            ),
        )
        return [
            {**event, "seq": seq} for seq, event in enumerate(ordered)
        ]

    def kind_counts(self) -> dict[str, int]:
        """Event tallies by ``kind`` (sorted; order-insensitive)."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event["kind"]] = counts.get(event["kind"], 0) + 1
        return dict(sorted(counts.items()))


class _Missing:
    __slots__ = ()


_MISSING = _Missing()
