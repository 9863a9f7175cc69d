"""Streaming victim-health monitoring for the serving engine.

A :class:`VictimHealthMonitor` rides a :class:`~repro.serving.engine.
ServingSimulation` that carries a model victim: at slice boundaries it
runs periodic **accuracy probes** on the resident model (pulling the
weight bytes out of DRAM through any permuting defense's translation),
and on detected corruption it

* **quarantines** the victim's channel for ``quarantine_slices`` full
  slices -- tenant ops, owner guard reads, and attacker bursts bound
  for the channel are shed with per-tenant reason ``"integrity_fault"``
  through the same books as the PR-8 ``ChannelFault`` sheds, so the
  ``offered == served + shed`` conservation identity keeps holding;
* **recovers** the model: a bound RADAR instance handles in-DRAM
  repair itself (:meth:`~repro.defenses.radar.Radar.scrub_now`), and
  whatever accuracy loss survives -- zero-out fallback, an undefended
  cell -- is rolled back from the monitor's golden tensor snapshot and
  written back to DRAM.

Deterministic **chaos injection** (``inject_at``) flips bits in weight
rows at slice boundaries -- the bake-off's chaos cell uses it to
measure detection latency and post-recovery accuracy.  Every decision
keys off slice indices and device clocks, never wall time, so the
health section of the payload is bit-identical across the scalar and
bulk engines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs

__all__ = ["HealthConfig", "VictimHealthMonitor"]


@dataclass(frozen=True)
class HealthConfig:
    """Victim-health monitoring knobs for one serving cell."""

    #: Accuracy probes run at the boundary closing every
    #: ``probe_interval``-th slice (and whenever an injected corruption
    #: is still undetected).
    probe_interval: int = 4
    #: Accuracy drop (percentage points vs the clean baseline) treated
    #: as corruption.  ``0.0`` flags any measurable degradation.
    accuracy_tolerance: float = 0.0
    #: Full slices the victim's channel stays quarantined after a
    #: detection (``0`` recovers without quarantine).
    quarantine_slices: int = 1
    #: Chaos injection: slice boundaries at which weight rows are
    #: corrupted (empty: no injection).
    inject_at: tuple[int, ...] = ()
    #: Weight rows flipped per injection, spread across the victim's
    #: row range so distinct checksum groups are hit.
    inject_rows: int = 2
    #: The bit toggled in each corrupted row.
    inject_bit: int = 5

    def __post_init__(self) -> None:
        if self.probe_interval < 1:
            raise ValueError("probe_interval must be >= 1")
        if self.quarantine_slices < 0:
            raise ValueError("quarantine_slices must be >= 0")
        if self.inject_rows < 1:
            raise ValueError("inject_rows must be >= 1")


class VictimHealthMonitor:
    """Probe / quarantine / recover loop over one simulation's victim."""

    def __init__(self, sim, config: HealthConfig):
        if sim.store is None:
            raise ValueError(
                "the health monitor needs a model victim "
                "(ServingSimulation(model_victim=...))"
            )
        self.sim = sim
        self.config = config
        self.channel = sim.system.locate(sim.victim_rows[0])[0].index
        # The golden snapshot: quantized payload bytes per tensor,
        # taken at victim-load time (before any traffic runs).
        self._golden = {
            name: bytes(tensor.to_bytes())
            for name, tensor in sim.qmodel.tensors.items()
        }
        self.quarantined_channels: set[int] = set()
        self._quarantine_remaining = 0
        self._seen_radar_detections = 0
        self.probes = 0
        self.detections = 0
        self.recoveries = 0
        self.golden_restores = 0
        self.quarantines = 0
        self.injections: list[dict] = []
        self.last_probe_accuracy: float | None = None
        self.post_recovery_accuracy: float | None = None

    # ------------------------------------------------------------------
    # Wiring the sheds
    # ------------------------------------------------------------------
    def blocks(self, channel_indices) -> bool:
        """Whether any of the given channels is under quarantine."""
        if not self.quarantined_channels:
            return False
        return any(
            index in self.quarantined_channels for index in channel_indices
        )

    def _defense(self):
        return self.sim.system.channels[self.channel].defense

    def _radar(self):
        defense = self._defense()
        return defense if hasattr(defense, "scrub_now") else None

    # ------------------------------------------------------------------
    # The slice-boundary hook
    # ------------------------------------------------------------------
    def on_slice_end(self, slice_index: int) -> None:
        """Run after the slice's traffic has fully drained."""
        if self._quarantine_remaining > 0:
            self._quarantine_remaining -= 1
            if self._quarantine_remaining == 0:
                self.quarantined_channels.clear()
        if slice_index in self.config.inject_at:
            self._inject(slice_index)
        due = (slice_index + 1) % self.config.probe_interval == 0
        pending = any(
            entry["detected_slice"] is None for entry in self.injections
        )
        if due or pending:
            self._probe(slice_index)

    def _inject(self, slice_index: int) -> None:
        """Chaos: flip one bit in ``inject_rows`` weight rows, spread
        across the row range so distinct checksum groups are hit."""
        device = self.sim.system.channels[self.channel].device
        data_rows = self.sim.store.data_rows
        count = min(self.config.inject_rows, len(data_rows))
        stride = max(1, len(data_rows) // count)
        rows = [int(data_rows[i * stride]) for i in range(count)]
        for row in rows:
            device.flip_bit(row, self.config.inject_bit)
        radar = self._radar()
        self.injections.append(
            {
                "slice": slice_index,
                "rows": rows,
                "now_ns": device.now_ns,
                "detected_slice": None,
                "detection_latency_ns": None,
                "via": None,
                "_log_mark": 0
                if radar is None
                else len(radar.detection_log),
            }
        )

    def _probe(self, slice_index: int) -> None:
        sim = self.sim
        radar = self._radar()
        # RADAR detections that happened in-stream since the last probe
        # (read-path checks and scheduled scrubs), before this probe's
        # own out-of-band scrub runs.
        in_stream = (
            0
            if radar is None
            else radar.corruptions_detected - self._seen_radar_detections
        )
        scrub_found = 0 if radar is None else radar.scrub_now()
        # The store's persistent row_source (set at victim load) routes
        # this read through any permuting defense's translation.
        sim.store.sync_model(force=True)
        accuracy = sim.qmodel.model.accuracy(
            sim.dataset.test_x, sim.dataset.test_y
        )
        self.probes += 1
        degraded = (
            accuracy
            < sim.clean_accuracy - self.config.accuracy_tolerance
        )
        event = degraded or in_stream > 0 or scrub_found > 0
        tel = obs.ACTIVE
        if tel is not None:
            tel.metrics.inc(
                "serving.health.probes",
                outcome="detection" if event else "clean",
            )
        if event:
            self.detections += 1
            if tel is not None:
                tel.metrics.inc("serving.health.detections")
            if degraded:
                # Whatever RADAR could not restore exactly (zero-out
                # fallback, or no RADAR at all) rolls back from the
                # golden tensor snapshot.
                self._restore_golden()
                accuracy = sim.qmodel.model.accuracy(
                    sim.dataset.test_x, sim.dataset.test_y
                )
            self.recoveries += 1
            if tel is not None:
                tel.metrics.inc("serving.health.recoveries")
            self.post_recovery_accuracy = accuracy
            self._begin_quarantine()
            self._resolve_injections(slice_index, radar)
        self.last_probe_accuracy = accuracy
        if radar is not None:
            self._seen_radar_detections = radar.corruptions_detected

    def _restore_golden(self) -> None:
        sim = self.sim
        for name, tensor in sim.qmodel.tensors.items():
            tensor.from_bytes(
                np.frombuffer(self._golden[name], dtype=np.uint8)
            )
        sim.qmodel.load_into_model()
        sim.store.write_back()
        radar = self._radar()
        if radar is not None:
            # The rewrite happened behind RADAR's back: re-snapshot the
            # digests so the restored bytes are the new ground truth.
            radar.refresh_checksums()
        self.golden_restores += 1

    def _begin_quarantine(self) -> None:
        if self.config.quarantine_slices == 0:
            return
        if not self.quarantined_channels:
            self.quarantines += 1
            tel = obs.ACTIVE
            if tel is not None:
                tel.metrics.inc("serving.health.quarantines")
                tel.audit.emit(
                    "quarantine",
                    channel=self.channel,
                    slices=self.config.quarantine_slices,
                )
        self.quarantined_channels.add(self.channel)
        self._quarantine_remaining = self.config.quarantine_slices

    def _resolve_injections(self, slice_index: int, radar) -> None:
        for entry in self.injections:
            if entry["detected_slice"] is not None:
                continue
            entry["detected_slice"] = slice_index
            if radar is not None:
                fresh = radar.detection_log[entry["_log_mark"] :]
                if fresh:
                    entry["detection_latency_ns"] = (
                        fresh[0]["now_ns"] - entry["now_ns"]
                    )
                    entry["via"] = fresh[0]["via"]
            if entry["via"] is None:
                entry["via"] = "accuracy-probe"

    # ------------------------------------------------------------------
    # Payload
    # ------------------------------------------------------------------
    def report(self) -> dict:
        detected = sum(
            1
            for entry in self.injections
            if entry["detected_slice"] is not None
        )
        result = {
            "channel": self.channel,
            "probe_interval": self.config.probe_interval,
            "quarantine_slices": self.config.quarantine_slices,
            "probes": self.probes,
            "detections": self.detections,
            "recoveries": self.recoveries,
            "golden_restores": self.golden_restores,
            "quarantines": self.quarantines,
            "injected_corruptions": len(self.injections),
            "injections_detected": detected,
            "all_injections_detected": detected == len(self.injections),
            "injections": [
                {
                    key: value
                    for key, value in entry.items()
                    if not key.startswith("_")
                }
                for entry in self.injections
            ],
            "clean_accuracy": self.sim.clean_accuracy,
            "last_probe_accuracy": self.last_probe_accuracy,
            "post_recovery_accuracy": self.post_recovery_accuracy,
        }
        radar = self._radar()
        if radar is not None:
            result["radar"] = {
                "corruptions_detected": radar.corruptions_detected,
                "rows_restored": radar.rows_restored,
                "rows_zeroed": radar.rows_zeroed,
                "scrubs": radar.scrubs,
                "read_checks": radar.read_checks,
            }
        return result
