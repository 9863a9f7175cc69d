"""Timed batches of ``defended_hammer`` campaigns, for the recorders.

A bulk-engine campaign lasts about a millisecond, too short to time on
its own: one run's wall-clock is mostly noise.  :class:`CampaignBatches`
times batches of campaigns lasting at least :data:`SAMPLE_S` instead
and reports the per-campaign time of each batch; the recorders
alternate the batches of the two sides they compare (scalar and bulk
engine, telemetry off and on) so a change in host load hits both
sides of a sample alike, and record medians over several samples.

Every campaign's payload must be identical (campaigns are
deterministic), which doubles as a reproducibility check.

Used by ``bench_defended_hammer.py`` and ``bench_obs.py``.
"""

import math

from repro import obs
from repro.eval import Scale
from repro.eval.harness import Scenario, run_scenario

#: Minimum wall-clock of one timed batch of campaigns.
SAMPLE_S = 0.1


def cell_name(defense: str) -> str:
    """The artifact key of a defense cell."""
    return defense.lower().replace("/", "-")


def hammer_scenario(tag: str, defense: str, engine: str, trh: int) -> Scenario:
    """The ``defended_hammer`` campaign of one (defense, engine) cell."""
    return Scenario(
        f"{tag}-{cell_name(defense)}-{engine}",
        "defended_hammer",
        Scale.quick(),
        seed=0,
        params=(("defense", defense), ("trh", trh), ("engine", engine)),
    )


class CampaignBatches:
    """One scenario's campaign, timed in batches of at least
    ``SAMPLE_S``, with telemetry disabled or enabled."""

    def __init__(self, scenario: Scenario, telemetry: bool = False):
        self.scenario = scenario
        self.telemetry = telemetry
        self.payload = None
        #: The last campaign's telemetry snapshot (``None`` when disabled).
        self.snapshot = None
        self.batch = math.ceil(SAMPLE_S / self._run())

    def _run(self) -> float:
        if self.telemetry:
            with obs.enabled_scope():
                result = run_scenario(self.scenario)
        else:
            result = run_scenario(self.scenario)
        if not result.ok:
            raise SystemExit(f"{self.scenario.name} failed:\n{result.error}")
        if self.payload is not None and result.payload != self.payload:
            raise SystemExit(
                f"{self.scenario.name}: nondeterministic payload across "
                "repeats; refusing to record"
            )
        self.payload = result.payload
        self.snapshot = result.telemetry
        return result.wall_clock_s

    def sample(self) -> float:
        """Per-campaign wall-clock of one timed batch."""
        return sum(self._run() for _ in range(self.batch)) / self.batch
