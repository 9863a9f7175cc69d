"""Records BENCH_defended_hammer.json: the bulk defense engine speedup.

Runs the ``defended_hammer`` harness scenario -- ``HammerDriver``
double-sided TRH-burst campaigns against templated victim bits -- once
per defense on the scalar reference engine (``engine="scalar"``: one
Python ``execute()``, one ``on_activate`` dispatch, one
``RequestResult`` per activation) and once on the bulk engine
(``engine="bulk"``: run-length requests, defense-planned chunks,
summary-mode accounting), and records the per-defense wall-clocks.
A bulk campaign lasts only 1-26 ms, too short to time on its own, so
each cell times batches of campaigns lasting at least ``SAMPLE_S`` and
records the median per-campaign time over ``--repeats`` such samples;
the speedup is the median of the samples' scalar/bulk ratios.

Both engines must produce **identical scenario payloads** (same flip
outcomes, issued/blocked tallies, memory stats bit-for-bit, same
mitigation accounting); the recorder refuses to write an artifact
otherwise.  The ``DRAM-Locker`` cell exercises the blocked-run summary
path; ``None`` is the undefended baseline.

Run with:  python benchmarks/bench_defended_hammer.py [--trh N]
"""

import argparse
import json
import math
import os
import statistics
import time

from repro.eval import Scale
from repro.eval.harness import DEFENDED_HAMMER_DEFENSES, run_scenario, Scenario
from repro.eval.regression import DEFENDED_HAMMER_SCHEMA, host_meta

ARTIFACT = "BENCH_defended_hammer.json"

#: Defense cells measured per engine, in recorded order.
DEFENSES = (
    "None",
    "TRR",
    "PARA",
    "Graphene",
    "Hydra",
    "Counter/Row",
    "CounterTree",
    "TWiCE",
    "SHADOW",
    "RRS",
    "DRAM-Locker",
)

#: The acceptance families: each must clear this bulk-engine speedup.
TARGET_FAMILIES = ("TRR", "PARA", "Graphene", "Hydra", "Counter/Row")
TARGET_SPEEDUP = 3.0

#: Minimum wall-clock of one timed batch of campaigns.
SAMPLE_S = 0.1


def _cell_name(defense: str) -> str:
    return defense.lower().replace("/", "-")


class _Campaigns:
    """One defense cell's campaign on one engine, timed in batches of
    at least ``SAMPLE_S``.  Every campaign's payload must be identical
    (campaigns are deterministic), which doubles as a reproducibility
    check."""

    def __init__(self, defense: str, engine: str, trh: int):
        self.scenario = Scenario(
            f"defended-{_cell_name(defense)}-{engine}",
            "defended_hammer",
            Scale.quick(),
            seed=0,
            params=(("defense", defense), ("trh", trh), ("engine", engine)),
        )
        self.payload = None
        self.batch = math.ceil(SAMPLE_S / self._run())

    def _run(self) -> float:
        result = run_scenario(self.scenario)
        if not result.ok:
            raise SystemExit(f"{self.scenario.name} failed:\n{result.error}")
        if self.payload is not None and result.payload != self.payload:
            raise SystemExit(
                f"{self.scenario.name}: nondeterministic payload across "
                "repeats; refusing to record"
            )
        self.payload = result.payload
        return result.wall_clock_s

    def sample(self) -> float:
        """Per-campaign wall-clock of one timed batch."""
        return sum(self._run() for _ in range(self.batch)) / self.batch


def _strip_engine(payload: dict) -> dict:
    """Engine-independent view of a payload for the equivalence check."""
    return {key: value for key, value in payload.items() if key != "engine"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trh", type=int, default=3000,
                        help="RowHammer threshold of the benched device")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed batches per cell (the median is recorded)")
    parser.add_argument("--out", default=os.path.join("benchmarks", "artifacts"))
    args = parser.parse_args(argv)

    unknown = [d for d in DEFENSES if d not in DEFENDED_HAMMER_DEFENSES]
    if unknown:
        raise SystemExit(f"unknown defense cells: {unknown}")

    started = time.perf_counter()
    defenses = {}
    for defense in DEFENSES:
        scalar = _Campaigns(defense, "scalar", args.trh)
        bulk = _Campaigns(defense, "bulk", args.trh)
        # Alternate the engines' batches so a change in host load hits
        # both sides of a sample's ratio alike.
        samples = [(scalar.sample(), bulk.sample()) for _ in range(args.repeats)]
        scalar_s = statistics.median(s for s, _ in samples)
        bulk_s = statistics.median(b for _, b in samples)
        bulk_payload = bulk.payload
        identical = _strip_engine(scalar.payload) == _strip_engine(bulk_payload)
        cell = {
            "scalar_s": round(scalar_s, 4),
            "bulk_s": round(bulk_s, 4),
            "speedup": round(statistics.median(s / b for s, b in samples), 2),
            "results_identical": identical,
            "flipped": bulk_payload["protected_bits_flipped"],
            "blocked": sum(o["blocked"] for o in bulk_payload["outcomes"]),
        }
        defenses[_cell_name(defense)] = cell
        print(
            f"{defense:12s} scalar {scalar_s * 1e3:8.1f}ms  "
            f"bulk {bulk_s * 1e3:8.1f}ms  ({cell['speedup']:5.2f}x)  "
            f"identical={identical}"
        )
        if not identical:
            raise SystemExit(
                f"{defense}: bulk engine diverged from the scalar "
                "reference; refusing to record"
            )

    document = {
        "schema": DEFENDED_HAMMER_SCHEMA,
        "meta": host_meta(),
        "trh": args.trh,
        "repeats": args.repeats,
        "defenses": defenses,
        "timing": {"total_s": round(time.perf_counter() - started, 3)},
    }
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, ARTIFACT)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"artifact: {path}")

    slow = {
        family: defenses[_cell_name(family)]["speedup"]
        for family in TARGET_FAMILIES
        if defenses[_cell_name(family)]["speedup"] < TARGET_SPEEDUP
    }
    if slow:
        raise SystemExit(
            f"defended-hammer speedups below the {TARGET_SPEEDUP}x "
            f"target: {slow}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
