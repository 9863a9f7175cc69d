"""Bit-identity digests of the DRAM side, for comparing two source trees.

The DRAM-side twin of ``nn_digest.py``.  Prints one line each:

* ``hammer/<defense>`` -- the sha256 of the ``defended_hammer``
  scenario payload (bulk engine, TRH 3000, 16 victims) for every
  defense cell of ``DEFENDED_HAMMER_DEFENSES``: the cells of the
  ``hammer-defenses`` ledger workload;
* ``serve/seed=<s>`` -- the sha256 of the 16-channel DRAM-Locker
  serving payload (co-located attacker, bulk engine, 240 slices) at
  seeds 0, 2 and 7919: the ``serve-locker-ch16`` ledger workload's
  cell.

Payloads are serialized as JSON with sorted keys (floats print their
shortest round-trip repr, so equal digests mean equal bits).  A change
to the controller, a defense, the locker or the DRAM model keeps a cell
byte-identical exactly when both trees print the same line for it::

    PYTHONPATH=src python benchmarks/dram_digest.py
"""

import hashlib
import json

from repro.defenses.builders import DEFENDED_HAMMER_DEFENSES
from repro.eval import Scale
from repro.eval.harness import Scenario, run_scenario
from repro.serving import ServingConfig, run_serving

SERVE_SEEDS = (0, 2, 7919)


def payload_digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> None:
    for defense in sorted(DEFENDED_HAMMER_DEFENSES):
        result = run_scenario(
            Scenario(
                f"digest-{defense}",
                "defended_hammer",
                Scale.quick(),
                seed=0,
                params=(
                    ("defense", defense),
                    ("engine", "bulk"),
                    ("trh", 3000),
                    ("victims", 16),
                ),
            )
        )
        if not result.ok:
            raise RuntimeError(f"{defense}: {result.error}")
        print(f"hammer/{defense} {payload_digest(result.payload)}", flush=True)
    for seed in SERVE_SEEDS:
        payload = run_serving(
            ServingConfig(channels=16, slices=240, engine="bulk", seed=seed)
        )
        print(f"serve/seed={seed} {payload_digest(payload)}", flush=True)


if __name__ == "__main__":
    main()
