"""Records BENCH_serving_live.json: the live serving frontend.

Exercises the redesigned public serving API (``repro.serving.serve``)
end to end -- recorded traces, deterministic replay, admission
control, and the wall-clock-paced threaded server -- and records:

* **replay equivalence** -- an infinite-speedup replay of a recorded
  trace must be bit-identical to the closed-loop run of the same
  config outside the ``"live"`` payload section; any divergence
  refuses the artifact;
* **the overload triplet** -- the same solo workload re-recorded with
  its trace clock compressed ``OVERLOAD_FACTOR`` x (identical ops,
  arriving faster), replayed with no admission vs sojourn-pressure
  shedding vs a per-tenant token bucket: sojourn p99, shed counts, and
  SLA fingerprints are all deterministic simulated quantities the
  nightly live-serving gate (``GATES`` in ``repro.eval.regression``)
  holds to exact equality.  The
  recorder itself enforces that each admitted cell's sojourn p99 never
  exceeds the unadmitted one's and that pressure shedding lands within
  ``HOLD_SLACK`` x its target (probabilistic shedding converges to the
  target's neighbourhood, not strictly under it);
* **attack absorption under overload** -- the compressed co-located
  trace replayed under DRAM-Locker (with pressure admission) and
  undefended: the locker cell must report zero victim flip events
  while shedding load, else the artifact is refused; the undefended
  cell's flip count and the simulated-throughput absorption ratio are
  recorded alongside;
* **the live pacing smoke** -- the threaded open-loop server run at a
  speedup targeting sub-second wall clock; only the conservation
  identity (offered == served + shed) is gated, wall seconds are
  recorded for context and never compared.

Run with:  python benchmarks/bench_serving_live.py
"""

import argparse
import json
import os
import time
from dataclasses import replace

from repro.eval.regression import SERVING_LIVE_SCHEMA, host_meta, sla_fingerprint
from repro.serving import (
    AdmissionConfig,
    ServingConfig,
    ServingSimulation,
    record_serving_trace,
    replay_neutral,
    serve,
)

ARTIFACT = "BENCH_serving_live.json"

#: Arrival-compression factor for the overload cells: the base trace's
#: ops re-recorded into slices this many times shorter.
OVERLOAD_FACTOR = 2.0

#: Pressure/scaling sojourn target as a multiple of the uncompressed
#: baseline's sojourn p99.
P99_TARGET_FACTOR = 4.0

#: Pressure shedding must land within this factor of its target.
HOLD_SLACK = 2.0

#: Wall-clock budget the live smoke aims its speedup at.
LIVE_WALL_TARGET_S = 0.3


def _replay_cells() -> dict:
    """The replay-equivalence check on the bulk engine."""
    config = ServingConfig(channels=2, seed=0)
    trace = record_serving_trace(config)
    started = time.perf_counter()
    result = serve(config, trace=trace)
    replay_wall_s = time.perf_counter() - started
    started = time.perf_counter()
    closed = ServingSimulation(config).run()
    closed_wall_s = time.perf_counter() - started
    identical = replay_neutral(result.payload) == replay_neutral(closed)
    if not identical:
        raise SystemExit(
            "trace replay diverged from the closed loop; refusing to record"
        )
    name = f"{config.engine}-ch2"
    print(f"replay {name}: bit-identical over {len(trace)} ops "
          f"(replay {replay_wall_s * 1e3:.1f}ms, "
          f"closed {closed_wall_s * 1e3:.1f}ms)")
    return {
        name: {
            "engine": config.engine,
            "identical": identical,
            "ops": len(trace),
            "replay_wall_s": round(replay_wall_s, 4),
            "closed_wall_s": round(closed_wall_s, 4),
        }
    }


def _overload_cells() -> dict:
    """The solo overload triplet: open vs pressure vs token bucket."""
    base_config = ServingConfig(channels=1, colocated=False, seed=0)
    base_trace = record_serving_trace(base_config)
    base = serve(base_config, trace=base_trace)
    base_p99 = base.sojourn_p99_ns()
    target_ns = base_p99 * P99_TARGET_FACTOR
    hot_trace = record_serving_trace(
        base_config,
        slice_duration_s=base_trace.slice_duration_s / OVERLOAD_FACTOR,
    )
    base_rate = base_config.ops_per_slice / base_trace.slice_duration_s
    admissions = {
        "open": None,
        "pressure": AdmissionConfig(p99_target_ns=target_ns),
        "token": AdmissionConfig(rate=base_rate),
    }
    cells = {}
    for name, admission in admissions.items():
        config = replace(base_config, admission=admission)
        result = serve(config, trace=hot_trace)
        pacing = result.live["pacing"]
        p99 = result.sojourn_p99_ns()
        cell = {
            "sojourn_p99_ns": p99,
            "offered": pacing["offered"],
            "shed": result.shed_total,
            "shed_rate": round(result.shed_total / pacing["offered"], 4),
            "sla_fingerprint": sla_fingerprint(result.payload),
        }
        if admission is not None:
            cell["p99_target_ns"] = target_ns
            cell["holds_p99"] = p99 <= HOLD_SLACK * target_ns
        cells[name] = cell
        print(f"overload {name:8s}: sojourn p99 {p99:9.1f}ns  "
              f"shed {result.shed_total:3d}/{pacing['offered']}")
    open_p99 = cells["open"]["sojourn_p99_ns"]
    for name, cell in cells.items():
        if name != "open" and cell["sojourn_p99_ns"] > open_p99:
            raise SystemExit(
                f"overload {name}: admitted sojourn p99 exceeds the "
                "unadmitted cell's; refusing to record"
            )
        if not cell.get("holds_p99", True):
            raise SystemExit(
                f"overload {name}: sojourn p99 {cell['sojourn_p99_ns']:.0f}ns "
                f"outside {HOLD_SLACK}x target "
                f"{cell['p99_target_ns']:.0f}ns; refusing to record"
            )
    return {
        "factor": OVERLOAD_FACTOR,
        "base_sojourn_p99_ns": base_p99,
        "p99_target_ns": target_ns,
        "cells": cells,
    }


def _colocated_cell() -> dict:
    """Compressed co-located attack: locker + admission vs undefended."""
    base_config = ServingConfig(channels=2, colocated=True, seed=0)
    base_trace = record_serving_trace(base_config)
    base = serve(base_config, trace=base_trace)
    target_ns = base.sojourn_p99_ns() * P99_TARGET_FACTOR
    hot_trace = record_serving_trace(
        base_config,
        slice_duration_s=base_trace.slice_duration_s / OVERLOAD_FACTOR,
    )
    locked = serve(
        replace(base_config, admission=AdmissionConfig(p99_target_ns=target_ns)),
        trace=hot_trace,
    )
    if locked.victim_flip_events:
        raise SystemExit(
            f"{locked.victim_flip_events} victim flip events under "
            "DRAM-Locker with live admission; refusing to record"
        )
    undefended = serve(replace(base_config, defense="None"), trace=hot_trace)
    locked_rps = locked.sla["aggregate"]["requests_per_sim_sec"]
    undefended_rps = undefended.sla["aggregate"]["requests_per_sim_sec"]
    cell = {
        "overload_factor": OVERLOAD_FACTOR,
        "p99_target_ns": target_ns,
        "protected": True,
        "victim_flip_events": locked.victim_flip_events,
        "undefended_flip_events": undefended.victim_flip_events,
        "shed": locked.shed_total,
        "offered": locked.live["pacing"]["offered"],
        "blocked": locked.sla["aggregate"]["blocked"],
        "attack_absorption": round(locked_rps / undefended_rps, 3),
        "sla_fingerprint": sla_fingerprint(locked.payload),
    }
    print(f"co-located: victim flips {cell['victim_flip_events']} "
          f"(undefended {cell['undefended_flip_events']})  "
          f"shed {cell['shed']}/{cell['offered']}  "
          f"absorption {cell['attack_absorption']:.2f}x")
    return cell


def _live_smoke() -> dict:
    """The threaded wall-clock-paced server; gates conservation only."""
    config = ServingConfig(channels=1, colocated=False, seed=0)
    trace = record_serving_trace(config)
    # Trace clocks are milliseconds-scale, so the speedup that lands on
    # the wall budget is fractional: it *stretches* arrivals enough for
    # the executor to keep pace instead of flooding the backlog.
    speedup = trace.duration_s / LIVE_WALL_TARGET_S
    result = serve(replace(config, speedup=speedup), trace=trace)
    pacing = result.live["pacing"]
    conserved = pacing["offered"] == pacing["served"] + pacing["shed"]
    if not conserved:
        raise SystemExit(
            "live pacing violated offered == served + shed; "
            "refusing to record"
        )
    smoke = {
        "speedup": round(speedup, 3),
        "trace_duration_s": trace.duration_s,
        "wall_s": round(pacing["wall_s"], 4),
        "offered": pacing["offered"],
        "served": pacing["served"],
        "shed": pacing["shed"],
        "conserved": conserved,
    }
    print(f"live smoke: {smoke['served']}/{smoke['offered']} served "
          f"({smoke['shed']} shed) in {smoke['wall_s'] * 1e3:.0f}ms wall "
          f"at {speedup:.3g}x")
    return smoke


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--out", default=os.path.join("benchmarks", "artifacts")
    )
    args = parser.parse_args(argv)

    started = time.perf_counter()
    document = {
        "schema": SERVING_LIVE_SCHEMA,
        "meta": host_meta(),
        "overload_factor": OVERLOAD_FACTOR,
        "p99_target_factor": P99_TARGET_FACTOR,
        "replay": {"cells": _replay_cells()},
        "overload": _overload_cells(),
        "colocated": _colocated_cell(),
        "live": _live_smoke(),
    }
    document["timing"] = {
        "total_s": round(time.perf_counter() - started, 3)
    }
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, ARTIFACT)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"artifact: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
