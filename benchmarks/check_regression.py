"""CLI for the nightly benchmark-regression gate.

Usage::

    python benchmarks/check_regression.py CURRENT.json BASELINE.json \
        [--runtime-tolerance 0.10] [--accuracy-tolerance 0.10]

Exits nonzero when the current artifact's runtime or any protected
accuracy regresses beyond tolerance versus the committed baseline (see
:mod:`repro.eval.regression` for what is compared).  Engine
microbenchmark artifacts -- attack-search
(``bench_attack_search.py``) and defended-hammer
(``bench_defended_hammer.py``) -- are detected by schema and gated on
engine equivalence plus per-cell speedup *ratios* instead, which do
transfer across runner classes.  Serving artifacts
(``bench_serving.py``) are gated on exact SLA-stat equivalence,
channel-scaling throughput ratios (``--speedup-tolerance``), and the
protected victim staying intact under the co-located attack; live
serving artifacts (``bench_serving_live.py``) on replay equivalence,
exact overload fingerprints, and admission holding the sojourn
target; defense bake-off artifacts (``bench_bakeoff.py``) on the
chaos-cell detect-and-recover contract, exact SLA fingerprints, and
the protection frontier; telemetry-overhead
artifacts (``bench_obs.py``) on enabled/disabled payload identity,
exact event counts, and the disabled-path overhead budget.  Every
comparison reads only its named sections, so the host-provenance
``meta`` block newer artifacts carry is ignored against baselines
recorded before it existed.  Refresh a baseline by copying a
trusted run's artifact over the ``*_baseline.json`` file under
``benchmarks/artifacts/`` -- regenerate harness baselines on the same
runner class the workflow uses, since wall-clock baselines do not
transfer between machines.
"""

import argparse

from repro.eval.regression import (
    ATTACK_SEARCH_SCHEMA,
    BAKEOFF_SCHEMA,
    DEFENDED_HAMMER_SCHEMA,
    OBS_SCHEMA,
    RUNTABLE_BENCH_SCHEMA,
    SERVING_LIVE_SCHEMA,
    SERVING_SCHEMA,
    compare_artifacts,
    compare_attack_search,
    compare_bakeoff,
    compare_defended_hammer,
    compare_obs,
    compare_runtable,
    compare_serving,
    compare_serving_live,
    load_artifact,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("current", help="freshly generated BENCH_*.json")
    parser.add_argument("baseline", help="committed baseline artifact")
    parser.add_argument("--runtime-tolerance", type=float, default=0.10)
    parser.add_argument("--accuracy-tolerance", type=float, default=0.10)
    parser.add_argument("--speedup-tolerance", type=float, default=0.25)
    args = parser.parse_args(argv)

    current = load_artifact(args.current)
    baseline = load_artifact(args.baseline)
    if current.get("schema") == ATTACK_SEARCH_SCHEMA:
        report = compare_attack_search(
            current, baseline, speedup_tolerance=args.speedup_tolerance
        )
    elif current.get("schema") == DEFENDED_HAMMER_SCHEMA:
        report = compare_defended_hammer(
            current, baseline, speedup_tolerance=args.speedup_tolerance
        )
    elif current.get("schema") == SERVING_SCHEMA:
        report = compare_serving(
            current, baseline, throughput_tolerance=args.speedup_tolerance
        )
    elif current.get("schema") == SERVING_LIVE_SCHEMA:
        report = compare_serving_live(current, baseline)
    elif current.get("schema") == RUNTABLE_BENCH_SCHEMA:
        report = compare_runtable(
            current, baseline, overhead_tolerance=args.speedup_tolerance
        )
    elif current.get("schema") == BAKEOFF_SCHEMA:
        report = compare_bakeoff(
            current, baseline, accuracy_tolerance=args.accuracy_tolerance
        )
    elif current.get("schema") == OBS_SCHEMA:
        report = compare_obs(current, baseline)
    else:
        report = compare_artifacts(
            current,
            baseline,
            runtime_tolerance=args.runtime_tolerance,
            accuracy_tolerance=args.accuracy_tolerance,
        )
    print(report.summary())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
