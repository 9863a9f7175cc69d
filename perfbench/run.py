"""Performance ledger of the DRAM-Locker reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload fig8-resnet20 --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload with telemetry off and prints the
end-to-end metrics; ``--trace 1`` makes the separate traced run --
the same work once untraced and once with every layer function of
:data:`LAYER_WRAPS` wrapped in a span -- and prints the per-layer
metrics.  The last stdout line is one JSON object: ``correct``,
``attempted`` (steps), ``failed`` (failed steps and checks) and
``metrics``.  Metric definitions, per workload, are in README.md.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import time
from contextlib import contextmanager

# Modules that load numpy or repro (measure, spans, workloads) are
# imported inside the functions: main() first puts src/ on the path and
# sets the BLAS thread count.

E2E = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("step_p50_ms", "ms"),
    ("step_tail_ms", "ms"),
    ("steps_per_s", "1/s"),
    ("sim_requests_per_s", "1/s"),
)

#: Span name, owner (``module`` or ``module:Class``), attribute.  Each
#: wrap sits where the calling layer looks the function up, so
#: ``im2col`` and ``contract`` are wrapped in ``repro.nn.layers``,
#: which imports them by name.
LAYER_WRAPS = (
    ("nn.im2col", "repro.nn.layers", "im2col"),
    ("nn.contract", "repro.nn.layers", "contract"),
    ("nn.conv", "repro.nn.layers:Conv2d", "forward"),
    ("nn.conv", "repro.nn.layers:Conv2d", "backward"),
    ("nn.batchnorm", "repro.nn.layers:BatchNorm2d", "forward"),
    ("nn.batchnorm", "repro.nn.layers:BatchNorm2d", "backward"),
    ("attacks.rank", "repro.attacks.session:SearchSession", "objective_grads"),
    ("attacks.evaluate", "repro.attacks.session:SearchSession", "evaluate_flips"),
    ("attacks.probe", "repro.attacks.session:SearchSession", "accuracy"),
    ("attacks.probe", "repro.attacks.session:SearchSession", "objective"),
    ("attacks.hammer_bit", "repro.attacks.hammer:HammerDriver", "hammer_bit"),
    ("nn.storage.sync", "repro.nn.storage:WeightStore", "sync_model"),
    ("locker.on_request", "repro.locker.locker:DRAMLocker", "on_request"),
    ("locker.swap", "repro.locker.swap:SwapEngine", "swap"),
    ("isa.run", "repro.isa.executor:MicroExecutor", "run"),
    ("dram.row_address", "repro.dram.address:AddressMapper", "row_address"),
    ("dram.activate", "repro.dram.device:DRAMDevice", "activate"),
    ("dram.rowclone", "repro.dram.device:DRAMDevice", "rowclone"),
    ("controller.execute_stream", "repro.controller.controller:MemoryController",
     "execute_stream"),
    ("controller.execute", "repro.controller.controller:MemoryController", "execute"),
    ("controller.execute_summary", "repro.controller.controller:MemoryController",
     "execute_summary"),
    ("serving.slice_ops", "repro.serving.workload:WorkloadGenerator", "slice_ops"),
    ("serving.execute_stream", "repro.serving.sharded:ShardedMemorySystem",
     "execute_stream"),
    ("serving.sla", "repro.serving.sla:SLAAccountant", "sink"),
    ("serving.sla", "repro.serving.sla:SLAAccountant", "observe_op"),
    ("serving.sla", "repro.serving.sla:SLAAccountant", "observe_shed"),
    ("serving.sla", "repro.serving.sla:TenantSink", "add"),
    ("serving.sla", "repro.serving.sla:TenantSink", "add_run"),
    ("serving.end_slice", "repro.serving.engine:ServingSimulation", "end_slice"),
    ("eval.dispatch", "repro.eval.harness", "run_scenario"),
)

#: Wrapped while the traced run sets up (the cold train of fig8).
SETUP_WRAPS = (("nn.train", "repro.nn.cache", "train"),)

#: The hooks a defense cell's controller calls: the ``Defense`` hooks,
#: and for the DRAM-Locker cell the locker's controller-facing calls.
DEFENSE_HOOKS = (
    "on_activate",
    "plan_activate_run",
    "on_activate_run",
    "next_act_event",
    "on_refresh_window",
    "translate",
)
LOCKER_HOOKS = (
    "on_request",
    "classify",
    "quiet_span",
    "charge_bulk",
    "charge_bulk_blocked",
    "next_deadline",
)

COUNTERS = (
    ("attacks.candidate_evals", "count", "lower"),
    ("attacks.probe_lookups", "count", "lower"),
    ("attacks.probe_hit_ratio", "ratio", "higher"),
    ("attacks.grad_lookups", "count", "lower"),
    ("attacks.grad_hit_ratio", "ratio", "higher"),
    ("locker.swaps", "count", "lower"),
    ("locker.swap_failure_ratio", "ratio", "lower"),
    ("locker.exposures", "count", "lower"),
    ("controller.acts", "count", "lower"),
    ("controller.blocked_ratio", "ratio", "higher"),
)


def span_names() -> list[str]:
    names = []
    for name, _, _ in SETUP_WRAPS + LAYER_WRAPS:
        if name not in names:
            names.append(name)
    return names


def defense_names() -> list[str]:
    from repro.defenses.builders import DEFENDED_HAMMER_DEFENSES

    return sorted(DEFENDED_HAMMER_DEFENSES)


def per_layer_catalog() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``."""
    from workloads import slug

    catalog = []
    for name in span_names():
        catalog += [(f"{name}.calls", "count", "lower"), (f"{name}.self_ms", "ms", "lower")]
    for defense in defense_names():
        catalog += [
            (f"defenses.{slug(defense)}.hook_calls", "count", "lower"),
            (f"defenses.{slug(defense)}.hook_ms", "ms", "lower"),
        ]
    catalog += list(COUNTERS)
    catalog += [
        ("trace.overhead_pct", "%", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.dropped", "count", "lower"),
    ]
    return catalog


def drive(round_gen, speed, window_s: float = 0.5):
    """Run one round generator; return its per-step times, their raw
    wall-clock sum, and the round's result.

    Step times are wall seconds scaled to the reference host's speed:
    the host is calibrated (:class:`measure.HostSpeed`) about every
    ``window_s`` of steps, and each window's steps are scaled by
    ``REFERENCE_S`` over the mean of the calibrations at its two ends.
    Calibration runs outside the step clock.
    """
    from measure import REFERENCE_S
    from repro import obs
    from workloads import READY

    times, window = [], []
    raw = 0.0
    before = speed.sample()

    def close_window() -> float:
        nonlocal raw
        raw += sum(window)
        after = speed.sample()
        scale = REFERENCE_S / ((before + after) / 2)
        times.extend(t * scale for t in window)
        window.clear()
        return after

    clock = time.perf_counter()
    while True:
        try:
            marker = next(round_gen)
        except StopIteration as stop:
            if window:
                close_window()
            return times, raw, stop.value
        now = time.perf_counter()
        if marker is not READY:
            if obs.ACTIVE is not None:
                raise RuntimeError("telemetry must stay off during timed runs")
            window.append(now - clock)
            if sum(window) >= window_s:
                before = close_window()
                now = time.perf_counter()
        clock = now


class Tracer:
    """Per-cell defense-hook spans for the hammer workload."""

    def __init__(self, recorder):
        self.recorder = recorder

    @contextmanager
    def cell(self, defense: str):
        from repro.defenses.builders import DEFENDED_HAMMER_DEFENSES
        from repro.locker.locker import DRAMLocker
        from spans import patched
        from workloads import slug

        builder = DEFENDED_HAMMER_DEFENSES[defense]
        owner, hooks = (
            (DRAMLocker, LOCKER_HOOKS) if builder is None else (type(builder()), DEFENSE_HOOKS)
        )
        name = f"defenses.{slug(defense)}"
        wraps = [(name, owner, hook) for hook in hooks if hasattr(owner, hook)]
        with patched(self.recorder, wraps):
            yield


def measure_run(workload, seconds: float) -> tuple[dict, int, int, list[str]]:
    """The untraced run: end-to-end metrics, steps, failures, report."""
    from measure import REFERENCE_S, HostSpeed, metric, peak_rss_mb, percentile, tail_percentile

    speed = HostSpeed()
    setups = []
    state = None
    for _ in range(workload.setup_repeats):
        state = None  # release the previous set-up before the next
        before = speed.sample()
        started = time.perf_counter()
        state = workload.setup()
        elapsed = time.perf_counter() - started
        setups.append(elapsed * REFERENCE_S / ((before + speed.sample()) / 2))
    rounds, size = workload.plan(seconds)
    times, failed, report = [], 0, []
    requests = sim_ns = 0
    first = None
    for index in range(rounds):
        step_times, _, result = drive(workload.round(state, size), speed)
        times += step_times
        failed += len(result.failures)
        report += result.failures
        if first is None:
            first = result
        elif result.payload != first.payload:
            failed += 1
            report.append(f"round {index}: payload differs from round 0")
        requests += result.sim_requests
        sim_ns += result.sim_ns
        report.append(f"round {index}: {result.notes}")
    host_s = sum(times)
    tail_q = tail_percentile(len(times))
    report.append(
        f"steps {len(times)} in {rounds} round(s); tail = p{tail_q:g}; "
        f"setups {[round(s, 3) for s in setups]}"
    )
    # Simulated figures are fixed by the inputs, so they are printed
    # here rather than gated as metrics.
    report.append(
        f"simulated: {requests} requests in {sim_ns / 1e6:.6f} ms = "
        f"{requests / sim_ns * 1e3:.3f} Mreq/s; p99 {first.sim_p99_us:.5f} us"
    )
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "step_p50_ms": metric(percentile(times, 50) * 1e3, "ms"),
        "step_tail_ms": metric(percentile(times, tail_q) * 1e3, "ms"),
        "steps_per_s": metric(len(times) / host_s, "1/s"),
        "sim_requests_per_s": metric(requests / host_s, "1/s"),
    }
    return metrics, len(times), failed, report


def trace_run(workload, out_dir: str) -> tuple[dict, int, int, list[str]]:
    """The traced run: per-layer metrics, steps, failures, report."""
    from measure import HostSpeed, metric
    from spans import SpanRecorder, aggregate, patched, write_chrome
    from workloads import slug

    speed = HostSpeed()
    recorder = SpanRecorder()
    with patched(recorder, SETUP_WRAPS):
        state = workload.setup()
    ref_times, _, reference = drive(workload.round(state, workload.trace_size), speed)
    with patched(recorder, LAYER_WRAPS):
        times, traced_wall_s, traced = drive(
            workload.round(state, workload.trace_size, tracer=Tracer(recorder)), speed
        )
    failed = len(reference.failures) + len(traced.failures)
    report = reference.failures + traced.failures
    if traced.payload != reference.payload:
        failed += 1
        report.append("traced payload differs from the untraced payload")
    table = aggregate(recorder)
    units = {name: (unit, better) for name, unit, better in per_layer_catalog()}
    values = {}
    for name in span_names():
        row = table.get(name, {"calls": 0, "self_ms": 0.0})
        values[f"{name}.calls"] = row["calls"]
        values[f"{name}.self_ms"] = row["self_ms"]
    for defense in defense_names():
        row = table.get(f"defenses.{slug(defense)}", {"calls": 0, "incl_ms": 0.0})
        values[f"defenses.{slug(defense)}.hook_calls"] = row["calls"]
        values[f"defenses.{slug(defense)}.hook_ms"] = row["incl_ms"]
    for name, _, _ in COUNTERS:
        values[name] = traced.counters.get(name, 0)
    untraced_s, traced_s = sum(ref_times), sum(times)
    values["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    values["trace.spans"] = len(recorder)
    values["trace.dropped"] = recorder.dropped
    if recorder.dropped:
        failed += 1
        report.append(f"{recorder.dropped} spans never closed")
    path = os.path.join(out_dir, f"trace-{workload.name}.json.gz")
    write_chrome(recorder, path)
    report.append(f"untraced {untraced_s:.3f} s, traced {traced_s:.3f} s; spans -> {path}")
    setup_names = {name for name, _, _ in SETUP_WRAPS}
    for name in sorted(setup_names & table.keys()):
        if table[name]["calls"]:
            report.append(f"  {name} (set-up): {table[name]['self_ms']:.1f} ms")
    round_ms = traced_wall_s * 1e3
    rows = [(name, row) for name, row in table.items() if name not in setup_names]
    for name, row in sorted(rows, key=lambda item: -item[1]["self_ms"]):
        report.append(
            f"  {name}: {row['calls']} calls, self {100 * row['self_ms'] / round_ms:.1f}%, "
            f"incl {100 * row['incl_ms'] / round_ms:.1f}% of the traced round"
        )
    metrics = {name: metric(value, units[name][0]) for name, value in values.items()}
    return metrics, len(times), failed, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(
            "perfbench: src/repro not found; run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, src)
    # Hermetic: no telemetry, no shared victim cache from the caller.
    for variable in ("REPRO_TELEMETRY", "REPRO_VICTIM_CACHE", "REPRO_VICTIM_CACHE_MEMORY"):
        os.environ.pop(variable, None)
    # One BLAS thread (set before numpy loads): a busy second CPU then
    # cannot stretch a GEMM, and the run stays one process on one CPU.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

    from measure import result_line
    from repro import obs
    from workloads import WORKLOADS, scratch_dir

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if obs.ACTIVE is not None:
        print("perfbench: telemetry is active at start-up", file=sys.stderr)
        return 2
    work = scratch_dir(root)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            metrics, attempted, failed, report = trace_run(workload, os.path.dirname(work))
        else:
            metrics, attempted, failed, report = measure_run(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in report:
        print(line)
    print(f"error_rate {failed / attempted:.6f} ({failed} of {attempted})")
    print(result_line(failed == 0, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
