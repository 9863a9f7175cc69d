"""Benchmark-regression gates over BENCH_*.json artifacts.

The nightly CI job replays benchmarks and gates each fresh artifact
against a committed baseline.  Every gate lives in one table,
:data:`GATES`, keyed by artifact schema, and :func:`check` runs the
gate of a (current, baseline) pair; ``benchmarks/check_regression.py``
is the thin CLI the workflows invoke.

A gate is a tuple of rules built from four shapes:

* :func:`equal` -- a deterministic quantity (SLA fingerprint, shed or
  flip count, event tally) equals the baseline's exactly;
* :func:`floor` / :func:`ceiling` -- a ratio, accuracy or runtime moves
  against the baseline's by at most the gate's fixed tolerance;
* :func:`flag` -- a property the benchmark recorded about itself
  (engine equivalence, conservation) is true;
* ``missing=`` on :func:`each` / :func:`at` -- a section or cell the
  baseline has is present in the current artifact.

A few one-off predicates sit in the table as small named functions.
Tolerances are constants, not knobs.  A value a ``floor``/``ceiling``
rule needs but the artifact lacks is reported as a violation naming the
cell and the key, never raised.
"""

from __future__ import annotations

import json
import operator
import os
import platform
import subprocess
import sys
from dataclasses import dataclass, field

__all__ = [
    "ATTACK_SEARCH_SCHEMA",
    "BAKEOFF_SCHEMA",
    "DEFENDED_HAMMER_SCHEMA",
    "GATES",
    "HARNESS_SCHEMA",
    "OBS_SCHEMA",
    "RUNTABLE_BENCH_SCHEMA",
    "SERVING_LIVE_SCHEMA",
    "SERVING_SCHEMA",
    "RegressionReport",
    "check",
    "host_meta",
    "load_artifact",
    "protected_accuracies",
    "sla_fingerprint",
]

LOCKED_LABEL = "with DRAM-Locker"

# Schema tags: the scenario harness (``run_matrix``) and one per
# ``benchmarks/bench_<name>.py`` artifact writer.
HARNESS_SCHEMA = "dram-locker-bench/1"
ATTACK_SEARCH_SCHEMA = "dram-locker-attack-search-bench/1"
DEFENDED_HAMMER_SCHEMA = "dram-locker-defended-hammer-bench/1"
SERVING_SCHEMA = "dram-locker-serving-bench/1"
SERVING_LIVE_SCHEMA = "dram-locker-serving-live-bench/1"
RUNTABLE_BENCH_SCHEMA = "dram-locker-runtable-bench/1"
BAKEOFF_SCHEMA = "dram-locker-bakeoff-bench/1"
OBS_SCHEMA = "dram-locker-obs-bench/1"

# Fractional tolerances of the gates: each is the bound the CI
# workflows gate at.
RUNTIME_TOLERANCE = 0.10
ACCURACY_TOLERANCE = 0.10
SPEEDUP_TOLERANCE = 0.35
SCALING_TOLERANCE = 0.25
OVERHEAD_TOLERANCE = 0.75
LATENCY_TOLERANCE = 0.25
ENABLED_TOLERANCE = 0.50
#: Absolute budget (percent of runtime) of the telemetry-off guards.
DISABLED_BUDGET_PCT = 1.0

_MISSING = "{what} missing from current artifact"
_MALFORMED = "{name}: {side} artifact has no {key!r}"


def load_artifact(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def host_meta() -> dict:
    """Provenance block stamped into every benchmark/harness artifact.

    Deliberately contains **no wall-clock timestamp**: two artifacts
    produced on the same host from the same tree must stay
    byte-identical (the run-table resume-identity gate depends on it).
    """
    try:
        import numpy

        numpy_version = str(numpy.__version__)
    except Exception:  # pragma: no cover - numpy is a hard dep in CI
        numpy_version = "unknown"
    try:
        sha = (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
                check=False,
            ).stdout.strip()
            or "unknown"
        )
    except Exception:
        sha = "unknown"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
    }


def sla_fingerprint(payload: dict) -> dict:
    """The deterministic SLA stats the serving gates pin exactly: the
    aggregate request/issued/blocked tallies plus tenant-0's latency
    percentiles, all simulated quantities."""
    aggregate = payload["sla"]["aggregate"]
    fingerprint = {
        "requests": aggregate["requests"],
        "issued": aggregate["issued"],
        "blocked": aggregate["blocked"],
    }
    tenant0 = payload["sla"].get("tenants", {}).get("tenant-0", {})
    latency = tenant0.get("latency_ns")
    if latency:
        fingerprint["tenant0_latency_ns"] = latency
    return fingerprint


def protected_accuracies(artifact: dict) -> dict[str, float]:
    """Every protected-accuracy metric a harness artifact carries, by name:

    * ``attack`` scenarios with ``"protected": true`` -> ``final_accuracy``;
    * figure runners with per-defense curves -> the final accuracy
      recorded under ``stats["with DRAM-Locker"]``;
    * everything else contributes none (runtime still counts).
    """
    metrics: dict[str, float] = {}
    for name, payload in artifact.get("results", {}).items():
        if not isinstance(payload, dict) or "error" in payload:
            continue
        if payload.get("protected") and payload.get("final_accuracy") is not None:
            metrics[name] = float(payload["final_accuracy"])
            continue
        stats = payload.get("stats")
        if isinstance(stats, dict) and LOCKED_LABEL in stats:
            locked = stats[LOCKED_LABEL]
            if isinstance(locked, dict) and "final_accuracy" in locked:
                metrics[name] = float(locked["final_accuracy"])
    return metrics


@dataclass
class RegressionReport:
    """Outcome of one artifact-vs-baseline comparison."""

    violations: list[str] = field(default_factory=list)
    checks: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def record(self, passed: bool, check: str | None, violation: str | None = None) -> None:
        """File ``check`` when ``passed`` (nothing if it is None), else
        ``violation`` -- the check text itself when none is given."""
        if not passed:
            self.violations.append(violation or check)
        elif check is not None:
            self.checks.append(check)

    def summary(self) -> str:
        lines = [f"{len(self.checks)} check(s), {len(self.violations)} violation(s)"]
        lines += [f"  ok: {check}" for check in self.checks]
        lines += [f"  REGRESSION: {violation}" for violation in self.violations]
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Rules.  A rule takes ``(name, cell, base_cell, report)``: a current
# cell, its baseline twin ({} when the baseline has none), and the
# report it files into.  Message templates see the cell's fields --
# an absent one reads None, as ``dict.get`` would, unless ``fill``
# gives it a default -- plus ``name``, ``key``, ``cur``, ``base`` and
# ``bound``.
# ----------------------------------------------------------------------
class _Fields(dict):
    def __missing__(self, key):
        return None


def _say(template, name, cell, fill=None, **values):
    return template.format_map(_Fields({**(fill or {}), **cell, "name": name, **values}))


def equal(key, check, diverged=None, default=None, fill=None):
    """``cell[key]`` must equal the baseline's exactly; skipped when the
    baseline has no value (``default`` stands in for an absent key on
    both sides)."""

    def rule(name, cell, base_cell, report):
        expected = base_cell.get(key, default)
        if expected is None:
            return
        actual = cell.get(key, default)
        values = dict(key=key, cur=actual, base=expected, fill=fill)
        report.record(
            actual == expected,
            _say(check, name, cell, **values),
            diverged and _say(diverged, name, cell, **values),
        )

    return rule


def flag(key, check, violation=None, default=False, fill=None):
    """``cell[key]`` must be true.  With no ``check`` text the rule
    reports failures only."""

    def rule(name, cell, base_cell, report):
        report.record(
            bool(cell.get(key, default)),
            check and _say(check, name, cell, fill),
            violation and _say(violation, name, cell, fill),
        )

    return rule


def _bounded(key, factor, within, check, required):
    def rule(name, cell, base_cell, report):
        actual, expected = cell.get(key), base_cell.get(key)
        if actual is None or expected is None:
            if required:
                side = "current" if actual is None else "baseline"
                report.violations.append(_MALFORMED.format(name=name, side=side, key=key))
            return
        bound = expected * factor
        report.record(
            within(actual, bound),
            _say(check, name, cell, cur=actual, base=expected, bound=bound),
        )

    return rule


def floor(key, tolerance, check, required=True):
    """``cell[key]`` may shrink at most ``tolerance`` (fractional) below
    the baseline's.  A missing value is a violation when ``required``,
    else the rule is skipped."""
    return _bounded(key, 1.0 - tolerance, operator.ge, check, required)


def ceiling(key, tolerance, check, required=True):
    """``cell[key]`` may grow at most ``tolerance`` above the baseline's."""
    return _bounded(key, 1.0 + tolerance, operator.le, check, required)


# ----------------------------------------------------------------------
# Where a gate's rules apply.
# ----------------------------------------------------------------------
def _lookup(doc, path):
    for key in path.split("."):
        if not isinstance(doc, dict):
            return None
        doc = doc.get(key)
    return doc


def _cells(doc, path):
    return (path(doc) if callable(path) else _lookup(doc, path)) or {}


def each(path, *rules, over="baseline", missing=None, when=None):
    """Apply ``rules`` to every cell of the section at ``path`` (a dotted
    key, or a function deriving the cells from an artifact).

    ``over="baseline"`` walks the baseline's cells: each must exist in
    the current artifact -- ``missing`` names the absent one -- and is
    checked against its twin.  ``over="current"`` walks the current
    artifact's cells that ``when`` accepts, so it covers cells the
    baseline does not know.
    """

    def gate(current, baseline, report):
        cur_cells, base_cells = _cells(current, path), _cells(baseline, path)
        if over == "current":
            for name, cell in sorted(cur_cells.items()):
                if when is None or when(cell):
                    for rule in rules:
                        rule(name, cell, base_cells.get(name) or {}, report)
            return
        for name, base_cell in sorted(base_cells.items()):
            cell = cur_cells.get(name)
            if cell is None:
                if missing is not None:
                    report.violations.append(_MISSING.format(what=missing.format(name=name)))
                continue
            for rule in rules:
                rule(name, cell, base_cell, report)

    return gate


def at(path, *rules, missing=None):
    """Apply ``rules`` to the single section at ``path``.  With
    ``missing`` the section is optional: when the current artifact lacks
    it, that is a violation only if the baseline has it, and its rules
    are skipped.  Without, an absent section is checked as ``{}``."""

    def gate(current, baseline, report):
        cell, base_cell = _lookup(current, path), _lookup(baseline, path)
        if cell is None and missing is not None:
            if base_cell is not None:
                report.violations.append(_MISSING.format(what=missing))
            return
        for rule in rules:
            rule(path, cell or {}, base_cell or {}, report)

    return gate


# ----------------------------------------------------------------------
# One-off predicates.
# ----------------------------------------------------------------------
def _scenario_ran(name, payload, base_cell, report):
    if isinstance(payload, dict) and "error" in payload:
        report.violations.append(
            f"scenario {name!r} failed: {str(payload['error']).splitlines()[-1]}"
        )


def _protected_cells(artifact):
    return {name: {"final_accuracy": v} for name, v in protected_accuracies(artifact).items()}


def _victim_probe(name, victim, base_cell, report):
    if victim.get("skipped"):
        # Recorded with --skip-model-victim: explicit, so not a drop.
        report.checks.append("model-victim probe explicitly skipped")
        return
    post, clean = victim.get("post_attack_accuracy"), victim.get("clean_accuracy")
    if post is None or clean is None:
        key = "post_attack_accuracy" if post is None else "clean_accuracy"
        report.violations.append(_MALFORMED.format(name=name, side="current", key=key))
        return
    report.record(
        bool(victim.get("accuracy_unchanged")),
        f"model victim accuracy {post:.2f}% vs clean {clean:.2f}% under attack",
    )


def _admitted_within_open(name, cells, base_cells, report):
    open_p99 = (cells.get("open") or {}).get("sojourn_p99_ns")
    if open_p99 is None:
        return
    for cell_name, cell in sorted(cells.items()):
        p99 = cell.get("sojourn_p99_ns")
        if cell_name != "open" and p99 is not None:
            report.record(
                p99 <= open_p99,
                f"overload {cell_name}: admitted sojourn p99 {p99:.0f}ns <= "
                f"open {open_p99:.0f}ns",
            )


def _fault_contained(name, fault, base_cell, report):
    report.record(
        bool(fault.get("conserved")) and not fault.get("victim_flip_events"),
        f"chaos: channel fault conserved offered={fault.get('offered_ops')} == "
        f"served={fault.get('served_ops')} + shed={fault.get('shed_ops')} "
        f"with {fault.get('victim_flip_events')} victim flip(s)",
    )


def _recovered_within_budget(name, chaos, base_cell, report):
    budget = chaos.get("accuracy_budget_pct", 0.5)
    delta = chaos.get("accuracy_delta_pct")
    report.record(
        delta is not None and delta <= budget,
        f"chaos: post-recovery accuracy within {budget}pp of clean (delta {delta}pp)",
    )


def _latency_recorded(name, chaos, base_cell, report):
    latencies = chaos.get("detection_latency_ns", [])
    report.record(
        bool(latencies) and None not in latencies,
        f"chaos: detection latency recorded for {len(latencies)} injection(s)",
        "chaos: detection latency missing for at least one injection",
    )


def _latency_within_ceiling(name, chaos, base_chaos, report):
    latencies = chaos.get("detection_latency_ns")
    base_latencies = base_chaos.get("detection_latency_ns")
    if not latencies or not base_latencies or None in latencies + base_latencies:
        return
    base_worst, worst = max(base_latencies), max(latencies)
    bound = base_worst * (1.0 + LATENCY_TOLERANCE)
    # An all-zero baseline (detected at the injection-slice probe) pins
    # the current run to zero as well.
    report.record(
        worst <= bound or worst <= base_worst,
        f"chaos: worst detection latency {worst:.0f}ns vs baseline "
        f"{base_worst:.0f}ns (ceiling {bound:.0f}ns)",
    )


def _disabled_within_budget(name, cell, base_cell, report):
    pct = cell.get("disabled_pct")
    report.record(
        pct is not None and pct < DISABLED_BUDGET_PCT,
        f"{name}: disabled-path overhead {pct if pct is None else round(pct, 4)}% "
        f"(budget {DISABLED_BUDGET_PCT}%)",
    )


_SLA_MATCHES = "{name}: SLA fingerprint matches baseline"
_SLA_DIVERGED = "{name}: SLA fingerprint diverged from baseline ({cur} != {base})"
_SPEEDUP = "{name}: speedup {cur:.2f}x vs baseline {base:.2f}x (floor {bound:.2f}x)"
_NAN = float("nan")


GATES = {
    # Scenario-harness matrices: wall-clock runtime may not grow, and no
    # *protected* accuracy -- the quantity DRAM-Locker exists to
    # preserve -- may shrink, beyond tolerance.  The attack is supposed
    # to wreck the open victim, so unprotected accuracy is not gated.
    HARNESS_SCHEMA: (
        each("results", _scenario_ran, over="current"),
        at("timing", ceiling(
            "total_s", RUNTIME_TOLERANCE,
            "runtime {cur:.2f}s vs baseline {base:.2f}s (limit {bound:.2f}s)", required=False,
        )),
        each(_protected_cells, floor(
            "final_accuracy", ACCURACY_TOLERANCE,
            "{name}: protected accuracy {cur:.2f}% vs baseline {base:.2f}% (floor {bound:.2f}%)",
        ), missing="protected accuracy for {name!r}"),
    ),
    # Attack-search microbenchmark: the suffix engine matches the
    # full-forward reference bit-for-bit in every cell (correctness, no
    # tolerance), and each cell's *speedup ratio* -- which, unlike
    # wall-clock seconds, transfers across runner classes -- has not
    # shrunk beyond tolerance.
    ATTACK_SEARCH_SCHEMA: (
        each("families", flag(
            "results_identical", None,
            "{name}: suffix engine diverged from the full-forward reference",
        ), over="current"),
        each("families", floor("speedup", SPEEDUP_TOLERANCE, _SPEEDUP), missing="family {name!r}"),
        at("pool", flag(
            "results_identical", None, "persistent worker pool changed matrix results",
            default=True,
        )),
    ),
    # Defended-hammer microbenchmark: as attack-search, with the bulk
    # engine held bit-for-bit to the scalar reference per defense cell.
    DEFENDED_HAMMER_SCHEMA: (
        each("defenses", flag(
            "results_identical", None, "{name}: bulk engine diverged from the scalar reference",
        ), over="current"),
        each("defenses", floor("speedup", SPEEDUP_TOLERANCE, _SPEEDUP), missing="defense {name!r}"),
    ),
    # Serving: every cell's SLA fingerprint -- request tallies and
    # latency percentiles, simulated quantities that transfer across
    # runner classes -- equals the baseline's exactly (a drift means the
    # serving path's behaviour changed); each defense's 1-to-max-channel
    # requests/sec ratio has not shrunk beyond tolerance; every locker
    # cell's victim flip count equals the baseline's -- zero for a cell
    # the baseline does not know (a pinned nonzero count at high channel
    # counts records a known unlock-SWAP-failure exposure, not a
    # regression); and the model-victim probe's accuracy is unchanged
    # under the co-located attack.  The probe may be absent only when
    # the baseline never had it: a silent drop of a gated section is
    # itself a regression.
    SERVING_SCHEMA: (
        each("cells", equal("sla_fingerprint", _SLA_MATCHES, _SLA_DIVERGED),
             missing="cell {name!r}"),
        each("scaling", floor(
            "ratio", SCALING_TOLERANCE,
            "{name}: channel-scaling ratio {cur:.2f}x vs baseline {base:.2f}x (floor {bound:.2f}x)",
        ), missing="scaling entry {name!r}"),
        each("cells", equal(
            "victim_flip_events",
            "{name}: protected victim flip events {cur} (baseline {base})", default=0,
        ), over="current", when=lambda cell: cell.get("protected")),
        at("victim", _victim_probe, missing="model-victim probe"),
    ),
    # Live serving: everything compared is a simulated quantity
    # (deterministic replays of recorded traces), so the gate is exact.
    # Every replay cell is bit-identical to the closed loop of the same
    # config (the replay-equivalence contract, docs/SERVING.md); each
    # overload cell's SLA fingerprint and shed count equal the
    # baseline's; every admitted cell that records ``holds_p99`` holds
    # its sojourn target, and none has a worse sojourn p99 than the
    # unadmitted (open) cell -- shedding must never make the tail worse;
    # the co-located cell's victim flips equal the baseline's while
    # admission sheds load; and the wall-clock-paced live run conserves
    # ``offered == served + shed`` (its wall seconds do not transfer
    # across runner classes, so they are not compared).
    SERVING_LIVE_SCHEMA: (
        each("replay.cells", flag(
            "identical",
            "replay {name}: bit-identical to the closed loop",
            "replay {name}: diverged from the closed loop",
        ), over="current"),
        each("replay.cells", missing="replay cell {name!r}"),
        each("overload.cells", *(
            equal(key, "overload {name}: {key} matches baseline",
                  "overload {name}: {key} diverged from baseline ({cur} != {base})")
            for key in ("sla_fingerprint", "shed")
        ), missing="overload cell {name!r}"),
        each("overload.cells", flag(
            "holds_p99",
            "overload {name}: sojourn p99 {sojourn_p99_ns:.0f}ns holds "
            "target {p99_target_ns:.0f}ns",
            fill={"sojourn_p99_ns": _NAN, "p99_target_ns": _NAN},
        ), over="current", when=lambda cell: "holds_p99" in cell),
        at("overload.cells", _admitted_within_open),
        at("colocated", equal(
            "victim_flip_events",
            "co-located: victim flip events {cur} (baseline {base}) with {shed} ops shed",
            default=0, fill={"shed": 0},
        ), missing="co-located cell"),
        at("live", flag(
            "conserved", "live: conservation offered={offered} == served={served} + shed={shed}",
        ), missing="live pacing section"),
    ),
    # Run table: the fleet properties are deterministic, so most of the
    # gate is exact.  The checkpointed table's results are bit-identical
    # to a plain run_matrix sweep (journalling never changes what is
    # computed); the run SIGKILLed mid-sweep and resumed emits results
    # bit-identical to the uninterrupted run, and really resumed from a
    # non-empty journal; the chaos table quarantines exactly the
    # baseline's count of always-crashing cells and recovers its
    # crash-once cells, and its channel-fault cell conserves
    # ``offered == served + shed`` with zero victim flips under
    # DRAM-Locker.  The journalled run's wall-clock overhead *ratio*
    # over the plain sweep -- which transfers across runner classes --
    # may not grow beyond tolerance.
    RUNTABLE_BENCH_SCHEMA: (
        at("checkpoint", flag(
            "results_identical",
            "checkpoint: journalled results identical to plain run_matrix",
            "checkpoint: journalled results diverged from plain run_matrix",
        )),
        at("recovery", flag(
            "resume_identical",
            "recovery: SIGKILL at {journal_lines_at_kill} journal line(s) "
            "+ --resume is bit-identical",
            "recovery: resumed artifact diverged from uninterrupted run",
        ), flag(
            "journal_lines_at_kill", None,
            "recovery: victim run was killed before journalling any cell "
            "(resume path not exercised)",
        )),
        at("chaos", *(
            equal(key, "chaos: {key} {cur} == baseline {base}")
            for key in ("quarantined", "errors", "recovered")
        )),
        at("chaos.channel_fault", _fault_contained, missing="chaos: channel-fault cell"),
        at("checkpoint", ceiling(
            "overhead_ratio", OVERHEAD_TOLERANCE,
            "checkpoint: overhead {cur:.2f}x vs baseline {base:.2f}x (ceiling {bound:.2f}x)",
            required=False,
        )),
    ),
    # Defense bake-off: everything behavioural is deterministic
    # simulation, so most of the gate is exact.  The RADAR chaos cell
    # detects every injected corruption, records each injection's
    # detection latency, and recovers to within its committed
    # ``accuracy_budget_pct`` of clean; its worst detection latency may
    # not grow beyond tolerance.  Each DRAM-Locker serving cell's victim
    # flip count equals the baseline's -- zero for cells the baseline
    # does not know -- and serving-cell SLA fingerprints equal the
    # baseline's.  Per defense, the *worst* defended accuracy across the
    # attack matrix (the protection frontier) may not shrink beyond
    # tolerance.
    BAKEOFF_SCHEMA: (
        at("chaos", flag(
            "all_injections_detected",
            "chaos: {injections_detected}/{injected_corruptions} injected corruption(s) detected",
        ), _recovered_within_budget, _latency_recorded, _latency_within_ceiling,
            missing="chaos cell"),
        each("serving_cells", equal("sla_fingerprint", _SLA_MATCHES, _SLA_DIVERGED),
             missing="serving cell {name!r}"),
        each("serving_cells", equal(
            "victim_flip_events",
            "{name}: locker victim flip events {cur} (baseline {base})", default=0,
        ), over="current", when=lambda cell: cell.get("defense") == "DRAM-Locker"),
        each("frontier", floor(
            "worst_defended_accuracy", ACCURACY_TOLERANCE,
            "{name}: worst defended accuracy {cur:.2f}% vs baseline {base:.2f}% "
            "(floor {bound:.2f}%)",
            required=False,
        ), missing="frontier point {name!r}"),
    ),
    # Telemetry overhead: observational inertness -- every cell run with
    # telemetry enabled produces a payload bit-identical to the disabled
    # run, and the deterministic event counts (metric ``updates``,
    # ``audit_events``) equal the baseline's; a drift means
    # instrumentation leaked into simulation state.  Zero overhead when
    # disabled -- each cell's ``disabled_pct`` (the measured per-guard
    # check cost times the guard sites hit, as a share of the cell's
    # telemetry-off runtime; built from a guard microbenchmark because
    # differencing two noisy wall-clock runs cannot resolve it) stays
    # under an absolute budget.  The enabled path may cost real time:
    # only its on/off ``enabled_ratio`` is bounded against the baseline's.
    OBS_SCHEMA: (
        each("cells", flag(
            "payload_identical",
            "{name}: enabled payload bit-identical to disabled run",
            "{name}: telemetry changed the simulation payload",
        ), _disabled_within_budget, over="current"),
        each("cells", *(
            equal(key, "{name}: {key} {cur} == baseline {base}",
                  "{name}: {key} diverged from baseline ({cur} != {base})")
            for key in ("updates", "audit_events")
        ), ceiling(
            "enabled_ratio", ENABLED_TOLERANCE,
            "{name}: enabled-path ratio {cur:.3f}x vs baseline {base:.3f}x (ceiling {bound:.3f}x)",
            required=False,
        ), missing="cell {name!r}"),
    ),
}


def check(current: dict, baseline: dict) -> RegressionReport:
    """Gate ``current`` against ``baseline`` with their schema's rules.

    Raises :class:`ValueError` when the schema has no gate or the two
    artifacts' schemas differ: falling back to some other gate would
    silently check nothing.  Only the gated sections are read, so the
    host-provenance ``meta`` block is ignored.
    """
    schema, base_schema = current.get("schema"), baseline.get("schema")
    if schema not in GATES or base_schema != schema:
        raise ValueError(
            f"cannot gate current schema {schema!r} against baseline "
            f"schema {base_schema!r}: need one of {sorted(GATES)} on both"
        )
    report = RegressionReport()
    for rule in GATES[schema]:
        rule(current, baseline, report)
    return report
