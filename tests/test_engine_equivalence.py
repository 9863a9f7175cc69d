"""The scalar ⊂ bulk contract, end to end.

``docs/ARCHITECTURE.md`` documents the contract; this suite enforces
it across every registered defense, locker unlock-SWAP windows
(including swap-failure RNG draws), refresh-tick edge alignment,
multi-channel serving cells, and a hypothesis-generated grid over all
of those at once.  "Identical" means bit-identical -- ``RequestResult``
fields, the float accumulators in ``MemoryStats``, hammer counters,
locker and defense bookkeeping, and whole serving payloads.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller import Kind, MemRequest, MemoryController, RequestRun
from repro.dram import DDR4_2400, DRAMConfig, DRAMDevice, VulnerabilityMap
from repro.engines import EXECUTION_ENGINES
from repro.defenses.builders import DEFENDED_HAMMER_DEFENSES
from repro.locker import DRAMLocker, LockerConfig
from repro.serving import ServingConfig, run_serving

DEFENSE_NAMES = [
    name
    for name, builder in DEFENDED_HAMMER_DEFENSES.items()
    if builder is not None
]

FAST_ENGINES = [engine for engine in EXECUTION_ENGINES if engine != "scalar"]


# ----------------------------------------------------------------------
# Controller-level grid: defense x locker x engines
# ----------------------------------------------------------------------
def _build(engine, *, defense_name=None, protected=False, trh=100,
           relock_interval=150, timing=DDR4_2400, copy_error_rate=0.05):
    config = DRAMConfig.tiny()
    vulnerability = VulnerabilityMap(config, seed=3, weak_cell_fraction=1e-4)
    device = DRAMDevice(
        config, timing=timing, vulnerability=vulnerability, trh=trh
    )
    locker = None
    if protected:
        locker = DRAMLocker(
            device,
            LockerConfig(
                copy_error_rate=copy_error_rate,
                relock_interval=relock_interval,
                seed=7,
            ),
        )
        locker.lock_rows([9, 11, 21])
    defense = (
        DEFENDED_HAMMER_DEFENSES[defense_name]() if defense_name else None
    )
    controller = MemoryController(
        device, defense=defense, locker=locker, engine=engine
    )
    device.vulnerability.register_template(10, [3])
    return device, controller, locker, defense


def _adversarial_stream():
    """Unlock-SWAP openers (privileged reads of locked rows), hammering
    inside and outside the exposure windows, relock deadlines crossed
    mid-run, and long undefended bursts spanning refresh ticks."""
    requests = []
    for _ in range(3):
        requests.append(MemRequest(Kind.READ, 21, privileged=True))
        requests += [MemRequest(Kind.ACT, 21) for _ in range(60)]
        for aggressor in (9, 11):
            requests += [MemRequest(Kind.ACT, aggressor) for _ in range(130)]
        requests.append(MemRequest(Kind.WRITE, 33, size=256, privileged=True))
        requests += [MemRequest(Kind.ACT, 50) for _ in range(400)]
    return requests


def _device_state(device):
    return (
        device.stats.as_dict(),
        device.now_ns,
        device.rowhammer.counters,
        device.refresh.cursor,
        device.refresh.next_ref_ns,
        device.refresh.windows_completed,
        [device.peek_row(row).tobytes() for row in (9, 10, 11, 21, 50)],
    )


def _locker_state(locker):
    if locker is None:
        return None
    return (
        locker.table.lookups,
        locker.table.hits,
        locker.table.snapshot(),
        locker.rw_instructions,
        locker.blocked_requests,
        locker.exposed,
        locker.swap_engine.rng.bit_generator.state,
        # The pending restore / re-secure heap, in heap order.
        [
            (item.due, item.order, item.kind, item.logical_row,
             item.physical_row)
            for item in locker._pending
        ],
        dict(locker._where),
        {key: list(pool) for key, pool in locker._free_pool.items()},
        locker.exposure_summary(),
    )


def _result_fields(results):
    return [
        (r.status, r.latency_ns, r.defense_ns, r.row_hit, r.swapped,
         tuple(r.flips))
        for r in results
    ]


def _run(engine, **kwargs):
    requests = _adversarial_stream()
    device, controller, locker, defense = _build(engine, **kwargs)
    if engine == "scalar":
        results = [controller.execute(request) for request in requests]
    else:
        results = controller.execute_batch(requests)
    defense_ns = defense.mitigation_ns_total if defense else None
    return (
        _result_fields(results),
        _device_state(device),
        _locker_state(locker),
        defense_ns,
    )


@pytest.mark.parametrize("name", DEFENSE_NAMES)
def test_all_engines_agree_per_defense(name):
    reference = _run("scalar", defense_name=name)
    for engine in FAST_ENGINES:
        assert _run(engine, defense_name=name) == reference, engine


@pytest.mark.parametrize("relock_interval", [90, 150, 1000])
def test_all_engines_agree_across_unlock_swap_windows(relock_interval):
    """Exposure windows opened by privileged reads, restore deadlines
    crossed mid-hammer-run, and the swap-failure RNG stream (drawn at
    execution) must line up across the engines."""
    reference = _run(
        "scalar", protected=True, relock_interval=relock_interval
    )
    assert reference[2] is not None and reference[2][0] > 0
    for engine in FAST_ENGINES:
        state = _run(engine, protected=True, relock_interval=relock_interval)
        assert state == reference, engine


def _hammer_both(engine, count, **kwargs):
    """``count`` ACTs of row 50 on the scalar loop and on ``engine``;
    returns both device states."""
    device_a, controller_a, _, _ = _build("scalar", **kwargs)
    request = MemRequest(Kind.ACT, 50, privileged=False)
    for _ in range(count):
        controller_a.execute(request)
    device_b, controller_b, _, _ = _build(engine, **kwargs)
    controller_b.execute_run(request, count)
    return _device_state(device_a), _device_state(device_b)


#: DDR4 timing with a four-REF refresh window: on the tiny geometry
#: each REF refreshes 64 rows and every fourth one completes a window.
SHORT_WINDOW = replace(DDR4_2400, tref_w=4 * DDR4_2400.trefi)


@pytest.mark.parametrize("engine", FAST_ENGINES)
def test_refresh_tick_edge_alignment(engine):
    """ACT-run lengths that end one step before, exactly on, and one
    step after a refresh tick, spanning several ticks, and ending
    exactly on a window-completing REF -- the steps where a bulk chunk
    must stop, or may run through."""
    probe = _build("scalar", trh=10**6)[0]
    step_ns = probe.timing.trc
    # The run length whose last advance makes the first REF due.
    tick = math.ceil((probe.refresh.next_ref_ns - probe.now_ns) / step_ns)
    for count in (tick - 1, tick, tick + 1, tick + 2, 4 * tick + 3):
        scalar, bulk = _hammer_both(engine, count, trh=10**6)
        assert scalar == bulk, count
        refreshes = scalar[0]["refreshes"]
        assert refreshes == (0 if count < tick else count // tick), count

    # Row 50 sits in the first REF's slice, so its counter resets on
    # the first tick; the window completes on the fourth.
    probe = _build("scalar", trh=10**6, timing=SHORT_WINDOW)[0]
    refresh = probe.refresh
    last_due = (
        refresh.next_ref_ns
        + (refresh.refs_per_window - 1) * SHORT_WINDOW.trefi
    )
    window = math.ceil((last_due - probe.now_ns) / step_ns)
    for count in (window - 1, window, window + 1):
        scalar, bulk = _hammer_both(
            engine, count, trh=10**6, timing=SHORT_WINDOW
        )
        assert scalar == bulk, count
        assert scalar[5] == (count >= window), count


@pytest.mark.parametrize("engine", FAST_ENGINES)
def test_trh_crossing_alignment(engine):
    """Run lengths straddling the RowHammer threshold: the crossing ACT
    must run scalar in every engine, with identical flip outcomes."""
    for count in (63, 64, 65, 200):
        device_a, controller_a, _, _ = _build("scalar", trh=64)
        for _ in range(count):
            controller_a.execute(MemRequest(Kind.ACT, 9, privileged=False))
        device_b, controller_b, _, _ = _build(engine, trh=64)
        controller_b.execute_run(
            MemRequest(Kind.ACT, 9, privileged=False), count
        )
        assert _device_state(device_a) == _device_state(device_b), count


# ----------------------------------------------------------------------
# Serving grid: defense x channels x engines, whole payloads
# ----------------------------------------------------------------------
def _serving_payload(engine, defense, channels):
    protected = defense == "DRAM-Locker"
    builder = None if defense in ("None", "DRAM-Locker") else (
        DEFENDED_HAMMER_DEFENSES[defense]
    )
    payload = run_serving(
        ServingConfig(
            tenants=3,
            channels=channels,
            slices=8,
            ops_per_slice=4.0,
            colocated=True,
            engine=engine,
            seed=1,
        ),
        protected=protected,
        defense_builder=builder,
    )
    payload["config"].pop("engine")
    return payload


@pytest.mark.parametrize("channels", [1, 2, 4])
@pytest.mark.parametrize("defense", ["None", "DRAM-Locker"])
def test_serving_payloads_identical_across_engines(defense, channels):
    reference = _serving_payload("scalar", defense, channels)
    for engine in FAST_ENGINES:
        assert _serving_payload(engine, defense, channels) == reference, engine


def test_serving_baseline_defense_bulk_matches_scalar():
    # One baseline-defense cell: bulk chunks bounded by the defense's
    # planner instead of a whole-run plan.
    reference = _serving_payload("scalar", "TRR", 2)
    for engine in FAST_ENGINES:
        assert _serving_payload(engine, "TRR", 2) == reference, engine


# ----------------------------------------------------------------------
# Generated grid: streams x defense x locker x relock x TRH x tick offset
# ----------------------------------------------------------------------
LOCKED_ROWS = (9, 11, 21)
STREAM_ROWS = LOCKED_ROWS + (10, 33, 50)

#: One stream segment: ``("act", row, count, as_run)`` -- ``count``
#: attacker ACTs, as a :class:`RequestRun` or a plain list -- or
#: ``("read"|"write", row, _, privileged)``; a privileged access to a
#: locked row opens an unlock-SWAP window.
SEGMENTS = st.lists(
    st.tuples(
        st.sampled_from(("act", "act", "read", "write")),
        st.sampled_from(STREAM_ROWS),
        st.integers(1, 600),
        st.booleans(),
    ),
    min_size=4,
    max_size=12,
)


def _calls(segments):
    """Group segments into controller calls: every ``RequestRun`` is its
    own call, consecutive list segments share one (so same-row ACTs
    from adjacent segments merge into one run)."""
    calls = []
    for kind, row, count, flag in segments:
        if kind == "act":
            request = MemRequest(Kind.ACT, row, privileged=False)
            if flag:
                calls.append(RequestRun(request, count))
                continue
            requests = [request] * count
        else:
            kind = Kind.READ if kind == "read" else Kind.WRITE
            requests = [MemRequest(kind, row, privileged=flag)]
        if calls and isinstance(calls[-1], list):
            calls[-1] += requests
        else:
            calls.append(requests)
    return calls


def _defense_state(defense):
    if defense is None:
        return None
    rng = getattr(defense, "rng", None)
    return (
        defense.mitigation_ns_total,
        defense.actions,
        [defense.translate(row) for row in STREAM_ROWS],
        None if rng is None else rng.bit_generator.state,
    )


def _run_generated(engine, calls, defense, protected, relock_interval,
                   trh, offset_ns):
    builder = DEFENDED_HAMMER_DEFENSES[defense]
    device, controller, locker, installed = _build(
        engine,
        defense_name=defense if builder is not None else None,
        protected=protected or defense == "DRAM-Locker",
        trh=trh,
        relock_interval=relock_interval,
    )
    device.advance(offset_ns)
    results, error = [], None
    for call in calls:
        try:
            results += controller.execute_batch(call)
        except RuntimeError as exc:
            # A swapping defense whose hook fires on a READ/WRITE row
            # miss closes the bank before the data bursts, and the
            # device refuses the access (a known scalar-path defect,
            # see ROADMAP.md).  Both engines must fail on the same
            # request with the same state behind them.
            error = str(exc)
            break
    return (
        error,
        _result_fields(results),
        _device_state(device),
        _locker_state(locker),
        _defense_state(installed),
    )


@pytest.mark.parametrize("defense", sorted(DEFENDED_HAMMER_DEFENSES))
@settings(derandomize=True, max_examples=15, deadline=None)
@given(
    segments=SEGMENTS,
    protected=st.booleans(),
    relock_interval=st.integers(20, 400),
    trh=st.integers(32, 256),
    offset_ns=st.integers(0, 7800),
)
def test_generated_streams_identical_across_engines(
    defense, segments, protected, relock_interval, trh, offset_ns
):
    """Every registered defense (with or without a locker in front)
    over generated ACT lists, ``RequestRun``s and unlock-SWAP openers.
    The defense is a parameter rather than a draw so each one gets its
    own examples: derandomized draws over 14 names leave some unseen."""
    calls = _calls(segments)
    reference = _run_generated(
        "scalar", calls, defense, protected, relock_interval, trh,
        offset_ns,
    )
    for engine in FAST_ENGINES:
        state = _run_generated(
            engine, calls, defense, protected, relock_interval, trh,
            offset_ns,
        )
        assert state == reference, engine


# ----------------------------------------------------------------------
# Generated runs with locker deadlines inside unprivileged ACT runs
# ----------------------------------------------------------------------
#: One call: a privileged READ of a locked row (an unlock-SWAP opener:
#: success schedules a RESTORE, failure exposes the row and schedules a
#: RESECURE) or ``count`` unprivileged ACTs of a row, as a
#: :class:`RequestRun` or a plain list.  Runs target the locked rows
#: (so also the row an opener just exposed or moved) and unlocked ones.
DEADLINE_CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("open"), st.sampled_from(LOCKED_ROWS),
                  st.just(1), st.just(False)),
        st.tuples(st.just("act"), st.sampled_from(STREAM_ROWS),
                  st.integers(1, 40), st.booleans()),
    ),
    min_size=3,
    max_size=16,
)


@settings(derandomize=True, deadline=None)
@given(
    calls=DEADLINE_CALLS,
    relock_interval=st.integers(1, 8),
    copy_error_rate=st.sampled_from((0.0, 0.3, 0.9)),
    offset_ns=st.integers(0, 7800),
)
def test_locker_deadlines_inside_act_runs(
    calls, relock_interval, copy_error_rate, offset_ns
):
    """RESTORE (successful or failed) and RESECURE deadlines that fall
    inside unprivileged ACT runs, on the exposed or moved row and on
    others: the bulk engine fires them where the scalar lookup would,
    before the chunk that request starts is charged."""

    def run(engine):
        device, controller, locker, _ = _build(
            engine,
            protected=True,
            relock_interval=relock_interval,
            copy_error_rate=copy_error_rate,
        )
        device.advance(offset_ns)
        results = []
        for kind, row, count, as_run in calls:
            if kind == "open":
                stream = [MemRequest(Kind.READ, row, privileged=True)]
            else:
                request = MemRequest(Kind.ACT, row, privileged=False)
                stream = (
                    RequestRun(request, count) if as_run else [request] * count
                )
            results += controller.execute_batch(stream)
        return (
            _result_fields(results),
            _device_state(device),
            _locker_state(locker),
        )

    reference = run("scalar")
    for engine in FAST_ENGINES:
        assert run(engine) == reference, engine


# ----------------------------------------------------------------------
# Generated runs across refresh windows and row refreshes
# ----------------------------------------------------------------------
#: Rows early, mid and late in the tiny geometry's 256-row sweep, so
#: the refresh cursor passes them mid-run in every window.
SWEPT_ROWS = (3, 50, 70, 130, 200, 250)


@pytest.mark.parametrize("defense", sorted(DEFENDED_HAMMER_DEFENSES))
@settings(derandomize=True, max_examples=15, deadline=None)
@given(
    runs=st.lists(
        st.tuples(st.sampled_from(SWEPT_ROWS), st.integers(1, 900)),
        min_size=2,
        max_size=5,
    ),
    refs_per_window=st.integers(2, 6),
    trh=st.integers(150, 2000),
    offset_ns=st.integers(0, 7800),
)
def test_chunks_span_refresh_windows(
    defense, runs, refs_per_window, trh, offset_ns
):
    """Hammer runs over a refresh window of a few tREFI, with several
    rows per REF: bulk chunks run through REFs of other rows and must
    stop on the REF that refreshes the hammered row or completes a
    window, for every registered defense."""
    timing = replace(
        DDR4_2400, tref_w=refs_per_window * DDR4_2400.trefi
    )
    builder = DEFENDED_HAMMER_DEFENSES[defense]

    def run(engine):
        device, controller, locker, installed = _build(
            engine,
            defense_name=defense if builder is not None else None,
            protected=defense == "DRAM-Locker",
            trh=trh,
            timing=timing,
        )
        assert device.refresh.rows_per_ref > 1
        device.advance(offset_ns)
        results = []
        for row, count in runs:
            results += controller.execute_batch(
                RequestRun(MemRequest(Kind.ACT, row, privileged=False), count)
            )
        return (
            _result_fields(results),
            _device_state(device),
            _locker_state(locker),
            _defense_state(installed),
            None if installed is None else [
                installed.translate(row) for row in SWEPT_ROWS
            ],
        )

    reference = run("scalar")
    for engine in FAST_ENGINES:
        assert run(engine) == reference, engine
