"""The benchmark's three workloads, driven through ``repro``'s public API.

Each workload is set up once per repeat (:meth:`setup`, timed as
``setup_s``) and then runs *rounds*.  A round is a generator: it
yields :data:`READY` when its own construction is done (the step clock
restarts there) and ``None`` after each step, and returns a
:class:`RoundResult`.  The correctness checks (``check_*``) are pure
functions of the round's payload; each failure they report names one
failed step or one failed round-level check.  Rounds of one seed
repeat the same work, so their payloads must be equal.

Work per run is fixed by ``--seconds`` through nominal round lengths
measured on a 2-CPU x86-64 host with Python 3.11 (:meth:`plan`), not by
the clock: the same seconds give the same steps on every commit, so a
faster commit finishes sooner instead of doing more.
"""

from __future__ import annotations

import math
import os
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.attacks.bfa import BFAConfig, ProgressiveBitSearch
from repro.defenses.builders import DEFENDED_HAMMER_DEFENSES
from repro.eval import harness
from repro.eval.experiments import Scale, build_system, build_victim
from repro.nn.cache import VictimCache
from repro.seeds import derive_seed
from repro.serving.engine import ServingConfig, ServingSimulation
from repro.serving.workload import GuardRowTenant

from measure import percentile

__all__ = [
    "READY",
    "WORKLOADS",
    "RoundResult",
    "check_fig8",
    "check_hammer",
    "check_serve",
    "slug",
]

#: Yielded by a round when its set-up is done and its first step begins.
READY = "ready"


@dataclass
class RoundResult:
    """What one round produced, beside its per-step times."""

    #: Deterministic outputs: equal across rounds of one seed, and
    #: between the traced and the untraced run.
    payload: dict
    #: Correctness failures: one per failed step or round-level check.
    failures: list[str]
    #: Simulated requests completed, and the simulated time they took.
    sim_requests: int
    sim_ns: float
    sim_p99_us: float
    #: Work counters the per-layer metrics read (session, locker and
    #: controller tallies).
    counters: dict = field(default_factory=dict)
    #: Human-readable facts printed before the result line.
    notes: dict = field(default_factory=dict)


def slug(defense: str) -> str:
    return defense.lower().replace("/", "-")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _locker_counters(summaries) -> dict:
    swaps = sum(s["unlock_swaps"] for s in summaries)
    failed = sum(s["failed_unlock_swaps"] for s in summaries)
    return {
        "locker.swaps": swaps,
        "locker.swap_failure_ratio": _ratio(failed, swaps),
        "locker.exposures": sum(s["exposure_windows"] for s in summaries),
    }


def _controller_counters(activates: float, blocked: float) -> dict:
    acts = activates + blocked
    return {"controller.acts": acts, "controller.blocked_ratio": _ratio(blocked, acts)}


#: What the locker had done when a protected row flipped.
EXPOSED = "exposed"  # an exposure window was open
AFTER_FAILURE = "after-failure"  # none open, but a SWAP had failed
UNEXPLAINED = "unexplained"  # no SWAP had failed yet


def _exposure_witness(locker, device, rows, flags: list) -> None:
    """Record, for every bit flip in one of the protected ``rows`` of
    ``device``, what the locker had done: a protected row flips only
    after a SWAP failed (an unlock-SWAP, which opens an exposure window,
    or a restore)."""
    rows = frozenset(rows)

    def witness(flip) -> None:
        if flip.row not in rows:
            return
        if locker.exposed:
            flags.append(EXPOSED)
        elif locker.failed_unlock_swaps or locker.failed_restores:
            flags.append(AFTER_FAILURE)
        else:
            flags.append(UNEXPLAINED)

    device.add_flip_listener(witness)


def check_fig8(payload: dict) -> list[str]:
    """Fig. 8 checks.  Unlocked arm: every campaign lands and accuracy
    ends below clean.  Locked arm: every flip comes after a SWAP failure
    (:func:`_exposure_witness`), no accuracy is lost without a flip, and
    fewer than half as many flips land as on the unlocked arm (the
    repo's Fig. 8 shape)."""
    clean = payload["clean_accuracy"]
    unlocked, locked = payload["unlocked"], payload["locked"]
    failures = [
        f"unlocked iteration {i + 1}: the campaign did not flip its bit"
        for i, flip in enumerate(unlocked["flips"])
        if not flip[3]
    ]
    failures += [
        f"locked iteration {i + 1}: a bit flipped before any SWAP failed"
        for i, witnessed in enumerate(locked["witness"])
        if UNEXPLAINED in witnessed
    ]
    if not unlocked["final_accuracy"] < clean:
        failures.append("unlocked arm: accuracy did not fall below clean")
    if locked["executed_flips"] == 0 and locked["final_accuracy"] != clean:
        failures.append("locked arm: accuracy changed without a flip")
    if not locked["executed_flips"] < unlocked["executed_flips"] / 2:
        failures.append("locked arm: flips not below half the unlocked arm's")
    return failures


def check_serve(payload: dict) -> list[str]:
    """Serving checks: every victim flip comes after its channel's
    locker had a SWAP failure, and every SLA book has
    ``requests == issued + blocked``."""
    failures = [
        f"slice {i + 1}: a bit flipped before any SWAP failed"
        for i, witnessed in enumerate(payload["witness"])
        if UNEXPLAINED in witnessed
    ]
    sla = payload["sla"]
    books = [("aggregate", sla["aggregate"]), *sla["tenants"].items()]
    failures += [
        f"{name}: requests != issued + blocked"
        for name, book in books
        if book["requests"] != book["issued"] + book["blocked"]
    ]
    return failures


def check_hammer(payload: dict, victims: int) -> list[str]:
    """Defended-hammer checks: every cell ran; DRAM-Locker flips no
    victim and issues no campaign ACT; the undefended cell flips every
    victim."""
    failures = [f"{d}: {cell['error']}" for d, cell in payload.items() if "error" in cell]
    locker = payload.get("DRAM-Locker", {})
    if "outcomes" in locker and (
        locker["protected_bits_flipped"] or any(o["issued"] for o in locker["outcomes"])
    ):
        failures.append("DRAM-Locker: a campaign ACT was issued or a victim flipped")
    undefended = payload.get("None", {})
    if "outcomes" in undefended and undefended["protected_bits_flipped"] != victims:
        failures.append("None: not every victim flipped")
    return failures


class Fig8:
    """Paper Fig. 8 (ResNet-20, ``Scale.quick()``): progressive BFA on
    the unlocked and the locked system, interleaved; one step is one BFA
    iteration on each arm.

    Interleaving keeps the steps alike: a locked-arm iteration whose
    flip was blocked reuses the session's cached gradients and probes
    and costs a fifth of an unlocked one, so run arm after arm the step
    times split into two clusters and their median fell on the edge.
    """

    name = "fig8-resnet20"
    setup_repeats = 3
    #: Nominal round length: 25 iterations on each arm (10-15 s).
    round_seconds = 15.0
    trace_size = Scale.quick().attack_iterations

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        # run_fig8's configuration (Scale.quick(): every seed 0, tenant
        # stream seed 1), whatever the run's seed: which bits a seed's
        # attack batch targets sets the cost of each BFA iteration, and
        # moved steps/s by +-12% across seeds 11-14.
        self.scale = Scale.quick()

    def plan(self, seconds: float) -> tuple[int, int]:
        return max(1, math.ceil(seconds / self.round_seconds)), self.scale.attack_iterations

    def setup(self):
        """Cold-train the victim through a fresh, private victim cache."""
        cache = VictimCache(directory=tempfile.mkdtemp(dir=self.workdir))
        dataset, qmodel = build_victim("resnet20", self.scale, cache=cache)
        if cache.stats.hits or cache.stats.stores != 1:
            raise RuntimeError(f"victim cache was not cold: {cache.stats}")
        clean = qmodel.model.accuracy(dataset.test_x, dataset.test_y)
        return cache, clean

    def round(self, victim, iterations: int, tracer=None):
        cache, clean = victim
        config = BFAConfig(attack_batch=self.scale.attack_batch, seed=self.scale.seed)
        arms = {}
        for label, protected in (("unlocked", False), ("locked", True)):
            # Each arm attacks its own copy, loaded from the warm cache.
            dataset, qmodel = build_victim("resnet20", self.scale, cache=cache)
            system = build_system(qmodel, protected=protected, seed=self.scale.seed)
            flags: list[str] = []
            hook = None
            if protected:
                hook = GuardRowTenant(system.store, system.controller, seed=1)
                _exposure_witness(system.locker, system.device, system.store.data_rows, flags)
            attack = ProgressiveBitSearch(
                qmodel,
                dataset,
                config,
                store=system.store,
                driver=system.driver,
                before_execute=hook,
            )
            arms[label] = (system, attack, flags, [], [])
        step_sim_ns = []
        yield READY
        for _ in range(iterations):
            for system, attack, flags, records, witness in arms.values():
                before, seen = system.device.now_ns, len(flags)
                records.append(attack.run(1).flips[0])
                step_sim_ns.append(system.device.now_ns - before)
                witness.append(flags[seen:])
            yield

        payload = {"clean_accuracy": clean}
        activates = blocked = sim_ns = 0
        for label, (system, attack, _, records, witness) in arms.items():
            arm = payload[label] = {
                "flips": [
                    (r.tensor, r.flat_index, r.bit, r.executed, r.activations_blocked)
                    for r in records
                ],
                "accuracies": [r.accuracy_after for r in records],
                "losses": [r.loss_after for r in records],
                "executed_flips": sum(1 for r in records if r.executed),
                "final_accuracy": records[-1].accuracy_after,
            }
            if system.locker is not None:
                arm["witness"] = witness
                arm["locker"] = system.locker.exposure_summary()
            activates += system.device.stats.activates
            blocked += system.device.stats.blocked_requests
            sim_ns += system.device.now_ns
        sessions = [attack.session.stats for _, attack, *_ in arms.values()]

        def total(attr: str) -> int:
            return sum(getattr(stats, attr) for stats in sessions)

        probes = total("probe_hits") + total("probe_misses")
        grads = total("grad_hits") + total("grad_misses")
        locked = payload["locked"]
        counters = {
            "attacks.candidate_evals": total("candidate_evals"),
            "attacks.probe_lookups": probes,
            "attacks.probe_hit_ratio": _ratio(total("probe_hits"), probes),
            "attacks.grad_lookups": grads,
            "attacks.grad_hit_ratio": _ratio(total("grad_hits"), grads),
            **_locker_counters([locked["locker"]]),
            **_controller_counters(activates, blocked),
        }
        notes = {
            "clean_accuracy": clean,
            "unlocked_final_accuracy": payload["unlocked"]["final_accuracy"],
            "locked_final_accuracy": locked["final_accuracy"],
            "locked_acc_drop_pp": clean - locked["final_accuracy"],
            "locked_executed_flips": locked["executed_flips"],
            "locked_exposure_windows": locked["locker"]["exposure_windows"],
        }
        return RoundResult(
            payload,
            check_fig8(payload),
            activates + blocked,
            sim_ns,
            percentile(step_sim_ns, 99) / 1e3,
            counters,
            notes,
        )


class Serve:
    """16-channel serving under DRAM-Locker with a co-located attacker
    and a bit victim per channel; one step is one time slice."""

    name = "serve-locker-ch16"
    setup_repeats = 5
    #: Slices per second of ``--seconds`` (240 slices take 1.6-2.6 s).
    slices_per_second = 180.0
    trace_size = 240

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def plan(self, seconds: float) -> tuple[int, int]:
        return 1, max(1, round(seconds * self.slices_per_second))

    def config(self, slices: int) -> ServingConfig:
        return ServingConfig(
            channels=16,
            defense="DRAM-Locker",
            colocated=True,
            engine="bulk",
            slices=slices,
            seed=self.seed,
        )

    def setup(self):
        """Build the 16-channel system (devices, lockers, tenants)."""
        return ServingSimulation(self.config(self.trace_size))

    def round(self, _state, slices: int, tracer=None):
        sim = ServingSimulation(self.config(slices))
        flags: list[str] = []
        located = [sim.system.locate(row) for row in sim.victim_rows]
        for channel in sim.system.channels:
            rows = [local for owner, local in located if owner is channel]
            _exposure_witness(channel.locker, channel.device, rows, flags)
        witness = []
        yield READY
        for index in range(slices):
            # ServingSimulation.run's loop, one slice per step.
            seen = len(flags)
            for op in sim.generator.slice_ops(index):
                sim.serve_op(op.tenant, op.kind, op.requests)
            sim.end_slice()
            witness.append(flags[seen:])
            yield
        payload = sim.payload()
        payload["witness"] = witness
        sla = payload["sla"]
        stats = payload["memory_stats"]
        counters = {
            **_locker_counters(sla["locker"].values()),
            **_controller_counters(stats["activates"], stats["blocked_requests"]),
        }
        notes = {
            "victim_flip_events": payload["victim"]["victim_flip_events"],
            "protected_bits_flipped": payload["victim"]["protected_bits_flipped"],
            "flips_in_exposure_windows": flags.count(EXPOSED),
            "flips_after_a_swap_failure": flags.count(AFTER_FAILURE),
        }
        return RoundResult(
            payload,
            check_serve(payload),
            sla["aggregate"]["requests"],
            sla["aggregate"]["sim_seconds"] * 1e9,
            sla["tenants"]["tenant-0"]["latency_ns"]["p99"] / 1e3,
            counters,
            notes,
        )


class Hammer:
    """Defended double-sided hammering through the harness: one
    ``defended_hammer`` scenario per defense cell (bulk engine,
    TRH 3000, 16 victims); one step is one cell."""

    name = "hammer-defenses"
    setup_repeats = 5
    #: Nominal round length: every cell once (1.6-3 s).
    round_seconds = 3.0
    victims = 16
    trace_size = victims

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        # The defended-hammer runner is deterministic and takes no
        # seed; the seed only orders the cells.
        self.cells = sorted(DEFENDED_HAMMER_DEFENSES, key=lambda d: derive_seed(d, seed))

    def plan(self, seconds: float) -> tuple[int, int]:
        return max(1, math.ceil(seconds / self.round_seconds)), self.victims

    def scenario(self, defense: str, victims: int) -> harness.Scenario:
        return harness.Scenario(
            f"hammer-{slug(defense)}",
            "defended_hammer",
            Scale.quick(),
            seed=self.seed,
            params=(
                ("defense", defense),
                ("engine", "bulk"),
                ("trh", 3000),
                ("victims", victims),
            ),
        )

    def setup(self):
        """Every cell's system, built and dispatched with no victims."""
        for defense in self.cells:
            result = harness.run_scenario(self.scenario(defense, 0))
            if not result.ok:
                raise RuntimeError(result.error)

    def round(self, _state, victims: int, tracer=None):
        payload = {}
        campaign_ns = []
        requests = sim_ns = activates = blocked = 0
        yield READY
        for defense in self.cells:
            scope = tracer.cell(defense) if tracer is not None else nullcontext()
            with scope:
                # Through the module attribute, so a traced run sees it.
                result = harness.run_scenario(self.scenario(defense, victims))
            if not result.ok:
                payload[defense] = {"error": result.error.strip().splitlines()[-1]}
                yield
                continue
            cell = payload[defense] = result.payload
            stats = cell["memory_stats"]
            cell_ns = stats["busy_ns"] + stats["defense_ns"]
            requests += sum(o["issued"] + o["blocked"] for o in cell["outcomes"])
            sim_ns += cell_ns
            campaign_ns.append(cell_ns / max(1, victims))
            activates += stats["activates"]
            blocked += stats["blocked_requests"]
            yield
        # The DRAM-Locker cell blocks every campaign ACT (checked), so
        # no unlock-SWAP or exposure window occurs on this workload.
        counters = {
            **_locker_counters([]),
            **_controller_counters(activates, blocked),
        }
        notes = {
            "flips": {d: c.get("protected_bits_flipped") for d, c in payload.items()},
        }
        return RoundResult(
            payload,
            check_hammer(payload, victims),
            requests,
            sim_ns,
            percentile(campaign_ns, 99) / 1e3 if campaign_ns else 0.0,
            counters,
            notes,
        )


WORKLOADS = {wl.name: wl for wl in (Fig8, Serve, Hammer)}


def scratch_dir(root: str) -> str:
    """The run's private scratch directory inside the checkout."""
    path = os.path.join(root, "perfbench", "out")
    os.makedirs(path, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=path)
