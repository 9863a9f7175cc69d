"""Baseline defenses: trackers, mitigation behaviour, Table I rows."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller import MemoryController
from repro.defenses import (
    PARA,
    RRS,
    SRS,
    TRR,
    CounterPerRow,
    CounterTree,
    Graphene,
    Hydra,
    MisraGries,
    NoDefense,
    RowPermutation,
    Shadow,
    TWiCE,
    format_table1,
    table1_reports,
)
from repro.dram import DRAMConfig, DRAMDevice, VulnerabilityMap


def make_system(defense, trh=40):
    cfg = DRAMConfig.tiny()
    vuln = VulnerabilityMap(cfg, weak_cell_fraction=0.0)
    device = DRAMDevice(cfg, vulnerability=vuln, trh=trh)
    controller = MemoryController(device, defense=defense)
    return device, controller


def hammer_victim(device, controller, victim=10, bit=0, rounds=None):
    """Double-sided hammer against ``victim``; return True if bit flipped.

    Like a real attacker, stop as soon as the flip lands (flips are XOR
    toggles, so hammering past success would undo it).
    """
    device.vulnerability.register_template(victim, [bit])
    rounds = rounds or device.timing.trh * 3
    for _ in range(rounds):
        for aggressor in (victim - 1, victim + 1):
            controller.hammer(aggressor)
            if device.peek_row(victim)[bit // 8] >> (bit % 8) & 1:
                return True
    return False


class TestMisraGries:
    def test_exact_when_table_big_enough(self):
        mg = MisraGries(k=8)
        for _ in range(5):
            mg.observe(1)
        assert mg.estimate(1) == 5

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=400),
        st.integers(min_value=1, max_value=10),
    )
    def test_classical_error_bound(self, stream, k):
        mg = MisraGries(k=k)
        for item in stream:
            mg.observe(item)
        for item in set(stream):
            true = stream.count(item)
            estimate = mg.estimate(item)
            assert estimate <= true
            assert true - estimate <= len(stream) / (k + 1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(("observe", "observe", "observe", "reset")),
                st.integers(min_value=0, max_value=12),
            ),
            min_size=1,
            max_size=400,
        ),
        st.integers(min_value=1, max_value=8),
    )
    def test_reset_item_frees_the_slot(self, ops, k):
        """Graphene, RRS and SRS reset a row's counter after acting on
        it.  The reset entry must leave the table -- no zero or negative
        counter may hold a slot -- and the error bound holds from each
        item's last reset."""
        mg = MisraGries(k=k)
        since_reset = {}
        for op, item in ops:
            if op == "observe":
                mg.observe(item)
                since_reset[item] = since_reset.get(item, 0) + 1
            else:
                mg.reset_item(item)
                since_reset[item] = 0
            assert len(mg.counters) <= k
            assert all(count >= 1 for count in mg.counters.values())
        for item, true in since_reset.items():
            estimate = mg.estimate(item)
            assert estimate <= true
            assert true - estimate <= mg.observations / (k + 1)

    def test_k_validated(self):
        with pytest.raises(ValueError):
            MisraGries(0)


class TestRowPermutation:
    def test_identity_initially(self):
        perm = RowPermutation()
        assert perm.where(5) == 5 and perm.is_identity()

    def test_swap_and_inverse(self):
        perm = RowPermutation()
        perm.swap_locations(3, 9)
        assert perm.where(3) == 9
        assert perm.where(9) == 3
        assert perm.resident(9) == 3

    def test_swap_back_restores_identity(self):
        perm = RowPermutation()
        perm.swap_locations(3, 9)
        perm.swap_locations(3, 9)
        assert perm.is_identity()

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),
                st.integers(min_value=0, max_value=30),
            ),
            max_size=60,
        )
    )
    def test_remains_a_bijection(self, swaps):
        perm = RowPermutation()
        for a, b in swaps:
            perm.swap_locations(a, b)
        images = [perm.where(i) for i in range(31)]
        assert sorted(images) == list(range(31))


class TestMitigationEffectiveness:
    """Every tracker-based defense must stop a naive double-sided BFA."""

    @pytest.mark.parametrize(
        "defense_factory",
        [
            # PARA's p must scale with 1/TRH; at TRH=40 a strong p is needed.
            lambda: PARA(probability=0.3, seed=1),
            lambda: TRR(table_entries=8),
            lambda: Graphene(table_entries=16),
            lambda: Hydra(group_size=8),
            lambda: TWiCE(),
            lambda: CounterPerRow(),
            # The tree must localize (split) well within TRH=40 activations.
            lambda: CounterTree(split_threshold=2, mitigation_threshold=10),
        ],
        ids=["para", "trr", "graphene", "hydra", "twice", "cpr", "counter-tree"],
    )
    def test_defense_prevents_templated_flip(self, defense_factory):
        device, controller = make_system(defense_factory())
        assert not hammer_victim(device, controller)

    def test_undefended_system_flips(self):
        device, controller = make_system(NoDefense())
        assert hammer_victim(device, controller)

    def test_swap_based_defenses_relocate_target(self):
        for defense in (RRS(seed=2), SRS(seed=2), Shadow(shuffle_period=10, seed=2)):
            device, controller = make_system(defense)
            hammer_victim(device, controller, victim=10)
            # The data the attacker aimed at moved at least once.
            assert defense.translate(10) != 10 or defense.permutation.is_identity() is False


class TestTRR:
    def test_small_table_evicts_cold_entries(self):
        device, controller = make_system(TRR(table_entries=2, threshold=100))
        defense = controller.defense
        for row in (1, 3, 5, 7):
            controller.hammer(row)
        assert len(defense._counts) <= 2

    def test_threshold_mitigation_resets_count(self):
        defense = TRR(table_entries=4, threshold=5)
        device, controller = make_system(defense)
        controller.hammer(9, count=5)
        assert defense._counts[9] == 0
        assert defense.actions >= 1


class TestHydra:
    def test_escalation_to_row_counters(self):
        defense = Hydra(group_size=4, group_threshold=3, row_threshold=100)
        device, controller = make_system(defense)
        controller.hammer(8, count=5)
        assert (8 // 4) in defense._escalated
        assert defense.row_counter_accesses > 0

    def test_row_counter_access_costs_latency(self):
        defense = Hydra(group_size=4, group_threshold=2, row_threshold=1000)
        device, controller = make_system(defense)
        results = controller.hammer(8, count=5)
        assert results[-1].defense_ns > 0


class TestCounterTree:
    def test_splits_concentrate_counters(self):
        defense = CounterTree(split_threshold=4, mitigation_threshold=1000)
        device, controller = make_system(defense)
        controller.hammer(9, count=40)
        assert defense.splits > 0
        assert defense.live_counters() >= 2

    def test_window_rollover_resets_tree(self):
        defense = CounterTree(split_threshold=4, mitigation_threshold=1000)
        device, controller = make_system(defense)
        controller.hammer(9, count=40)
        device.advance(device.timing.tref_w * 1.1)
        controller.hammer(9, count=1)
        assert defense.splits == 0


class TestTWiCE:
    def test_pruning_drops_cold_rows(self):
        defense = TWiCE(threshold=10_000, prune_period=8, prune_min_count=2)
        device, controller = make_system(defense)
        for row in range(8):  # eight distinct one-shot rows
            controller.hammer(row)
        assert defense.pruned_entries >= 7


class TestShadowBehaviour:
    def test_shuffle_moves_data(self):
        device, controller = make_system(Shadow(shuffle_period=5, seed=0))
        defense = controller.defense
        device.poke_bytes(9, 0, [0x77])
        controller.hammer(9, count=10)
        assert defense.shuffles_performed >= 1
        location = defense.translate(9)
        assert device.peek_row(location)[0] == 0x77

    def test_controller_follows_translation(self):
        device, controller = make_system(Shadow(shuffle_period=3, seed=0))
        device.poke_bytes(9, 0, [0x42])
        controller.hammer(9, count=6)
        result = controller.read(9)
        assert result.physical_row == controller.defense.translate(9)

    def test_shuffle_period_validated(self):
        with pytest.raises(ValueError):
            Shadow(shuffle_period=0)


class TestTable1:
    def test_paper_rows_reproduced(self):
        table = format_table1()
        assert "Graphene         CAM-SRAM         0.53MB‡+1.12MB†" in table
        assert "Hydra            SRAM-DRAM        56KB†+4MB*" in table
        assert "TWiCE            SRAM-CAM         3.16MB†+1.6MB‡" in table
        assert "Counter per Row  DRAM             32MB*" in table
        assert "Counter Tree     DRAM             2MB*" in table
        assert "RRS              DRAM-SRAM        4MB*+NR†" in table
        assert "SRS              DRAM-SRAM        1.26MB*+NR†" in table
        assert "SHADOW           DRAM             0.16MB*" in table
        assert "P-PIM            DRAM             4.125MB*" in table
        assert "DRAM-Locker      DRAM-SRAM        0+56KB†" in table

    def test_dram_locker_has_smallest_area(self):
        reports = {r.framework: r for r in table1_reports()}
        locker = reports["DRAM-Locker"]
        assert locker.area_pct == 0.02
        for name, report in reports.items():
            if report.area_pct is not None and name != "DRAM-Locker":
                assert report.area_pct > locker.area_pct

    def test_counter_per_row_derivation(self):
        cfg = DRAMConfig.ddr4_32gb()
        report = CounterPerRow().overhead(cfg)
        assert report.capacity["DRAM"] == cfg.total_rows * 8 == 32 * 1024 ** 2

    def test_hydra_dram_side_derivation(self):
        cfg = DRAMConfig.ddr4_32gb()
        report = Hydra().overhead(cfg)
        assert report.capacity["DRAM"] == cfg.total_rows == 4 * 1024 ** 2

    def test_area_column_formats(self):
        reports = {r.framework: r for r in table1_reports()}
        assert reports["Counter per Row"].area_text() == "16384 counters"
        assert reports["RRS"].area_text() == "NULL"
        assert reports["SHADOW"].area_text() == "0.6%"
