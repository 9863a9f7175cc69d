"""The benchmark-regression gate table behind the nightly CI gate."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.eval.regression import check, load_artifact, protected_accuracies

ARTIFACTS = Path(__file__).resolve().parents[1] / "benchmarks" / "artifacts"


def check_main(argv):
    sys.path.insert(0, str(ARTIFACTS.parent))
    try:
        from check_regression import main
    finally:
        sys.path.pop(0)
    return main(argv)


def artifact(total_s=10.0, results=None):
    return {
        "schema": "dram-locker-bench/1",
        "results": results or {},
        "timing": {"total_s": total_s},
    }


LOCKED_ATTACK = {"protected": True, "final_accuracy": 90.0}
OPEN_ATTACK = {"protected": False, "final_accuracy": 12.0}
FIG8 = {"stats": {"with DRAM-Locker": {"final_accuracy": 88.0},
                  "without DRAM-Locker": {"final_accuracy": 11.0}}}


class TestProtectedAccuracies:
    def test_extracts_attack_and_curve_payloads(self):
        doc = artifact(results={
            "a-locked": LOCKED_ATTACK,
            "a-open": OPEN_ATTACK,
            "fig8": FIG8,
            "cheap": {"rows": [1, 2]},
        })
        assert protected_accuracies(doc) == {"a-locked": 90.0, "fig8": 88.0}

    def test_skips_errored_scenarios(self):
        doc = artifact(results={"bad": {"error": "Traceback ..."}})
        assert protected_accuracies(doc) == {}


class TestCompare:
    def test_clean_comparison_passes(self):
        base = artifact(10.0, {"a-locked": LOCKED_ATTACK})
        cur = artifact(10.5, {"a-locked": dict(LOCKED_ATTACK)})
        report = check(cur, base)
        assert report.ok
        assert len(report.checks) == 2  # runtime + one accuracy

    def test_runtime_regression_fails(self):
        report = check(artifact(12.0), artifact(10.0))
        assert not report.ok
        assert "runtime" in report.violations[0]

    def test_runtime_within_tolerance_passes(self):
        # limit 11.00s: runtime may grow at most 10%
        assert check(artifact(10.9), artifact(10.0)).ok
        assert not check(artifact(11.1), artifact(10.0)).ok

    def test_protected_accuracy_drop_fails(self):
        base = artifact(10.0, {"a-locked": {"protected": True,
                                            "final_accuracy": 90.0}})
        cur = artifact(10.0, {"a-locked": {"protected": True,
                                           "final_accuracy": 70.0}})
        report = check(cur, base)
        assert not report.ok
        assert "a-locked" in report.violations[0]

    def test_unprotected_accuracy_is_not_gated(self):
        """The attack is SUPPOSED to wreck the open victim; only the
        protected accuracy is a regression signal."""
        base = artifact(10.0, {"a-open": {"protected": False,
                                          "final_accuracy": 50.0}})
        cur = artifact(10.0, {"a-open": {"protected": False,
                                         "final_accuracy": 5.0}})
        assert check(cur, base).ok

    def test_missing_scenario_fails(self):
        base = artifact(10.0, {"a-locked": LOCKED_ATTACK})
        report = check(artifact(10.0), base)
        assert not report.ok
        assert "missing" in report.violations[0]

    def test_errored_current_scenario_fails(self):
        cur = artifact(10.0, {"x": {"error": "ValueError: nope"}})
        report = check(cur, artifact(10.0))
        assert not report.ok
        assert "failed" in report.violations[0]

    def test_summary_mentions_everything(self):
        base = artifact(10.0, {"a-locked": LOCKED_ATTACK})
        cur = artifact(20.0, {"a-locked": {"protected": True,
                                           "final_accuracy": 10.0}})
        summary = check(cur, base).summary()
        assert "REGRESSION" in summary and "runtime" in summary


class TestLoadArtifact:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps(artifact(3.0)))
        assert load_artifact(str(path))["timing"]["total_s"] == 3.0


# ----------------------------------------------------------------------
# The attack-search microbenchmark gate
# ----------------------------------------------------------------------
def search_artifact(families=None, pool_identical=True):
    from repro.eval.regression import ATTACK_SEARCH_SCHEMA

    return {
        "schema": ATTACK_SEARCH_SCHEMA,
        "families": families or {},
        "pool": {"results_identical": pool_identical},
        "timing": {"total_s": 60.0},
    }


CELL = {"full_s": 6.0, "suffix_s": 1.5, "speedup": 4.0,
        "results_identical": True}


class TestCompareAttackSearch:
    def test_matching_artifacts_pass(self):
        doc = search_artifact({"tbfa-locked": dict(CELL)})
        report = check(doc, doc)
        assert report.ok
        assert "tbfa-locked" in report.summary()

    def test_divergent_engine_fails(self):
        bad = dict(CELL, results_identical=False)
        report = check(
            search_artifact({"bfa-locked": bad}),
            search_artifact({"bfa-locked": dict(CELL)}),
        )
        assert not report.ok
        assert "diverged" in report.violations[0]

    def test_speedup_ratio_regression_fails(self):
        slow = dict(CELL, speedup=2.0)
        report = check(
            search_artifact({"bfa-locked": slow}),
            search_artifact({"bfa-locked": dict(CELL)}),
        )
        assert not report.ok
        assert "floor 2.60x" in report.violations[0]

    def test_speedup_within_tolerance_passes(self):
        slightly_slow = dict(CELL, speedup=2.7)
        report = check(
            search_artifact({"bfa-locked": slightly_slow}),
            search_artifact({"bfa-locked": dict(CELL)}),
        )
        assert report.ok

    def test_missing_speedup_is_reported_not_raised(self):
        malformed = {key: value for key, value in CELL.items() if key != "speedup"}
        report = check(
            search_artifact({"bfa-locked": malformed}),
            search_artifact({"bfa-locked": dict(CELL)}),
        )
        assert report.violations == ["bfa-locked: current artifact has no 'speedup'"]

    def test_missing_family_fails(self):
        report = check(
            search_artifact({}),
            search_artifact({"bfa-locked": dict(CELL)}),
        )
        assert not report.ok
        assert "missing" in report.violations[0]

    def test_pool_divergence_fails(self):
        report = check(
            search_artifact({}, pool_identical=False), search_artifact({})
        )
        assert not report.ok

    def test_cli_dispatches_on_schema(self, tmp_path, capsys):
        current = tmp_path / "BENCH_attack_search.json"
        baseline = tmp_path / "BENCH_attack_search_baseline.json"
        doc = search_artifact({"tbfa-locked": dict(CELL)})
        current.write_text(json.dumps(doc))
        baseline.write_text(json.dumps(doc))
        assert check_main([str(current), str(baseline)]) == 0
        assert "speedup" in capsys.readouterr().out


# ----------------------------------------------------------------------
# The defended-hammer microbenchmark gate
# ----------------------------------------------------------------------
def hammer_artifact(defenses=None):
    from repro.eval.regression import DEFENDED_HAMMER_SCHEMA

    return {
        "schema": DEFENDED_HAMMER_SCHEMA,
        "trh": 3000,
        "defenses": defenses or {},
        "timing": {"total_s": 10.0},
    }


HAMMER_CELL = {"scalar_s": 0.18, "bulk_s": 0.01, "speedup": 18.0,
               "results_identical": True}


class TestCompareDefendedHammer:
    def test_matching_artifacts_pass(self):
        doc = hammer_artifact({"trr": dict(HAMMER_CELL)})
        report = check(doc, doc)
        assert report.ok
        assert "trr" in report.summary()

    def test_divergent_engine_fails(self):
        bad = dict(HAMMER_CELL, results_identical=False)
        report = check(
            hammer_artifact({"para": bad}),
            hammer_artifact({"para": dict(HAMMER_CELL)}),
        )
        assert not report.ok
        assert "diverged" in report.violations[0]

    def test_speedup_ratio_regression_fails(self):
        slow = dict(HAMMER_CELL, speedup=4.0)
        report = check(
            hammer_artifact({"trr": slow}),
            hammer_artifact({"trr": dict(HAMMER_CELL)}),
        )
        assert not report.ok
        assert "floor 11.70x" in report.violations[0]

    def test_missing_defense_fails(self):
        report = check(
            hammer_artifact({}),
            hammer_artifact({"hydra": dict(HAMMER_CELL)}),
        )
        assert not report.ok
        assert "missing" in report.violations[0]

    def test_cli_dispatches_on_schema(self, tmp_path, capsys):
        current = tmp_path / "BENCH_defended_hammer.json"
        baseline = tmp_path / "BENCH_defended_hammer_baseline.json"
        doc = hammer_artifact({"graphene": dict(HAMMER_CELL)})
        current.write_text(json.dumps(doc))
        baseline.write_text(json.dumps(doc))
        assert check_main([str(current), str(baseline)]) == 0
        assert "graphene" in capsys.readouterr().out


def runtable_artifact(**overrides):
    from repro.eval.regression import RUNTABLE_BENCH_SCHEMA

    document = {
        "schema": RUNTABLE_BENCH_SCHEMA,
        "checkpoint": {
            "cells": 8,
            "results_identical": True,
            "overhead_ratio": 1.2,
        },
        "recovery": {
            "journal_lines_at_kill": 2,
            "resumed_cells": 2,
            "resume_identical": True,
        },
        "chaos": {
            "cells": 4,
            "quarantined": 1,
            "errors": 1,
            "recovered": 1,
            "channel_fault": {
                "conserved": True,
                "offered_ops": 53,
                "served_ops": 45,
                "shed_ops": 8,
                "victim_flip_events": 0,
            },
        },
    }
    for key, value in overrides.items():
        document[key] = {**document[key], **value}
    return document


class TestCompareRuntable:
    def test_identical_passes(self):
        report = check(runtable_artifact(), runtable_artifact())
        assert report.ok and len(report.checks) >= 6

    def test_checkpoint_divergence_fails(self):
        report = check(
            runtable_artifact(checkpoint={"results_identical": False}),
            runtable_artifact(),
        )
        assert not report.ok
        assert "diverged from plain run_matrix" in report.violations[0]

    def test_resume_divergence_fails(self):
        report = check(
            runtable_artifact(recovery={"resume_identical": False}),
            runtable_artifact(),
        )
        assert not report.ok

    def test_unexercised_recovery_fails(self):
        report = check(
            runtable_artifact(recovery={"journal_lines_at_kill": 0}),
            runtable_artifact(),
        )
        assert not report.ok
        assert "resume path not exercised" in report.violations[0]

    def test_quarantine_count_is_pinned(self):
        report = check(
            runtable_artifact(chaos={"quarantined": 2}),
            runtable_artifact(),
        )
        assert not report.ok

    def test_conservation_break_fails(self):
        broken = runtable_artifact()
        broken["chaos"]["channel_fault"] = dict(
            broken["chaos"]["channel_fault"], conserved=False
        )
        report = check(broken, runtable_artifact())
        assert not report.ok

    def test_victim_flips_fail(self):
        flipped = runtable_artifact()
        flipped["chaos"]["channel_fault"] = dict(
            flipped["chaos"]["channel_fault"], victim_flip_events=3
        )
        assert not check(flipped, runtable_artifact()).ok

    def test_overhead_ratio_tolerance(self):
        # ceiling 2.10x over the 1.2x baseline at the fixed 75% tolerance
        bloated = runtable_artifact(checkpoint={"overhead_ratio": 2.2})
        assert not check(bloated, runtable_artifact()).ok
        tolerable = runtable_artifact(checkpoint={"overhead_ratio": 2.0})
        assert check(tolerable, runtable_artifact()).ok

    def test_cli_dispatches_on_runtable_schema(self, tmp_path, capsys):
        current = tmp_path / "BENCH_runtable.json"
        baseline = tmp_path / "BENCH_runtable_baseline.json"
        doc = runtable_artifact()
        current.write_text(json.dumps(doc))
        baseline.write_text(json.dumps(doc))
        assert check_main([str(current), str(baseline)]) == 0
        assert "SIGKILL" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Schema selection: no silent fallback to another gate
# ----------------------------------------------------------------------
class TestSchemaSelection:
    def test_check_names_both_schemas(self):
        with pytest.raises(ValueError, match="'x/1'.*'dram-locker-bench/1'"):
            check({"schema": "x/1"}, artifact())

    def test_cli_exits_2_on_unknown_schema(self, tmp_path):
        typo = load_artifact(str(ARTIFACTS / "BENCH_serving.json"))
        typo["schema"] = "dram-locker-serving-bench/2"
        current = tmp_path / "BENCH_serving.json"
        current.write_text(json.dumps(typo))
        baseline = ARTIFACTS / "BENCH_serving_baseline.json"
        assert check_main([str(current), str(baseline)]) == 2

    def test_cli_exits_2_on_schema_mismatch(self):
        current = ARTIFACTS / "BENCH_runtable.json"
        baseline = ARTIFACTS / "BENCH_serving_baseline.json"
        assert check_main([str(current), str(baseline)]) == 2

    def test_cli_exits_2_on_ungated_schema(self, capsys):
        current = str(ARTIFACTS / "BENCH_victim_cache.json")
        assert check_main([current, current]) == 2
        assert "victim-cache" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Differential: the table neither drops nor loosens a comparator check
# ----------------------------------------------------------------------
def mutation_sites(node, path=()):
    """Every single-key mutation of an artifact: delete each dict key,
    negate each bool, and map each number to ``x*0.5`` and ``x*2+1``.
    The top-level ``schema`` selects the gate rather than being gated
    (see :class:`TestSchemaSelection`), so it is not a site."""
    if isinstance(node, dict):
        for key, value in node.items():
            if path or key != "schema":
                yield path + (key,), "del"
            yield from mutation_sites(value, path + (key,))
    elif isinstance(node, bool):
        yield path, "not"
    elif isinstance(node, (int, float)):
        yield path, "half"
        yield path, "grow"


def mutate(node, path, op):
    """A copy of ``node`` with one mutation at ``path`` (only the dicts
    along the path are copied, so key order is preserved)."""
    node = dict(node)
    key = path[0]
    if len(path) > 1:
        node[key] = mutate(node[key], path[1:], op)
    elif op == "del":
        del node[key]
    elif op == "not":
        node[key] = not node[key]
    else:
        node[key] = node[key] * 0.5 if op == "half" else node[key] * 2 + 1
    return node


def mutation_digest(current, baseline, outcome):
    """Digest of ``outcome`` over every mutation of either side, plus the
    mutation count and how many came out ``"raised"``."""
    records = []
    for side in (0, 1):
        for path, op in mutation_sites((current, baseline)[side]):
            pair = [current, baseline]
            pair[side] = mutate(pair[side], path, op)
            records.append([side, list(path), op, outcome(*pair)])
    blob = json.dumps(records).encode()
    raised = sum(record[-1] == "raised" for record in records)
    return len(records), raised, hashlib.sha256(blob).hexdigest()[:16]


def table_outcome(current, baseline):
    """The gate table's sorted violations and checks -- ``"raised"``
    when it reported a malformed artifact, the cases where the
    comparators raised instead of reporting."""
    report = check(current, baseline)
    if any(" artifact has no " in violation for violation in report.violations):
        return "raised"
    return [sorted(report.violations), sorted(report.checks)]


#: Per (current, baseline) pair: mutations, mutations on which the
#: hand-written comparators raised, and the digest of the comparators'
#: outcomes at the workflow tolerances (``"raised"`` where they raised).
DIFFERENTIAL = {
    ('BENCH_attack_search.json', 'BENCH_attack_search_baseline.json'): (234, 16, '5b266051cd4f32b2'),
    ('BENCH_bakeoff.json', 'BENCH_bakeoff_baseline.json'): (2332, 0, '1b1c30d0d5321780'),
    ('BENCH_defended_hammer.json', 'BENCH_defended_hammer_baseline.json'): (418, 22, 'd45343e94f69a134'),
    ('BENCH_obs.json', 'BENCH_obs_baseline.json'): (218, 0, '401647f821ae525a'),
    ('BENCH_runtable.json', 'BENCH_runtable_baseline.json'): (144, 0, 'd394104fb21197f8'),
    ('BENCH_serving.json', 'BENCH_serving_baseline.json'): (1528, 6, 'c2f965e98ede78e1'),
    ('BENCH_serving_live.json', 'BENCH_serving_live_baseline.json'): (450, 0, 'c55341cbfa13588f'),
    ('BENCH_nightly_baseline.json', 'BENCH_nightly_baseline.json'): (1234, 0, '1bf182b12c507395'),
    ('BENCH_nightly-attacks_baseline.json', 'BENCH_nightly-attacks_baseline.json'): (1132, 0, '63cf8762beb21738'),
    ('BENCH_fig8_speedup.json', 'BENCH_fig8_speedup.json'): (274, 0, '69445ae002b9b9df'),
}


class TestGateTableDifferential:
    @pytest.mark.parametrize("pair", sorted(DIFFERENTIAL), ids="|".join)
    def test_mutations_match_the_comparators(self, pair):
        current, baseline = (load_artifact(str(ARTIFACTS / name)) for name in pair)
        assert mutation_digest(current, baseline, table_outcome) == DIFFERENTIAL[pair]

    def test_committed_pairs_pass(self):
        total = 0
        for current, baseline in DIFFERENTIAL:
            report = check(
                load_artifact(str(ARTIFACTS / current)),
                load_artifact(str(ARTIFACTS / baseline)),
            )
            assert report.ok, report.summary()
            total += len(report.checks)
        assert total == 118
