"""Compare RowHammer mitigations on the same templated attack.

Runs a double-sided hammering campaign against one victim bit under
each baseline defense plus DRAM-Locker, then prints Table I (overhead)
alongside the measured behaviour: whether the flip landed, how much
mitigation latency the defense charged, and what it did (refreshes,
row moves, blocks).

Each contender is one ``defense_campaign`` harness scenario, so the
whole sweep fans out over worker processes:

Run with:  python examples/compare_defenses.py [--workers N]
"""

import argparse

from repro.defenses import format_table1
from repro.eval import Scale, Scenario, format_table, run_matrix
from repro.defenses.builders import DEFENSE_BUILDERS

TRH = 400


def campaign_scenarios() -> list[Scenario]:
    return [
        Scenario(
            f"campaign-{name}",
            "defense_campaign",
            Scale.quick(),
            seed=0,
            params=(("defense", name), ("trh", TRH)),
        )
        for name in DEFENSE_BUILDERS
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args(argv)

    matrix = run_matrix(
        campaign_scenarios(), workers=args.workers, tag="compare-defenses"
    )
    if matrix.failures:
        for failure in matrix.failures:
            print(f"--- {failure.name} ---\n{failure.error}")
        return 1

    rows = []
    for result in matrix.results:
        outcome = result.payload
        rows.append(
            (
                outcome["defense"],
                "YES" if outcome["flipped"] else "no",
                f"{outcome['mitigation_ms']:.3f}",
                outcome["blocked"],
                outcome["rowclones"],
            )
        )
    print(
        format_table(
            ["defense", "bit flipped?", "mitigation ms", "blocked reqs", "rowclones"],
            rows,
            title=f"Double-sided attack on one templated bit (TRH={TRH})",
        )
    )
    print()
    print("Table I (hardware overhead, 32GB/16-bank DDR4):")
    print(format_table1())
    print(
        f"\n{len(matrix.results)} campaigns in {matrix.wall_clock_s:.2f}s "
        f"across {matrix.workers} worker(s)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
