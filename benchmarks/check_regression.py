"""CLI for the nightly benchmark-regression gate.

Usage::

    python benchmarks/check_regression.py CURRENT.json BASELINE.json

Gates a freshly generated ``BENCH_*.json`` artifact against its
committed baseline with the gate of their schema -- the rule table
``GATES`` in :mod:`repro.eval.regression`, whose comments say what each
gate holds and why.  Exits 0 when every check passes, 1 on a
regression, and 2 when the schema has no gate or the two artifacts'
schemas differ.  Refresh a baseline by copying a trusted run's artifact
over the ``*_baseline.json`` file under ``benchmarks/artifacts/`` --
regenerate harness baselines on the runner class the workflow uses,
since wall-clock baselines do not transfer between machines.
"""

import argparse
import sys

from repro.eval.regression import check, load_artifact


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("current", help="freshly generated BENCH_*.json")
    parser.add_argument("baseline", help="committed baseline artifact")
    args = parser.parse_args(argv)
    try:
        report = check(load_artifact(args.current), load_artifact(args.baseline))
    except ValueError as exc:
        print(f"check_regression: {exc}", file=sys.stderr)
        return 2
    print(report.summary())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
