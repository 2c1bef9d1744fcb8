"""Session memory soak: a long Q1 run through ``execute_batch`` stays flat.

Runs ~100,000 Q1 decisions (a spread-0.02 walk, 16-instance batches) on
one session configured like the tier-1 test
``tests/core/test_record_window.py``, then traces the last 4,000 with
tracemalloc and applies that test's growth bound.  It also checks that
the session holds exactly its record window (``quality_window +
SETTLE_EVERY``) and that the ledger counted every decision.  Exits 1 on
a breach.

    PYTHONPATH=src python benchmarks/soak_session_memory.py [--decisions N]

About a minute on a 2-core x86_64 container.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from repro.core.framework import SETTLE_EVERY, TemplateSession  # noqa: E402
from repro.tpch import plan_space_for  # noqa: E402
from repro.workload import RandomTrajectoryWorkload  # noqa: E402
from tests.core.test_record_window import (  # noqa: E402
    GROWTH_BOUND_BYTES,
    memory_config,
    traced_growth,
)

TRACED = 4_000
BATCH = 16


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--decisions", type=int, default=100_000)
    args = parser.parse_args(argv)
    if args.decisions <= TRACED:
        parser.error(f"--decisions must exceed the {TRACED:,d} traced ones")

    config = memory_config()
    session = TemplateSession(plan_space_for("Q1"), config, seed=3)
    walk = RandomTrajectoryWorkload(2, spread=0.02, seed=3).generate(
        args.decisions
    )

    def run(points):
        for start in range(0, points.shape[0], BATCH):
            session.execute_batch(points[start : start + BATCH])

    started = time.perf_counter()
    run(walk[:-TRACED])
    growth = traced_growth(run, walk[-TRACED:])
    elapsed = time.perf_counter() - started

    window = config.telemetry.quality_window + SETTLE_EVERY
    print(
        f"{session.decisions:,d} decisions in {elapsed:.1f} s; "
        f"last {TRACED:,d} grew {growth / 1024:.1f} KiB "
        f"(bound {GROWTH_BOUND_BYTES / 1024:.0f} KiB); "
        f"{len(session.records)} records held (window {window})"
    )
    failures = []
    if growth >= GROWTH_BOUND_BYTES:
        failures.append("traced growth over the bound")
    if len(session.records) != window:
        failures.append("record count differs from the window")
    if session.decisions != args.decisions:
        failures.append("ledger decision count differs from the run")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
