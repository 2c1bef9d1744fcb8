"""Overhead of every opt-in instrumentation channel on the serving path.

Thin wrapper over :func:`repro.bench.runners.run_instrumentation_overhead`,
the same measurement core behind ``repro bench run``.  Eight
identically seeded Q1 frameworks run the same trajectory, each on its
own virtual clock advancing one simulated second per instance: ``off``
(trace and telemetry disabled), an identical ``off_twin``, and one rig
per channel setting (sampled and full tracing, the stage profiler, the
lifecycle journal, shipped and aggressive telemetry).  Every probe
visits the rigs in a seeded random order and each overhead is a ratio
of summed times, so machine drift lands on every mode alike.  The
runner raises if any channel changes a decision or if a rig records
on any channel but its own.

The snapshot lands in ``benchmarks/results/BENCH_instrumentation.json``.
These limits live only here: ``repro bench run`` records the overheads
but does not fail on them.
"""

import pytest

from _bench_utils import write_bench_json, write_result
from repro.bench.runners import (
    INSTRUMENTATION_ADVANCE,
    INSTRUMENTATION_LIMITS_PCT,
    INSTRUMENTATION_PROBES,
    INSTRUMENTATION_WARMUP,
    TWIN_RESOLUTION_PCT,
    run_instrumentation_overhead,
)


@pytest.fixture(scope="module")
def envelope():
    envelope = run_instrumentation_overhead()
    modes = envelope["details"]["modes"]
    lines = [
        "Instrumentation overhead on the serving path, per channel",
        f"(Q1, {INSTRUMENTATION_WARMUP} warmup + {INSTRUMENTATION_PROBES} "
        f"probes, {INSTRUMENTATION_ADVANCE}s simulated per instance, rigs "
        "in a seeded random order per probe)",
        "",
    ]
    for name, mode in modes.items():
        limit = INSTRUMENTATION_LIMITS_PCT.get(name)
        lines.append(
            f"{name:21s}: {mode['us_per_instance']:8.2f} us/instance  "
            f"({mode['overhead_pct'] / 100.0:+.1%} vs off)"
            + (f"  limit < {limit:.0f}%" if limit is not None else "")
        )
    write_result("instrumentation_overhead", lines)
    write_bench_json("instrumentation", envelope)
    return envelope


def _overhead(envelope, mode):
    return envelope["metrics"][f"{mode}_overhead_pct"]["value"]


def test_off_twin_resolves_the_limits(envelope):
    # The A/A control: two identical rigs must read alike, or a 5 %
    # limit is below the rig's noise.
    assert abs(_overhead(envelope, "off_twin")) < TWIN_RESOLUTION_PCT


@pytest.mark.parametrize(
    "mode",
    [
        pytest.param(
            mode,
            marks=pytest.mark.xfail(
                strict=True,
                reason="one telemetry snapshot of every series runs every "
                "5th instance; see ROADMAP item 3",
            ),
        )
        if mode == "telemetry_sampled"
        else mode
        for mode in INSTRUMENTATION_LIMITS_PCT
    ],
)
def test_overhead_within_limit(envelope, mode):
    assert _overhead(envelope, mode) < INSTRUMENTATION_LIMITS_PCT[mode]
