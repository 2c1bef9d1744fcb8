"""Amortized batch-predict throughput on the hot path.

Thin wrapper over :func:`repro.bench.runners.run_predict_throughput` —
the same measurement core behind ``repro bench run`` — so the pytest
bench, the CI gate, and the committed schema-v2 snapshot can never
drift apart.  One Q1 session is warmed through the normal online
workflow, then the same probe batch is pushed through the
struct-of-arrays ``predict_batch`` primitive and, for comparison, the
scalar ``predict`` loop it replaced; the runner asserts the two paths
agree bit-for-bit.

The acceptance bar from the vectorization work: the batch path must
amortize to at most ``PREDICT_TARGET_US`` microseconds per instance;
the hard assert fails at 2x that so shared CI runners warn rather than
flake.  Scalar ``predict`` — what every online decision pays — has its
own bar: a warning above ``SCALAR_TARGET_US`` and a gate failure above
``SCALAR_HARD_LIMIT_US``.  The snapshot lands in
``benchmarks/results/BENCH_predict.json``.
"""

import warnings

from _bench_utils import write_bench_json, write_result
from repro.bench.runners import (
    PREDICT_HARD_LIMIT_US,
    PREDICT_PROBES,
    PREDICT_REPEATS,
    PREDICT_TARGET_US,
    PREDICT_WARMUP,
    SCALAR_HARD_LIMIT_US,
    SCALAR_TARGET_US,
    run_predict_throughput,
)


def test_predict_throughput(benchmark):
    envelope = benchmark.pedantic(
        run_predict_throughput, rounds=1, iterations=1
    )
    metrics = envelope["metrics"]
    batch_us = metrics["batch_us_per_instance"]["value"]
    scalar_us = metrics["scalar_us_per_instance"]["value"]
    speedup = metrics["speedup"]["value"]
    lines = [
        "Amortized predict throughput, batch primitive vs scalar loop",
        f"(Q1, {PREDICT_WARMUP} warmup instances, {PREDICT_PROBES} "
        f"probes, best of {PREDICT_REPEATS})",
        "",
        f"batch : {batch_us:8.2f} us/instance",
        f"scalar: {scalar_us:8.2f} us/instance",
        f"speedup: {speedup:.1f}x",
        f"gate: batch target <= {PREDICT_TARGET_US:.0f} us (warn), "
        f"hard fail > {PREDICT_HARD_LIMIT_US:.0f} us; scalar target <= "
        f"{SCALAR_TARGET_US:.0f} us (warn), "
        f"hard fail > {SCALAR_HARD_LIMIT_US:.0f} us",
    ]
    write_result("predict_throughput", lines)
    write_bench_json("predict", envelope)
    if batch_us > PREDICT_TARGET_US:
        warnings.warn(
            f"batch predict amortized {batch_us:.1f} us/instance "
            f"exceeds the {PREDICT_TARGET_US:.0f} us target",
            stacklevel=1,
        )
    if scalar_us > SCALAR_TARGET_US:
        warnings.warn(
            f"scalar predict took {scalar_us:.1f} us/instance, above the "
            f"{SCALAR_TARGET_US:.0f} us target",
            stacklevel=1,
        )
    # Hard bar: 2x the target tolerates runner noise but still catches
    # a real regression back toward the scalar baseline.
    assert batch_us <= PREDICT_HARD_LIMIT_US
    assert scalar_us <= SCALAR_HARD_LIMIT_US
    assert envelope["gate"]["passed"]
