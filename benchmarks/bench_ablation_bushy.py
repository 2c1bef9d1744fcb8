"""Ablation: bushy vs left-deep join enumeration.

The substrate's DP enumerator is left-deep by default (like the
System-R lineage the paper's commercial optimizer descends from);
``allow_bushy=True`` adds composite-composite joins.  This bench
quantifies what bushy trees buy on the five-table template Q7 — the
cost improvement where they win, how often they win, and the
optimization-time overhead of the larger search space (one batched DP
over all 40 points per enumerator).
"""

import time

import numpy as np

from _bench_utils import write_result
from repro.optimizer.enumeration import DPEnumerator
from repro.tpch import build_catalog, query_template


def test_ablation_bushy_enumeration(benchmark):
    def run():
        catalog = build_catalog()
        template = query_template("Q7")
        left_deep = DPEnumerator(template, catalog, allow_bushy=False)
        bushy = DPEnumerator(template, catalog, allow_bushy=True)
        rng = np.random.default_rng(3)
        points = rng.uniform(0, 1, (40, 6))

        start = time.perf_counter()
        costs_ld = [cost for __, cost in left_deep.optimize(points)]
        elapsed_ld = time.perf_counter() - start
        start = time.perf_counter()
        costs_bushy = [cost for __, cost in bushy.optimize(points)]
        elapsed_bushy = time.perf_counter() - start

        improvements = [ld / b for ld, b in zip(costs_ld, costs_bushy)]
        wins = sum(ratio > 1.0 + 1e-9 for ratio in improvements)
        return {
            "improvements": np.array(improvements),
            "wins": wins,
            "points": len(points),
            "time_ld": elapsed_ld,
            "time_bushy": elapsed_bushy,
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    ratios = results["improvements"]
    lines = [
        "Ablation — bushy vs left-deep enumeration (Q7, 40 points)",
        "",
        f"points where bushy strictly wins : {results['wins']}/{results['points']}",
        f"cost ratio left-deep/bushy       : median {np.median(ratios):.3f}, "
        f"max {ratios.max():.3f}",
        f"enumeration overhead             : "
        f"{results['time_bushy'] / max(results['time_ld'], 1e-9):.1f}x "
        "optimizer time",
        "",
        "Bushy trees never lose (superset search space); on this star-",
        "shaped template they rarely win, which is why left-deep is the",
        "default — see tests/optimizer/test_bushy.py for a chain query",
        "where bushy wins decisively.",
    ]
    write_result("ablation_bushy", lines)

    # Superset property: bushy never worse.
    assert (ratios >= 1.0 - 1e-9).all()
