"""Table III: the query templates and their plan-count lower bounds.

Probes every template's plan space at a finite set of points, exactly
how the paper estimated its plan counts.  Times one harvest round of
the six-parameter template: one batched DP over 64 random points.
"""

import numpy as np

from _bench_utils import write_result
from repro.experiments.tables import run_template_inventory
from repro.optimizer.enumeration import DPEnumerator
from repro.optimizer.plan_space import HARVEST_ROUND_POINTS
from repro.tpch import build_catalog, query_template


def test_table3_template_inventory(benchmark):
    rows = run_template_inventory(probe_points=2000, seed=7)
    lines = [
        "Table III — query templates (plan counts are lower bounds from",
        "probing the optimizer at 2000 plan-space points)",
        "",
        f"{'name':>4s} {'degree':>7s} {'plans':>6s}  tables",
    ]
    for row in rows:
        lines.append(
            f"{row.name:>4s} {row.parameter_degree:7d} "
            f"{row.estimated_plan_count:6d}  {', '.join(row.tables)}"
        )
    lines.append("")
    for row in rows:
        lines.append(f"{row.name}: {row.sql}")
    write_result("table3_templates", lines)

    degrees = [r.parameter_degree for r in rows]
    assert min(degrees) == 2 and max(degrees) == 6
    assert all(r.estimated_plan_count >= 2 for r in rows)

    enumerator = DPEnumerator(query_template("Q7"), build_catalog())
    points = np.random.default_rng(7).uniform(0.0, 1.0, (HARVEST_ROUND_POINTS, 6))
    benchmark(enumerator.optimize, points)
