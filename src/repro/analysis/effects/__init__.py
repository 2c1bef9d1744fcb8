"""Whole-program effect analysis and the RPR1xx rule family.

Layers on top of the per-file linter: :mod:`~repro.analysis.effects
.engine` builds the project call graph and propagates per-function
effect signatures (RNG, clock, I/O, shared-state mutation, raised
exceptions) to a fixpoint; :mod:`~repro.analysis.effects.rules` turns
the result into three interprocedural proofs and one local rule:

``RPR101``
    the observability read path (quality/timeseries/audit/slo) is
    transitively pure;
``RPR102``
    no path from ``TemplateSession.execute``/``execute_batch`` or a
    core ``predict_batch`` reaches unseeded RNG or the raw wall clock;
``RPR103``
    every synopsis mutation goes through ``PlanPredictor._commit``,
    which bumps ``mutation_count`` and journals exactly once (the
    batch-invalidation and lineage contract);
``RPR104``
    exceptions escaping the public API are documented
    ``repro.exceptions`` types.

Run via ``repro lint --effects`` (add ``--graph-out`` for the call
graph artifact); ``--selftest`` covers these rules through
:func:`run_effects_selftest`.
"""

from repro.analysis.effects.engine import (
    Project,
    build_project,
    build_project_from_sources,
    write_graph,
)
from repro.analysis.effects.rules import (
    EffectRule,
    analyze_paths,
    analyze_sources,
    effect_rules,
    run_effect_rules,
)
from repro.analysis.effects.selftest import (
    EFFECT_SELFTEST_CASES,
    run_effects_selftest,
)

__all__ = [
    "EFFECT_SELFTEST_CASES",
    "EffectRule",
    "Project",
    "analyze_paths",
    "analyze_sources",
    "build_project",
    "build_project_from_sources",
    "effect_rules",
    "run_effect_rules",
    "run_effects_selftest",
    "write_graph",
]
