"""Project-specific static analysis: the invariant linter.

PR 1 and PR 2 made several conventions load-bearing — spawn-keyed RNG
streams for reproducible sampling, an injectable clock for retry and
breaker logic, a central metric-name registry, atomic fsync+rename
persistence — but conventions that nothing enforces decay.  This
package is the enforcement layer: a small AST-based rule framework
(:mod:`repro.analysis.core`), the project rules
(:mod:`repro.analysis.rules`: ``RPR001``–``RPR009`` plus the
side-effect rules ``RPR101`` I/O-free observability and ``RPR104``
documented exceptions),
inline ``# repro: noqa[RULE]`` suppressions, and text/JSON/GitHub
reporters (:mod:`repro.analysis.report`).  Every rule is checked one
file at a time.

Run it as ``repro lint`` or ``python -m repro.analysis``; CI gates on
the repository tree being clean.  The rules themselves are kept honest
by one bad/good fixture pair each under ``tests/analysis/fixtures/``,
checked at exact finding counts by ``tests/analysis/test_rules.py``.
"""

from repro.analysis.core import (
    Finding,
    ModuleContext,
    Rule,
    all_rules,
    lint_paths,
    lint_source,
    rule_registry,
)
from repro.analysis.report import render_github, render_json, render_text

__all__ = [
    "Finding",
    "ModuleContext",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_source",
    "render_github",
    "render_json",
    "render_text",
    "rule_registry",
]
