"""Self-check: every rule fires on known-bad code, stays quiet on good.

A linter that silently stops matching is worse than no linter — CI
runs ``repro lint --selftest`` so a refactor of the rule engine that
breaks a detector fails the build, not the next reviewer.  Each case
pairs a minimal bad snippet (must produce at least one finding of the
rule, at the expected count) with a good snippet (must produce none),
linted under a module name inside the rule's scope.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.core import lint_source


@dataclass(frozen=True)
class SelfTestCase:
    """One rule's positive/negative fixture pair."""

    rule: str
    #: Dotted module name the snippets are linted under (drives the
    #: rule's scoping).
    module: str
    bad: str
    good: str
    #: Exact number of findings the bad snippet must produce.
    bad_findings: int = 1


SELFTEST_CASES = (
    SelfTestCase(
        rule="RPR001",
        module="repro.workload.scratch",
        bad=(
            "import numpy as np\n"
            "values = np.random.rand(8)\n"
            "rng = np.random.default_rng()\n"
        ),
        good=(
            "import numpy as np\n"
            "rng = np.random.default_rng(np.random.SeedSequence(7))\n"
            "values = rng.random(8)\n"
        ),
        bad_findings=2,
    ),
    SelfTestCase(
        rule="RPR002",
        module="repro.core.scratch",
        bad=(
            "import time\n"
            "def wait() -> None:\n"
            "    time.sleep(0.1)\n"
        ),
        good=(
            "from repro.resilience.clocks import system_sleep\n"
            "def wait() -> None:\n"
            "    system_sleep(0.1)\n"
        ),
    ),
    SelfTestCase(
        rule="RPR003",
        module="repro.core.scratch",
        bad=(
            "def record(registry):\n"
            "    registry.counter('ppc_surprise_total').inc()\n"
        ),
        good=(
            "from repro.obs import names as metric_names\n"
            "def record(registry):\n"
            "    registry.counter(metric_names.EXECUTIONS_TOTAL).inc()\n"
        ),
    ),
    SelfTestCase(
        rule="RPR004",
        module="repro.core.scratch",
        bad=(
            "def load():\n"
            "    try:\n"
            "        return 1\n"
            "    except Exception:\n"
            "        pass\n"
        ),
        good=(
            "from repro.exceptions import PersistenceError\n"
            "def load(counter):\n"
            "    try:\n"
            "        return 1\n"
            "    except PersistenceError:\n"
            "        counter.inc()\n"
            "        return 0\n"
        ),
    ),
    SelfTestCase(
        rule="RPR005",
        module="repro.core.scratch",
        bad=(
            "import json\n"
            "def snapshot(state, path):\n"
            "    with open(path, 'w') as handle:\n"
            "        json.dump(state, handle)\n"
        ),
        good=(
            "import json\n"
            "from repro.core.persistence import atomic_write_text\n"
            "def snapshot(state, path):\n"
            "    atomic_write_text(path, json.dumps(state))\n"
        ),
    ),
    SelfTestCase(
        rule="RPR006",
        module="repro.clustering.scratch",
        bad=(
            "def boundary(distance):\n"
            "    return distance == 0.5\n"
        ),
        good=(
            "import math\n"
            "def boundary(distance):\n"
            "    return math.isclose(distance, 0.5, abs_tol=1e-9)\n"
        ),
    ),
    SelfTestCase(
        rule="RPR007",
        module="repro.core.scratch",
        bad=(
            "class Session:\n"
            "    def execute(self, point):\n"
            "        return point\n"
        ),
        good=(
            "class Session:\n"
            "    def execute(self, point: float) -> float:\n"
            "        return point\n"
        ),
    ),
    SelfTestCase(
        rule="RPR008",
        module="repro.experiments.scratch",
        bad=(
            "def tamper(framework):\n"
            "    framework.session('Q1').optimizer_invocations = 0\n"
        ),
        good=(
            "class Owner:\n"
            "    def reset(self) -> None:\n"
            "        self.optimizer_invocations = 0\n"
        ),
    ),
    SelfTestCase(
        rule="RPR009",
        module="repro.core.scratch",
        bad=(
            "from repro.obs.tracing import Span\n"
            "def annotate(trace):\n"
            "    span = trace.open_span('predict')\n"
            "    span.children.append(Span('manual'))\n"
            "    trace.close_span()\n"
        ),
        good=(
            "def annotate(trace):\n"
            "    with trace.span('predict') as span:\n"
            "        span.set(plan=3)\n"
        ),
        bad_findings=3,
    ),
    SelfTestCase(
        rule="RPR101",
        module="repro.obs.quality",
        bad=(
            "def scorecard(path):\n"
            "    return open(path).read()\n"
        ),
        good=(
            "def scorecard(values):\n"
            "    return max(values) - min(values)\n"
        ),
    ),
    # RPR104, raise half: a builtin raise, caught or not, is flagged.
    SelfTestCase(
        rule="RPR104",
        module="repro.service.scratch",
        bad=(
            "def templates(names):\n"
            "    if not names:\n"
            "        raise ValueError('no templates')\n"
            "    return names\n"
        ),
        good=(
            "from repro.exceptions import ConfigurationError\n"
            "def templates(names):\n"
            "    if not names:\n"
            "        raise ConfigurationError('no templates')\n"
            "    if names is None:\n"
            "        raise NotImplementedError\n"
            "    return names\n"
        ),
    ),
    # RPR104, class half: exceptions derive from a project exception.
    SelfTestCase(
        rule="RPR104",
        module="repro.resilience.scratch",
        bad=(
            "class BreakerTripped(RuntimeError):\n"
            "    pass\n"
        ),
        good=(
            "from repro.exceptions import ResilienceError\n"
            "class BreakerTripped(ResilienceError):\n"
            "    pass\n"
        ),
    ),
)


def run_selftest() -> "list[str]":
    """Exercise every case; returns failure descriptions (empty = OK)."""
    failures: list[str] = []
    for case in SELFTEST_CASES:
        bad = [
            finding
            for finding in lint_source(case.bad, module=case.module)
            if finding.rule == case.rule
        ]
        if len(bad) != case.bad_findings:
            failures.append(
                f"{case.rule}: bad fixture produced {len(bad)} finding(s), "
                f"expected {case.bad_findings}"
            )
        good = [
            finding
            for finding in lint_source(case.good, module=case.module)
            if finding.rule == case.rule
        ]
        if good:
            failures.append(
                f"{case.rule}: good fixture produced {len(good)} "
                f"unexpected finding(s): {good[0].message}"
            )
    return failures
