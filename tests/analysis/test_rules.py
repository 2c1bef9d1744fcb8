"""Every RPR rule against its committed good/bad fixture pair."""

import pathlib

import pytest

from repro.analysis import all_rules, lint_source

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: rule -> (module the fixtures are linted under, findings the bad
#: fixture must produce).  The module drives rule scoping, so e.g. the
#: RPR006 pair is linted as if it lived in ``repro.clustering``.
CASES = {
    "RPR001": ("repro.workload.scratch", 5),
    # 4 = the from-import itself plus the three call sites.
    "RPR002": ("repro.core.scratch", 4),
    "RPR003": ("repro.core.scratch", 2),
    "RPR004": ("repro.core.scratch", 2),
    "RPR005": ("repro.core.scratch", 3),
    "RPR006": ("repro.clustering.scratch", 2),
    "RPR007": ("repro.core.scratch", 3),
    "RPR008": ("repro.experiments.scratch", 3),
    # 3 = open_span + Span(...) construction + close_span.
    "RPR009": ("repro.core.scratch", 3),
    # 3 = open + .write_text + socket.create_connection.
    "RPR101": ("repro.obs.quality", 3),
    # 3 = the RuntimeError-based class and both foreign raises.
    "RPR104": ("repro.service.scratch", 3),
}


def _lint_fixture(rule: str, flavor: str):
    module, _ = CASES[rule]
    source = (FIXTURES / f"{rule.lower()}_{flavor}.py").read_text()
    findings = lint_source(source, module=module)
    return [finding for finding in findings if finding.rule == rule]


class TestRuleFixtures:
    def test_every_registered_rule_has_a_case(self):
        assert {rule.code for rule in all_rules()} == set(CASES)

    @pytest.mark.parametrize("rule", sorted(CASES))
    def test_bad_fixture_fires(self, rule):
        findings = _lint_fixture(rule, "bad")
        assert len(findings) == CASES[rule][1]
        assert all(finding.severity == "error" for finding in findings)

    @pytest.mark.parametrize("rule", sorted(CASES))
    def test_good_fixture_is_clean(self, rule):
        assert _lint_fixture(rule, "good") == []


class TestRuleScoping:
    def test_scoped_rule_ignores_out_of_scope_modules(self):
        source = (FIXTURES / "rpr006_bad.py").read_text()
        findings = lint_source(source, module="repro.workload.scratch")
        assert [f for f in findings if f.rule == "RPR006"] == []

    def test_exempt_module_is_skipped(self):
        source = (FIXTURES / "rpr002_bad.py").read_text()
        findings = lint_source(source, module="repro.resilience.scratch")
        assert [f for f in findings if f.rule == "RPR002"] == []

    def test_annotation_rule_only_guards_public_surface(self):
        source = (FIXTURES / "rpr007_bad.py").read_text()
        findings = lint_source(source, module="repro.histograms.scratch")
        assert [f for f in findings if f.rule == "RPR007"] == []


class TestMetricNameInventory:
    def test_rpr003_accepts_only_constants_naming_an_inventoried_metric(
        self, monkeypatch
    ):
        from repro.obs import names

        # A public string constant of the names module that no
        # declaration made is not a metric name.
        monkeypatch.setattr(names, "NOT_A_METRIC", "ppc_undeclared", raising=False)
        source = (
            "from repro.obs import names as metric_names\n"
            "def record(registry):\n"
            "    registry.counter(metric_names.EXECUTIONS_TOTAL).inc()\n"
            "    registry.counter(metric_names.NOT_A_METRIC).inc()\n"
        )
        findings = lint_source(source, module="repro.core.scratch")
        assert [(f.rule, f.line) for f in findings if f.rule == "RPR003"] == [
            ("RPR003", 4)
        ]
