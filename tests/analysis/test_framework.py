"""Framework mechanics: suppression, reporters, the file driver."""

import json

from repro.analysis import lint_paths, lint_source, render_json, render_text

BAD_SLEEP = "import time\ntime.sleep(1.0)\n"


class TestSuppression:
    def test_coded_noqa_suppresses_that_rule(self):
        source = "import time\ntime.sleep(1.0)  # repro: noqa[RPR002]\n"
        assert lint_source(source, module="repro.core.scratch") == []

    def test_bare_noqa_suppresses_everything(self):
        source = "import time\ntime.sleep(1.0)  # repro: noqa\n"
        assert lint_source(source, module="repro.core.scratch") == []

    def test_wrong_code_does_not_suppress(self):
        source = "import time\ntime.sleep(1.0)  # repro: noqa[RPR001]\n"
        findings = lint_source(source, module="repro.core.scratch")
        assert [f.rule for f in findings] == ["RPR002"]

    def test_noqa_is_line_scoped(self):
        source = (
            "import time\n"
            "time.sleep(1.0)  # repro: noqa[RPR002]\n"
            "time.sleep(2.0)\n"
        )
        findings = lint_source(source, module="repro.core.scratch")
        assert [(f.rule, f.line) for f in findings] == [("RPR002", 3)]


class TestReporters:
    def _findings(self):
        return lint_source(
            BAD_SLEEP, path="src/repro/core/x.py", module="repro.core.x"
        )

    def test_text_report_names_rule_and_location(self):
        text = render_text(self._findings(), [])
        assert "src/repro/core/x.py:2" in text
        assert "RPR002" in text
        assert "1 finding(s)" in text

    def test_json_report_is_machine_readable(self):
        document = json.loads(render_json(self._findings(), []))
        assert document["summary"]["total"] == 1
        (finding,) = document["findings"]
        assert finding["rule"] == "RPR002"
        assert finding["line"] == 2
        assert finding["snippet"] == "time.sleep(1.0)"


class TestLintPaths:
    def test_unparseable_file_is_reported_not_fatal(self, tmp_path):
        bad = tmp_path / "repro" / "core" / "broken.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def broken(:\n")
        findings, errors = lint_paths([bad])
        assert findings == []
        assert len(errors) == 1
        assert "broken.py" in errors[0]
