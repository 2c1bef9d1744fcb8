"""The side-effect rules RPR101 and RPR104, one file at a time.

The selftest pairs prove each rule fires and stays quiet end to end;
these tests pin the finer points: only a module's own calls count
(RPR101), which raises and exception classes RPR104 sees, and
range-aware ``noqa`` on a wrapped ``raise``.
"""

from repro.analysis import lint_source


def _findings(source: str, module: str, rule: str) -> list:
    return [
        f for f in lint_source(source, module=module) if f.rule == rule
    ]


class TestPropagation:
    """RPR101 has no call graph: a module is charged only for the I/O
    calls it makes itself."""

    def test_unknown_external_calls_are_effect_free(self):
        source = (
            "import math\n"
            "def pure(x):\n"
            "    return math.sqrt(x)\n"
        )
        assert _findings(source, "repro.obs.quality", "RPR101") == []

    def test_io_is_flagged_at_the_call_site(self):
        source = (
            "import os\n"
            "def export(series, path):\n"
            "    os.replace(path + '.tmp', path)\n"
        )
        (finding,) = _findings(source, "repro.obs.timeseries", "RPR101")
        assert "os.replace" in finding.message
        assert finding.line == 3

    def test_modules_outside_the_read_path_may_do_io(self):
        source = "def load(path):\n    return open(path).read()\n"
        assert _findings(source, "repro.obs.events", "RPR101") == []


class TestRaisePropagation:
    """RPR104 looks at each ``raise`` statement alone: no catch masks,
    no call chains."""

    def test_handler_body_is_not_protected_by_its_own_try(self):
        source = (
            "def caller():\n"
            "    try:\n"
            "        return 1\n"
            "    except KeyError:\n"
            "        raise ValueError('x')\n"
        )
        (finding,) = _findings(source, "repro.core.api", "RPR104")
        assert finding.line == 5

    def test_caught_builtin_raise_is_still_flagged(self):
        source = (
            "def caller():\n"
            "    try:\n"
            "        raise ValueError('x')\n"
            "    except ValueError:\n"
            "        return None\n"
        )
        (finding,) = _findings(source, "repro.core.api", "RPR104")
        assert "ValueError" in finding.message

    def test_variable_reraise_is_not_modeled(self):
        # `raise primary_error` re-raises a local holding an instance;
        # treating the variable name as an exception type produced a
        # bogus RPR104 hit on the persistence fallback path.
        source = "def fallback(primary_error):\n    raise primary_error\n"
        assert _findings(source, "repro.core.persistence", "RPR104") == []

    def test_exception_class_needs_a_project_base(self):
        source = (
            "from repro.exceptions import ReproError\n"
            "class Tripped(ReproError, RuntimeError):\n"
            "    pass\n"
            "class Leaked(KeyError):\n"
            "    pass\n"
            "class Subclass(Tripped):\n"
            "    pass\n"
        )
        (finding,) = _findings(source, "repro.resilience.x", "RPR104")
        assert "Leaked derives from KeyError" in finding.message

    def test_exceptions_module_defines_the_root(self):
        source = "class ReproError(Exception):\n    pass\n"
        assert _findings(source, "repro.exceptions", "RPR104") == []


class TestSuppression:
    def test_noqa_on_any_physical_line_of_the_raise(self):
        source = (
            "def predict(x):\n"
            "    if x is None:\n"
            "        raise ValueError(\n"
            "            'x required'\n"
            "        )  # repro: noqa[RPR104] - documented contract\n"
            "    return x\n"
        )
        assert _findings(source, "repro.core.api", "RPR104") == []

    def test_wrong_code_does_not_suppress(self):
        source = (
            "def predict(x):\n"
            "    if x is None:\n"
            "        raise ValueError('x')  # repro: noqa[RPR101]\n"
            "    return x\n"
        )
        findings = lint_source(source, module="repro.workload.api")
        assert [f.rule for f in findings] == ["RPR104"]
