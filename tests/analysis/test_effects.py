"""Whole-program effect analysis: engine mechanics and RPR101-RPR104.

The selftest fixtures prove each rule fires/stays-quiet end to end;
these tests pin the engine mechanics the rules stand on — transitive
effect propagation, re-export chasing, method resolution, catch-mask
subtraction over the project exception hierarchy, witness chains, the
graph artifacts — and the meta-gate that the repository's own tree is
effects-clean.
"""

import json
import pathlib

from repro.analysis.effects import (
    analyze_sources,
    build_project_from_sources,
    run_effect_rules,
    run_effects_selftest,
    write_graph,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

_EXCEPTIONS = (
    "class ReproError(Exception):\n"
    "    pass\n"
    "class PredictionError(ReproError):\n"
    "    pass\n"
)


class TestPropagation:
    def test_effects_propagate_transitively(self):
        project = build_project_from_sources(
            {
                "repro.a": (
                    "from repro.b import middle\n"
                    "def top():\n"
                    "    return middle()\n"
                ),
                "repro.b": (
                    "from repro.c import bottom\n"
                    "def middle():\n"
                    "    return bottom()\n"
                ),
                "repro.c": (
                    "import random\n"
                    "def bottom():\n"
                    "    return random.random()\n"
                ),
            }
        )
        assert "rng" in project.functions["repro.a.top"].effects
        assert "rng" in project.functions["repro.b.middle"].effects

    def test_reexport_alias_chases_to_origin(self):
        # `from repro.util import jitter as fuzz` re-exported again —
        # the per-file resolver stops at the alias, the engine chases
        # it through the exporting module to the defining one.
        project = build_project_from_sources(
            {
                "repro.facade": (
                    "from repro.middle import fuzz\n"
                    "def api():\n"
                    "    return fuzz()\n"
                ),
                "repro.middle": "from repro.util import jitter as fuzz\n",
                "repro.util": (
                    "import random\n"
                    "def jitter():\n"
                    "    return random.random()\n"
                ),
            }
        )
        (call,) = project.functions["repro.facade.api"].calls
        assert call.resolved == "repro.util.jitter"
        assert "rng" in project.functions["repro.facade.api"].effects

    def test_self_method_resolves_through_base_class(self):
        project = build_project_from_sources(
            {
                "repro.m": (
                    "import time\n"
                    "class Base:\n"
                    "    def helper(self):\n"
                    "        return time.time()\n"
                    "class Child(Base):\n"
                    "    def run(self):\n"
                    "        return self.helper()\n"
                ),
            }
        )
        assert "clock" in project.functions["repro.m.Child.run"].effects

    def test_unknown_external_calls_are_effect_free(self):
        project = build_project_from_sources(
            {
                "repro.m": (
                    "import math\n"
                    "def pure(x):\n"
                    "    return math.sqrt(x)\n"
                ),
            }
        )
        assert project.functions["repro.m.pure"].effects == set()


class TestRaisePropagation:
    def test_caught_exception_does_not_escape(self):
        project = build_project_from_sources(
            {
                "repro.m": (
                    "def helper():\n"
                    "    raise ValueError('x')\n"
                    "def caller():\n"
                    "    try:\n"
                    "        helper()\n"
                    "    except ValueError:\n"
                    "        pass\n"
                ),
            }
        )
        assert "ValueError" in project.functions["repro.m.helper"].raises
        assert "ValueError" not in project.functions["repro.m.caller"].raises

    def test_catching_base_swallows_project_subclasses(self):
        project = build_project_from_sources(
            {
                "repro.exceptions": _EXCEPTIONS,
                "repro.m": (
                    "from repro.exceptions import PredictionError\n"
                    "from repro.exceptions import ReproError\n"
                    "def helper():\n"
                    "    raise PredictionError('x')\n"
                    "def caller():\n"
                    "    try:\n"
                    "        helper()\n"
                    "    except ReproError:\n"
                    "        pass\n"
                ),
            }
        )
        assert project.functions["repro.m.caller"].raises == set()

    def test_handler_body_is_not_protected_by_its_own_try(self):
        project = build_project_from_sources(
            {
                "repro.m": (
                    "def helper():\n"
                    "    raise ValueError('x')\n"
                    "def caller():\n"
                    "    try:\n"
                    "        helper()\n"
                    "    except ValueError:\n"
                    "        helper()\n"
                ),
            }
        )
        assert "ValueError" in project.functions["repro.m.caller"].raises

    def test_variable_reraise_is_not_modeled(self):
        # `raise primary_error` re-raises a local holding an instance;
        # treating the variable name as an exception type produced a
        # bogus RPR104 hit on the persistence fallback path.
        project = build_project_from_sources(
            {
                "repro.m": (
                    "def fallback(primary_error):\n"
                    "    raise primary_error\n"
                ),
            }
        )
        assert project.functions["repro.m.fallback"].raises == set()


class TestWitnessChains:
    def test_rpr102_witness_names_every_hop(self):
        findings, __ = analyze_sources(
            {
                "repro.core.framework": (
                    "from repro.core.timing import stamp\n"
                    "class TemplateSession:\n"
                    "    def execute(self, x):\n"
                    "        return self._run(x)\n"
                    "    def _run(self, x):\n"
                    "        return stamp(x)\n"
                ),
                "repro.core.timing": (
                    "import time\n"
                    "def stamp(x):\n"
                    "    return x, time.time()\n"
                ),
            }
        )
        (finding,) = [f for f in findings if f.rule == "RPR102"]
        for hop in ("TemplateSession.execute", "_run", "stamp"):
            assert hop in finding.message
        # The finding anchors at the sink's effect site, not the root.
        assert finding.path == "<repro.core.timing>"
        assert finding.line == 3


class TestCommitSeam:
    """RPR103 is local: each function body either commits its own
    synopsis mutation or is flagged itself; a committing caller does
    not cover a mutating helper."""

    @staticmethod
    def _rpr103(source: str) -> list:
        findings, __ = analyze_sources({"repro.core.lsh_predictor": source})
        return [f for f in findings if f.rule == "RPR103"]

    def test_rpr103_flags_the_mutating_helper_itself(self):
        (finding,) = self._rpr103(
            "class LshPredictor:\n"
            "    def __init__(self):\n"
            "        self._counts = {}\n"
            "    def insert(self, cell):\n"
            "        self._store(cell)\n"
            "        self._commit('point_inserted', plan=cell)\n"
            "    def _store(self, cell):\n"
            "        self._counts[cell] = 1.0\n"
        )
        assert "LshPredictor._store" in finding.message
        assert "_counts" in finding.message
        assert finding.line == 7

    def test_rpr103_flags_any_direct_counter_write(self):
        (finding,) = self._rpr103(
            "class LshPredictor:\n"
            "    def __init__(self):\n"
            "        self._mutations = 0\n"
        )
        assert "LshPredictor.__init__ writes _mutations" in finding.message

    def test_builder_reached_only_from_init_is_not_exempt(self):
        source = (
            "class LshPredictor:\n"
            "    def __init__(self):\n"
            "        self._counts = {}\n"
            "        self._seed()\n"
            "    def _seed(self):\n"
            "        self._counts[0] = 0.0\n"
        )
        (finding,) = self._rpr103(source)
        assert "LshPredictor._seed" in finding.message
        committed = source + "        self._commit('histogram_built')\n"
        assert self._rpr103(committed) == []


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
        findings, __ = analyze_sources({"repro.core.api": source})
        assert [f for f in findings if f.rule == "RPR104"] == []

    def test_wrong_code_does_not_suppress(self):
        source = (
            "def predict(x):\n"
            "    if x is None:\n"
            "        raise ValueError('x')  # repro: noqa[RPR102]\n"
            "    return x\n"
        )
        findings, __ = analyze_sources({"repro.core.api": source})
        assert [f.rule for f in findings] == ["RPR104"]


class TestGraphArtifacts:
    _SOURCES = {
        "repro.a": (
            "import random\n"
            "def noisy():\n"
            "    return random.random()\n"
            "def caller():\n"
            "    return noisy()\n"
        ),
    }

    def test_json_graph_lists_functions_edges_and_effects(self, tmp_path):
        project = build_project_from_sources(self._SOURCES)
        target = tmp_path / "graph.json"
        write_graph(project, str(target))
        document = json.loads(target.read_text())
        by_name = {n["qualname"]: n for n in document["functions"]}
        assert "rng" in by_name["repro.a.noisy"]["effects"]
        assert "rng" in by_name["repro.a.caller"]["effects"]
        assert {
            "caller": "repro.a.caller",
            "callee": "repro.a.noisy",
            "line": 5,
        } in document["calls"]

    def test_dot_graph_is_valid_digraph(self, tmp_path):
        project = build_project_from_sources(self._SOURCES)
        target = tmp_path / "graph.dot"
        write_graph(project, str(target))
        text = target.read_text()
        assert text.startswith("digraph")
        assert '"repro.a.caller" -> "repro.a.noisy"' in text


def test_effects_selftest_passes():
    assert run_effects_selftest() == []


def test_repo_src_is_effects_clean():
    """The CI gate, runnable locally: zero RPR1xx findings on src."""
    from repro.analysis.effects import build_project

    project = build_project([REPO_ROOT / "src"])
    assert project.errors == []
    findings = run_effect_rules(project)
    assert findings == [], "\n".join(
        f"{f.path}:{f.line} {f.rule} {f.message}" for f in findings
    )
