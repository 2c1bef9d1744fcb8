"""The metric declarations in ``repro.obs.names`` are the only copy of
each metric name: the source and README's metric table read off them."""

import ast
import collections
import pathlib
import re

from repro.obs import names as metric_names

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
NAMES_PY = SRC / "repro" / "obs" / "names.py"


def _metric_literals(path: pathlib.Path) -> "list[str]":
    return [
        node.value
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.startswith("ppc_")
    ]


def test_no_metric_name_literal_outside_the_declarations():
    stray = {
        str(path.relative_to(REPO_ROOT)): literals
        for path in sorted(SRC.rglob("*.py"))
        if path != NAMES_PY and (literals := _metric_literals(path))
    }
    assert stray == {}


def test_each_metric_is_declared_once():
    counts = collections.Counter(_metric_literals(NAMES_PY))
    assert {name for name, n in counts.items() if n > 1} == set()
    assert set(counts) == {spec.name for spec in metric_names.INVENTORY}


def test_families_are_counters_and_stages_follow_the_span_table():
    for spec in metric_names.INVENTORY:
        if spec.family is not None:
            assert spec.kind == "counter", spec.name
    assert metric_names.STAGES == ("predict", "optimize", "execute", "feedback")


def test_readme_metric_table_lists_the_inventory():
    readme = (REPO_ROOT / "README.md").read_text()
    table = re.findall(r"^\| `(ppc_[a-z_]+)` \|", readme, flags=re.MULTILINE)
    assert len(table) == len(set(table))
    assert set(table) == {spec.name for spec in metric_names.INVENTORY}
