"""Exit-code contract of ``repro lint`` / ``python -m repro.analysis``."""

import json

import pytest

from repro.analysis.cli import main

BAD = "import time\ntime.sleep(1.0)\n"
GOOD = "from repro.resilience.clocks import system_sleep\nsystem_sleep(1.0)\n"


def _module_file(tmp_path, name, source):
    path = tmp_path / "repro" / "core" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


def test_clean_tree_exits_zero(tmp_path, capsys):
    path = _module_file(tmp_path, "good.py", GOOD)
    assert main([str(path)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_fresh_finding_exits_one(tmp_path, capsys):
    path = _module_file(tmp_path, "bad.py", BAD)
    assert main([str(path)]) == 1
    assert "RPR002" in capsys.readouterr().out


def test_json_format(tmp_path, capsys):
    path = _module_file(tmp_path, "bad.py", BAD)
    assert main([str(path), "--format", "json"]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["summary"]["total"] == 1


def test_github_format_emits_workflow_commands(tmp_path, capsys):
    path = _module_file(tmp_path, "bad.py", BAD)
    assert main([str(path), "--format", "github"]) == 1
    out = capsys.readouterr().out
    (annotation,) = [
        line for line in out.splitlines() if line.startswith("::error ")
    ]
    assert "line=2" in annotation
    assert "title=RPR002" in annotation
    assert "::RPR002 " in annotation


def test_per_file_pass_flags_the_clock_in_its_defining_module(
    tmp_path, capsys
):
    # The framework module only calls a helper; the helper's own file
    # holds the time.time() call, and that is where RPR002 fires.
    framework = (
        "from repro.core.timing import stamp\n"
        "class TemplateSession:\n"
        "    def execute(self, x):\n"
        "        return stamp(x)\n"
    )
    timing = (
        "import time\n"
        "def stamp(x):\n"
        "    return x, time.perf_counter(), time.time()\n"
    )
    _module_file(tmp_path, "framework.py", framework)
    path = _module_file(tmp_path, "timing.py", timing)
    root = path.parent.parent.parent
    assert main([str(root)]) == 1
    out = capsys.readouterr().out
    (finding,) = [line for line in out.splitlines() if " RPR002 [" in line]
    assert finding.startswith(f"{path.as_posix()}:3:")


@pytest.mark.parametrize(
    "flag",
    [
        ["--effects"],
        ["--graph-out", "graph.json"],
        ["--baseline", "baseline.json"],
        ["--no-baseline"],
        ["--write-baseline"],
        ["--selftest"],
    ],
    ids=lambda flag: flag[0],
)
def test_retired_flags_no_longer_parse(flag, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["src", *flag])
    assert excinfo.value.code == 2


def test_list_rules_mentions_every_rule(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in (f"RPR00{i}" for i in range(1, 9)):
        assert code in out
    for code in ("RPR009", "RPR101", "RPR104"):
        assert code in out
    # Retired codes are never reused.
    assert "RPR102" not in out
    assert "RPR103" not in out
