"""Smoke tests: every demo script and demo config runs to completion, and
the README's Python examples print what their comments say."""

import re
import runpy
from pathlib import Path

import pytest

from chernquad import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_script_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out


@pytest.mark.parametrize("config", sorted(p.name for p in (DEMOS / "configs").glob("*.cfg")))
def test_demo_config_reports(config, tmp_path, monkeypatch, capsys):
    # sphere_grid.cfg writes its grid relative to the working directory
    monkeypatch.chdir(tmp_path)
    assert cli.main(["report", "--config", str(DEMOS / "configs" / config)]) == 0
    assert capsys.readouterr().out


_README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                            flags=re.DOTALL)


@pytest.mark.parametrize("block", _README_BLOCKS, ids=["quick_start", "custom_surface"])
def test_readme_example_prints_its_comments(block, capsys):
    # each print(...)  # text line of the example promises the line it prints
    promised = re.findall(r"^print\(.*\)\s+# (.*)$", block, flags=re.MULTILINE)
    assert promised
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == promised
