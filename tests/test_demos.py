"""Smoke tests: every demo script and demo config runs to completion."""

import runpy
from pathlib import Path

import pytest

from chernquad import cli

DEMOS = Path(__file__).resolve().parent.parent / "demos"


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
