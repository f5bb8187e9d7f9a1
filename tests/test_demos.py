"""Each demo script runs to the end through the public API."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script,expected", [
    ("frame_features.py", "descriptor dimension 58950"),
    ("gradient_check.py", "peephole=diagonal"),
    ("end_to_end.py", "rank-1 per trial"),
])
def test_demo_runs(capsys, script, expected):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert expected in capsys.readouterr().out
