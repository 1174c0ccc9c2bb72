"""Smoke-run the fast narrative demos so they cannot rot unnoticed.

Each demo asserts its own claims (invariances, exact gradients, round
trips); running it in-process takes well under a second. Not run here:
06_train_toy_model.py trains two models for several minutes, and
07_render_gallery.py writes SVG files into demos/out/.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
FAST_DEMOS = (
    "01_plan_geometry.py",
    "02_adjacency_cost.py",
    "03_soft_loss_and_gradients.py",
    "04_tokenizer.py",
    "05_guidance.py",
)


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
