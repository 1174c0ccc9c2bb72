"""Smoke-run the narrative demos so they cannot rot unnoticed.

Each demo asserts its own claims (invariances, exact gradients, round
trips); the first five take well under a second in-process.
06_train_toy_model.py trains a baseline and a guided model, generates and
evaluates: the guided train -> generate -> eval path end to end, in about
half a minute on two cores. The render gallery runs from a copy under a
temporary directory, so the SVG files it writes next to itself stay out of
the tree.
"""

import runpy
import shutil
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


def test_render_gallery_runs(tmp_path, capsys):
    demo = tmp_path / "07_render_gallery.py"
    shutil.copy(DEMOS / demo.name, demo)
    runpy.run_path(str(demo), run_name="__main__")
    written = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert len(written) == 12 and all(name.endswith(".svg") for name in written)
    assert "wrote 12 files" in capsys.readouterr().out


@pytest.mark.slow
def test_train_toy_model_runs(capsys):
    runpy.run_path(str(DEMOS / "06_train_toy_model.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "training guided (400 steps)" in out
    assert "guided vs baseline deltas" in out
