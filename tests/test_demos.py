"""The demos run end to end on the public parse, extract, train and
evaluate API, so that a change to that API cannot break them unseen."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["quickstart_extraction",
                                  "train_and_evaluate", "corpus_analyses"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
