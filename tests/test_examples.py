"""Every script under ``examples/`` runs to completion.

The examples are self-checking scenarios (they assert, for instance,
that the secure pipeline agrees with the plain streaming evaluator), so
running each one as ``__main__`` keeps them in step with the API.
"""

import pathlib
import runpy

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "examples").glob("*.py")
)


def test_examples_found():
    assert len(EXAMPLES) == 4


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
