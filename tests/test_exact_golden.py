"""The benchmark's ``exact`` operations, each checked against ``perfbench/golden_exact.json``.

The relations, the ladder cells, the filtration verdict, the torus report and
the defect argmax are exact outputs, so a change in any of them is a fault.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tasks  # noqa: E402


@pytest.mark.parametrize("op", [op for task in tasks.exact(0) for op in task.ops], ids=lambda op: op.label)
def test_exact_operation_matches_the_golden_output(op):
    assert op.check(op.run()) is None
