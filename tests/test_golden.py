"""The command line's outputs against the goldens in tests/golden/.

``tools/golden.py`` holds the cases and the comparison, and regenerates the
goldens with --write.
"""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.mark.parametrize("threads", [1, 2])
def test_outputs_match_the_goldens(threads):
    assert golden.differences(threads) == []


def test_every_golden_file_belongs_to_a_case():
    assert golden.strays() == []


def test_comparison_passes_last_digits_only():
    row = "csi_eps,0.1,RobustPSO,16920295385781661272,0.0101349341,-19.9417907\n"
    same = row.replace("0.0101349341", "0.0101349342")   # the 9th digit
    assert golden.first_difference(same, row) is None
    for changed in (row.replace("0.0101349341", "0.0101359341"),  # the 4th digit
                    row.replace("1272", "1273"),                  # an integer: the seed
                    row.replace("RobustPSO", "NonRobustPSO"),
                    row.replace("-19.9417907", "-19.9417907,")):
        assert golden.first_difference(changed, row) is not None
