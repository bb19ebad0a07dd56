"""The command line's case table, its outputs against the goldens in
tests/golden/, and the comparison of ``tools/identity.py``.

``tools/golden.py`` holds the cases and the golden comparison, and
regenerates the goldens with --write.
"""

import pathlib
import sys

import numpy as np
import pytest

from pinchsim import cli

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))
import golden  # noqa: E402
import identity  # noqa: E402


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


@pytest.mark.parametrize("name", [name for name in golden.CASES
                                  if golden.expected_exit(name) != 1])
def test_case_parses_and_loads_its_config(name, tmp_path):
    args = cli._build_parser().parse_args(golden.command_line(name, tmp_path))
    if golden.expected_exit(name) == 0:
        cli._load_effective_config(args)


@pytest.mark.parametrize("name", [name for name in golden.CASES if golden.expected_exit(name)])
def test_refused_case_exits_with_its_code(name, tmp_path):
    found = golden.run(name, tmp_path)
    assert golden.exit_code(found[".stdout"]) == golden.expected_exit(name)
    assert ".csv" not in found and ".config.json" not in found


def _tree(directory, **changes):
    """A tree of case outputs and kernel arrays, ``changes`` replacing or
    (with None) removing its files by name."""
    files = {"a.csv": "x,y\n1,2\n", "a.stdout": "exit=0\n", "a.stderr": "wrote <out>/a.csv\n",
             "kernels.npz": {"h": np.arange(3.0), "f": np.zeros((2, 2))}}
    files.update(changes)
    directory.mkdir()
    for name, content in files.items():
        if isinstance(content, dict):
            np.savez(directory / name, **content)
        elif content is not None:
            (directory / name).write_text(content)
    return directory


@pytest.mark.parametrize("changes", [
    {},
    {"a.csv": None},
    {"b.stderr": ""},
    {"a.csv": "x,y\n1,3\n"},
    {"a.stderr": "wrote <out>/b.csv\n"},
    {"a.stdout": "exit=2\n"},
    {"kernels.npz": {"h": np.arange(3), "f": np.zeros((2, 2))}},         # dtype
    {"kernels.npz": {"h": np.arange(3.0), "f": np.zeros(4)}},            # shape
    {"kernels.npz": {"h": np.arange(3.0), "f": -np.zeros((2, 2))}},      # bytes: -0.0
    {"kernels.npz": {"h": np.arange(3.0)}},                              # an array less
])
def test_identity_fails_on_any_difference(changes, tmp_path):
    found = identity.differences(_tree(tmp_path / "base"), _tree(tmp_path / "change", **changes))
    assert len(found) == (1 if changes else 0)


def test_identity_fails_a_tree_whose_case_exits_otherwise(tmp_path):
    directory = tmp_path / "change"
    directory.mkdir()
    for name in golden.CASES:
        (directory / f"{name}.stdout").write_text(f"exit={golden.expected_exit(name)}\n")
    assert identity.wrong_exits(directory) == []
    (directory / "refuse_type.stdout").write_text("exit=0\n")  # a typo'd override is refused
    (directory / "optimize.stdout").write_text("x=1\nexit=2\n")
    assert identity.wrong_exits(directory) == ["optimize exited 2 in change, expected 0",
                                               "refuse_type exited 0 in change, expected 2"]
