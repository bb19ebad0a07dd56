"""What ``import pinchsim`` loads and exports: the production package only.

The scalar reference (``channel`` and the ``noma`` functions) is what the
tests and perfbench's checks hold the kernel to; the package never needs it.
"""

import os
import pathlib
import subprocess
import sys

import pinchsim
from pinchsim import kernels

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"
REFERENCE = {"DecodingOrder", "conservative_order", "conservative_sinr", "min_sinr",
             "order_violations", "sic_decode_sinr", "true_sinr"}


def test_import_loads_no_scalar_reference():
    code = ("import sys, pinchsim, pinchsim.cli; "
            "print(sorted({'pinchsim.noma', 'pinchsim.channel'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    assert result.stdout.strip() == "[]"


def test_public_api_exports_no_scalar_reference():
    assert not REFERENCE & set(pinchsim.__all__)
    assert not REFERENCE & set(vars(pinchsim))
    for name in ("RobustGains", "robust_gains", "apply_csi_error"):
        assert getattr(pinchsim, name) is getattr(kernels, name)


def test_readme_library_example_runs(capsys):
    # the root names it uses (ps.optimize, ps.score_candidate, ...) are the
    # documented library entry points
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
