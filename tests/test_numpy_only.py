"""The package runs on numpy alone: importing it must not load scipy."""

import os
import subprocess
import sys

import vowelkit


def test_package_and_cli_import_without_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(vowelkit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, vowelkit, vowelkit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
