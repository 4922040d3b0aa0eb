"""Every module imports on its own, and the command line starts.

The package imports no module up front, so each one is imported in a
fresh interpreter: an import cycle or a dependence on another module
having been imported first fails here.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import srat

SRC = Path(srat.__file__).resolve().parent.parent
MODULES = ["srat"] + sorted(f"srat.{m.name}" for m in pkgutil.iter_modules(srat.__path__))


def _python(*args) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_in_a_fresh_interpreter(module):
    done = _python("-c", f"import {module}")
    assert done.returncode == 0, done.stderr


def test_cli_help_runs_in_a_fresh_interpreter():
    done = _python("-m", "srat.cli", "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: srat")
