"""Every pan module imports first in a fresh interpreter, so that no pair of
modules imports each other in a cycle that only a lucky import order hides."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import pan

SRC = str(Path(pan.__file__).resolve().parents[1])
MODULES = sorted(m.name for m in pkgutil.iter_modules(pan.__path__))


def test_every_module_is_found():
    assert {"cli", "data", "evaluation", "training"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    env = os.environ | {"PYTHONPATH": SRC}
    result = subprocess.run([sys.executable, "-c", f"import pan.{module}"],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
