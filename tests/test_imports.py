"""Importing the package stays cheap: stdlib only, no numpy."""

import pathlib
import subprocess
import sys
import tomllib

import ecsquares

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_import_leaves_numpy_unloaded():
    src = pathlib.Path(ecsquares.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", "import sys, ecsquares; print('numpy' in sys.modules)"],
        env={"PYTHONPATH": str(src)}, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_no_runtime_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["dependencies"] == []
