"""Importing the package stays cheap: stdlib only, no numpy."""

import pathlib
import subprocess
import sys

import ecsquares

ROOT = pathlib.Path(__file__).resolve().parents[1]
# The subprocesses import the package from src/ and write no bytecode there.
ENV = {"PYTHONPATH": str(pathlib.Path(ecsquares.__file__).resolve().parents[1]),
       "PYTHONDONTWRITEBYTECODE": "1"}


def test_import_leaves_numpy_unloaded():
    out = subprocess.run(
        [sys.executable, "-c", "import sys, ecsquares; print('numpy' in sys.modules)"],
        env=ENV, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_no_runtime_dependencies():
    # Read without tomllib, which Python 3.10 (the declared minimum) lacks:
    # the [project] table must hold exactly one dependencies line, an empty list.
    text = (ROOT / "pyproject.toml").read_text()
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    lines = [line.strip() for line in project.splitlines()
             if line.strip().startswith("dependencies")]
    assert lines == ["dependencies = []"]


def test_decimal_is_imported_only_to_print_cycle_rows():
    # Cycle rows print through decimal; searches without them never load it.
    script = (
        "import contextlib, io, sys\n"
        "from ecsquares.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['search', '--nmax', '100'])\n"
        "    main(['verify-extension', '--q', '9', '--a', '2'])\n"
        "    loaded = 'decimal' in sys.modules\n"
        "    main(['search', '--qmax', '5', '--nmax', '8', '--degenerate', 'only'])\n"
        "print(loaded, 'decimal' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], env=ENV,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False True"
