"""Checks of the package source itself: its size, and that the oldest
supported Python reads and runs it as the running one does."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import portable


def test_the_package_holds_at_most_3000_lines():
    """Counted as `cat src/faultloom/*.py | wc -l` counts them: newlines."""
    sources = sorted((portable.SRC / "faultloom").glob("*.py"))
    assert sum(path.read_bytes().count(b"\n") for path in sources) <= 3000


def _python310() -> str | None:
    """The first candidate that runs and says it is 3.10. A pyenv shim is
    found on PATH even when its version is not selected, and then exits 127."""
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    for candidate in filter(None, [shutil.which("python3.10"), *map(str, sorted(versions.glob("3.10*/bin/python")))]):
        try:
            done = subprocess.run([candidate, "-c", "import sys; print(sys.version_info[:2])"],
                                  capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if done.returncode == 0 and done.stdout == "(3, 10)\n":
            return candidate
    return None


@pytest.mark.skipif(sys.version_info[:2] == (3, 10), reason="the running interpreter is 3.10")
def test_python_310_compiles_the_package_and_decides_as_this_interpreter():
    python = _python310()
    if python is None:
        pytest.skip("no Python 3.10 interpreter found")
    done = subprocess.run([python, "-B", portable.__file__], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == portable.outcomes()
