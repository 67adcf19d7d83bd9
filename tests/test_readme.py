"""The README's Library example runs as written against the source tree, and
imports exactly the package's public names."""

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import qaoa_mimo

ROOT = Path(__file__).resolve().parent.parent


def library_example():
    """The python code block under the README's ``## Library`` heading."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs():
    result = subprocess.run(
        [sys.executable, "-c", library_example()],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert 0.0 <= float(result.stdout) <= 1.0  # the example prints a success probability


def test_package_exports_the_library_example_names():
    imported = {
        alias.name
        for node in ast.walk(ast.parse(library_example()))
        if isinstance(node, ast.ImportFrom) and node.module == "qaoa_mimo"
        for alias in node.names
    }
    public = {
        name for name, value in vars(qaoa_mimo).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == imported
