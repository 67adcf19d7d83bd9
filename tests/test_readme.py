"""The README's Library example runs as written against the source tree."""

import os
import re
import subprocess
import sys
from pathlib import Path

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
