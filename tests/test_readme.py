"""The README's Library example runs as written against the source tree, and
imports exactly the package's public names; its config key lists and example
configs match the command line's tables of keys."""

import ast
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import qaoa_mimo
from qaoa_mimo.cli import KEYS

ROOT = Path(__file__).resolve().parent.parent


def readme_section(title):
    """The README's text under the ``## title`` heading."""
    readme = (ROOT / "README.md").read_text()
    return readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def library_example():
    """The python code block under the README's ``## Library`` heading."""
    return re.search(r"```python\n(.*?)```", readme_section("Library"), re.DOTALL).group(1)


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


def test_config_key_lists_are_the_modes_tables():
    # the bullets after "Config keys, by mode": "- `mode`: `key` (default), `key`, ..."
    block = readme_section("Command line").split("\nConfig keys, by mode", 1)[1]
    bullets = re.split(r"^- ", block.split("\n\n", 2)[1], flags=re.MULTILINE)[1:]
    listed = {}
    for bullet in bullets:
        mode, keys = bullet.split(":", 1)
        listed[mode.strip("`")] = re.findall(r"`(\w+)`", keys)
    assert {mode: sorted(keys) for mode, keys in listed.items()} == {
        mode: sorted(keys) for mode, keys in KEYS.items()
    }


def test_example_configs_use_only_their_modes_keys():
    section = readme_section("Command line")
    configs = re.findall(r"cat > (\S+) <<'EOF'\n(.*?)\nEOF\n", section, re.DOTALL)
    mode_of = {path: mode for mode, path in re.findall(r"qaoa-mimo ([\w-]+) +--config (\S+)", section)}
    assert configs
    for path, text in configs:
        assert set(json.loads(text)) <= set(KEYS[mode_of[path]]), path
