"""The package declares every third-party package it imports."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Prints the top-level names of the installed third-party packages that
# importing the CLI and the service server loads.
_PROBE = """
import json, os, sys, sysconfig
before = set(sys.modules)
import repro.cli, repro.service.server
paths = sysconfig.get_paths()
roots = {os.path.realpath(paths[key]) + os.sep for key in ("purelib", "platlib")}
loaded = set()
for name in set(sys.modules) - before:
    path = getattr(sys.modules[name], "__file__", None)
    if path and os.path.realpath(path).startswith(tuple(roots)):
        loaded.add(name.partition(".")[0])
loaded.discard("repro")
print(json.dumps(sorted(loaded)))
"""


def _canonical(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is Python 3.11+")
def test_runtime_imports_are_declared_dependencies():
    import importlib.metadata
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        _canonical(re.split(r"[\s<>=!~;\[(]", req, maxsplit=1)[0])
        for req in project["dependencies"]
    }
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    loaded = json.loads(out.stdout)
    assert "numpy" in loaded
    distributions = importlib.metadata.packages_distributions()
    undeclared = {
        name: distributions.get(name, [name])
        for name in loaded
        if not any(_canonical(d) in declared for d in distributions.get(name, [name]))
    }
    assert not undeclared, f"imported but not in pyproject.toml: {undeclared}"
