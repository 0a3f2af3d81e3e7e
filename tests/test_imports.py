"""Importing the package loads numpy, its one dependency, and the standard
library, nothing else."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_LOADED = """
import json, sys
before = set(sys.modules)
import logbesov
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_import_loads_only_numpy_and_the_standard_library():
    """A fresh interpreter's `import logbesov` adds no top-level module
    beyond `sys.stdlib_module_names`, `numpy` and `logbesov` (the modules
    the interpreter loaded before the import do not count)."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", _LOADED], capture_output=True, text=True, check=True, env=env)
    loaded = set(json.loads(out.stdout)) - set(sys.stdlib_module_names)
    assert loaded == {"logbesov", "numpy"}
