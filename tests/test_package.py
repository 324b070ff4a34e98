"""The package has one import path per name: each name is imported from its
defining module, and importing one module loads only what it uses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import opertau

SRC = str(Path(opertau.__file__).resolve().parents[1])


def fresh(code):
    """Run ``code`` in a new interpreter on this source tree; its JSON output."""
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_hecke_loads_only_its_dependencies():
    loaded = fresh(
        "import json, sys, opertau.hecke; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'opertau')))"
    )
    assert loaded == [
        "opertau", "opertau.errors", "opertau.hecke", "opertau.linalg", "opertau.series",
    ]


def test_package_reexports_nothing():
    public = fresh(
        "import json, types, opertau; "
        "print(json.dumps([n for n, v in vars(opertau).items() "
        "if not n.startswith('_') and not isinstance(v, types.ModuleType)]))"
    )
    assert public == []
