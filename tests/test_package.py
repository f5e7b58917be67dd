import os
import subprocess
import sys
from pathlib import Path

import swarm_eq


def test_public_surface_resolves_and_star_imports():
    assert len(set(swarm_eq.__all__)) == len(swarm_eq.__all__)
    assert [name for name in swarm_eq.__all__ if not hasattr(swarm_eq, name)] == []
    namespace = {}
    exec("from swarm_eq import *", namespace)
    assert set(swarm_eq.__all__) <= set(namespace)


def test_cli_import_loads_no_scipy():
    # scipy is imported where a quadrature oracle or root finder runs, not at import time
    code = "import sys, swarm_eq.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(swarm_eq.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
