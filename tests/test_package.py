import os
import subprocess
import sys
from pathlib import Path

import qlbs


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; the package and its CLI run on numpy.
    probe = ("import sys, qlbs, qlbs.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(qlbs.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
