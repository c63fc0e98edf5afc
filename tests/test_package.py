import os
import subprocess
import sys
from pathlib import Path

import qlbs


def run_probe(probe: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(Path(qlbs.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout.strip()


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; the package and its CLI run on numpy.
    assert run_probe("import sys, qlbs, qlbs.cli; print(sorted(m for m in sys.modules "
                     "if m.split('.')[0] == 'scipy'))") == "[]"


def test_cli_import_looks_up_no_blas_library():
    # The CLI finds numpy's OpenBLAS when its first command runs.
    assert run_probe("import qlbs, qlbs.cli; "
                     "print(qlbs.cli._openblas_threads.cache_info().misses)") == "0"
