from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import gtspq

_PROBE = """
import json, pkgutil, sys
before = set(sys.modules)
import gtspq
modules = [info.name for info in pkgutil.iter_modules(gtspq.__path__)]
for name in modules:
    __import__(f"gtspq.{name}")
print(json.dumps(modules))
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_runtime_imports_only_numpy_and_the_standard_library():
    """Importing every gtspq module in a fresh interpreter loads no
    top-level module but numpy, gtspq and the standard library's, so scipy,
    cffi or any other installed package cannot become a dependency."""
    src = str(Path(gtspq.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    modules, loaded = json.loads(out[0]), json.loads(out[1])
    assert {"cli", "instance", "preprocess", "qaoa", "qubo", "sampler"} <= set(modules)
    assert "numpy" in loaded and "gtspq" in loaded
    # multiprocessing also lists the __main__ module as __mp_main__
    allowed = set(sys.stdlib_module_names) | {"numpy", "gtspq", "__mp_main__"}
    assert [name for name in loaded if name not in allowed] == []
