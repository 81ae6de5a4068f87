"""What ``linesearch serve`` loads at start: numpy stays unimported.

The batch backends import numpy lazily, on first use, so a server that
never runs a batch evaluation pays neither the import time nor the
resident memory.  A fresh interpreter pins that, since an eager import
anywhere under ``repro`` would undo it silently.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir, "src"))

PROBE = """
import json, sys
import repro.cli, repro.service.server
import repro.batch.backend as backend
print(json.dumps({
    "numpy": sorted(m for m in sys.modules if m.split(".")[0] == "numpy"),
    "kernels_loaded": backend._NUMPY is not None,
}))
"""


def test_serve_imports_leave_numpy_out():
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    loaded = json.loads(result.stdout)
    assert loaded["numpy"] == []
    assert loaded["kernels_loaded"] is False
