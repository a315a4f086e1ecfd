"""The benchmark's tracer must find every function it times.

perfbench/tracer.py wraps the functions named in its WRAPPED list and
skips, with only a warning, any it cannot find; a renamed or deleted
function would silently drop out of the per-layer metrics.  This test only
reads perfbench/.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json
import pipeline
import trisys.cli
import tracer
print(json.dumps(tracer.install(tracer.Recorder())))
"""


def test_tracer_wraps_every_listed_function():
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
