"""The benchmark's tracer still finds every function it wraps.

perfbench/tracer.py replaces functions by name at each module that
imports them; a rename or deletion there breaks traced runs without
failing any other test.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = '''
from tracer import Tracer
Tracer().install()
from bordcalc.session import Session
from bordcalc.verify import verify
checks = verify(Session(), 'loc', 2)
assert checks and all(c.passed for c in checks)
'''


def test_tracer_installs_and_runs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / 'src'), str(ROOT / 'perfbench')]))
    proc = subprocess.run([sys.executable, '-c', SCRIPT], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
