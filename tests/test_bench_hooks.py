"""The benchmark's tracer and child still find every name they use.

perfbench/tracer.py replaces functions by name at each module that
imports them, and perfbench/child.py imports names of its own; a rename
or deletion there breaks benchmark runs without failing any other test.
"""

import json
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


def test_child_answers_traced_queries(tmp_path):
    job = {'mode': 'query', 'trace': True, 'spans': str(tmp_path / 'spans.jsonl'),
           'queries': [['member', 'c1*e^-1 + e^-2'], ['member', 'e^-1'],
                       ['nf', 'e*G(1,2)']]}
    env = dict(os.environ, PYTHONPATH=str(ROOT / 'src'))
    proc = subprocess.run([sys.executable, str(ROOT / 'perfbench' / 'child.py')],
                          input=json.dumps(job), env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)['results']
    assert [r[0] for r in results] == ['found', 'none', 'ok']
