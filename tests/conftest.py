"""Shared fixtures: one full-size session reused across the suite, and a
subprocess runner for the command line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from bordcalc.session import Session


@pytest.fixture(scope='session')
def sess():
    return Session()


SRC = Path(__file__).resolve().parents[1] / 'src'


@pytest.fixture
def run_cli():
    """Run python -m bordcalc in a subprocess; a hang fails the test after 60 s.

    No timeout plugin is assumed, so this is the one guard for inputs
    that once hung.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(*argv):
        return subprocess.run([sys.executable, '-m', 'bordcalc', *argv],
                              capture_output=True, env=env, timeout=60)
    return run
