"""The package's only runtime dependency is numpy.

The tests lean on scipy as an oracle, so this checks in a fresh
interpreter that importing the whole package never loads it.
"""

import os
import subprocess
import sys

import robusttolls

SRC = os.path.dirname(os.path.dirname(os.path.abspath(robusttolls.__file__)))


def test_import_leaves_scipy_unloaded():
    probe = ("import sys, robusttolls, robusttolls.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"
