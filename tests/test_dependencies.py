"""The package's only runtime dependency is numpy, and importing it stays cheap.

The tests lean on scipy as an oracle, so this checks in a fresh
interpreter that importing the whole package never loads it, nor
``concurrent.futures``, whose import alone costs several milliseconds.
"""

import os
import subprocess
import sys

import robusttolls

SRC = os.path.dirname(os.path.dirname(os.path.abspath(robusttolls.__file__)))


def modules_loaded_by_import(prefix: str) -> str:
    """Modules under ``prefix`` that a fresh ``import robusttolls, robusttolls.cli`` loads."""
    probe = ("import sys, robusttolls, robusttolls.cli; "
             f"print(sorted(m for m in sys.modules if m == {prefix!r} or m.startswith({prefix + '.'!r})))")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.strip()


def test_import_leaves_scipy_unloaded():
    assert modules_loaded_by_import("scipy") == "[]"


def test_import_leaves_concurrent_futures_unloaded():
    assert modules_loaded_by_import("concurrent.futures") == "[]"
