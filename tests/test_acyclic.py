"""The acyclicity gate (``tests/acyclic.py``): a test whose ``Simulator.run``
leaves cyclic garbage fails, naming the cycle's types; a clean one passes."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

GATED = '''
from repro.cluster.simtime import Simulator


def make_cycle():
    box = []
    box.append(box)


def test_a_run_that_leaves_a_cycle():
    sim = Simulator()
    sim.schedule(1.0, make_cycle)
    sim.run()


def test_a_cycle_made_outside_a_run_is_not_the_run_s():
    make_cycle()
    sim = Simulator()
    sim.schedule(1.0, list)
    sim.run()
'''


def test_the_gate_fails_only_the_run_that_leaves_a_cycle(tmp_path):
    (tmp_path / "test_gated.py").write_text(GATED)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(TESTS), str(SRC)]))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "acyclic", "-p", "no:cacheprovider",
         "test_gated.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert "1 failed, 1 passed" in done.stdout, done.stdout + done.stderr
    assert "FAILED test_gated.py::test_a_run_that_leaves_a_cycle" in done.stdout
    assert "Simulator.run left 1 objects of cyclic garbage (list x1)" in done.stdout
