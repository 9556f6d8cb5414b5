"""pytest plugin: fail any test whose ``Simulator.run`` leaves cyclic garbage.

    PYTHONPATH=src:tests python -m pytest -p acyclic tests

``tests/conftest.py`` loads it, so every tier-1 run is gated.  ``run()``
pauses the cyclic collector while it dispatches; what keeps that safe is that
the model makes no reference cycle, so refcounting frees everything a run
drops.  A cycle made during a run is a leak that lasts the whole run.

Around each ``Simulator.run`` the plugin runs ``gc.collect(0)`` before the run
(clearing the young generation, so only the run's own allocations sit in it),
then ``gc.collect(0)`` under ``DEBUG_SAVEALL`` after it: anything that second
collection finds unreachable was cyclic garbage the run made.  A test phase
(set-up, call, tear-down) whose runs left any fails, naming the most common
types of the objects in the cycles.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest


class _Gate:
    def __init__(self):
        from repro.cluster.simtime import Simulator

        self.leaks: list = []
        run, leaks = Simulator.run, self.leaks

        def gated_run(sim, until=None):
            gc.collect(0)
            try:
                return run(sim, until)
            finally:
                flags = gc.get_debug()
                gc.set_debug(flags | gc.DEBUG_SAVEALL)
                try:
                    gc.collect(0)
                finally:
                    gc.set_debug(flags)
                if gc.garbage:
                    leaks.append(Counter(type(o).__qualname__ for o in gc.garbage))
                    gc.garbage.clear()

        Simulator.run = gated_run

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_setup(self, item):
        return (yield from self._gated())

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_call(self, item):
        return (yield from self._gated())

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_teardown(self, item):
        return (yield from self._gated())

    def _gated(self):
        del self.leaks[:]
        result = yield
        if self.leaks:
            total = sum(self.leaks, Counter())
            kinds = ", ".join(f"{name} x{n}" for name, n in total.most_common(8))
            del self.leaks[:]
            pytest.fail(
                f"Simulator.run left {sum(total.values())} objects of cyclic garbage ({kinds})",
                pytrace=False,
            )
        return result


def pytest_configure(config):
    config.pluginmanager.register(_Gate(), "acyclic-gate")
