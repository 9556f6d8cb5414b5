"""pytest plugin: one digest line per ``ServerlessRuntime`` a test builds, so
any two commits can be diffed trace by trace.

    PYTHONPATH=src:tests python -m pytest -p trace_digests --trace-digests=FILE \
        tests benchmarks/test_*.py

Each line is ``nodeid #i sha1(log.signature()) n_events sim.now
control_messages bytes_moved sha1(metrics_summary)``, written at the test's
teardown for the runtimes built since the previous one.  Without the option
the plugin does nothing.  Set ``BENCH_ARTIFACTS`` when running it over
``benchmarks/`` so no committed baseline is rewritten.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.runtime.runtime import ServerlessRuntime

UNSEEDED = ("tests/test_properties.py",)  # hypothesis draws differ run to run


def pytest_addoption(parser):
    parser.addoption(
        "--trace-digests", metavar="FILE", default=None,
        help="write one trace digest line per ServerlessRuntime built by each test",
    )


def _sha(obj) -> str:
    return hashlib.sha1(repr(obj).encode()).hexdigest()[:12]


class _Recorder:
    def __init__(self, path: str):
        self.out = open(path, "w")
        self.built = []
        init, built = ServerlessRuntime.__init__, self.built

        def registering_init(rt, *args, **kwargs):
            init(rt, *args, **kwargs)
            built.append(rt)

        ServerlessRuntime.__init__ = registering_init

    @pytest.hookimpl(trylast=True)
    def pytest_runtest_teardown(self, item):
        built = self.built[:]
        del self.built[:]
        if item.nodeid.startswith(UNSEEDED):
            return
        for i, rt in enumerate(built):
            print(
                item.nodeid, f"#{i}", _sha(rt.log.signature()), len(rt.log), repr(rt.sim.now),
                rt.control_messages, rt.bytes_moved, _sha(sorted(rt.metrics_summary().items())),
                file=self.out,
            )

    def pytest_unconfigure(self, config):
        self.out.close()


def pytest_configure(config):
    path = config.getoption("--trace-digests")
    if path:
        config.pluginmanager.register(_Recorder(path), "trace-digest-recorder")
