"""pytest plugin: one digest line per ``ServerlessRuntime`` a test builds, so
any two commits can be diffed trace by trace.

    PYTHONPATH=src:tests python -m pytest -p trace_digests --trace-digests=FILE \
        tests benchmarks/test_*.py

Each line is ``nodeid #i sha1(log.signature()) n_events sim.now
control_messages bytes_moved sha1(metrics_summary)``, written at the test's
teardown for the runtimes built since the previous one.  Without the option
the plugin does nothing.  Set ``BENCH_ARTIFACTS`` when running it over
``benchmarks/`` so no committed baseline is rewritten.

    python tests/trace_digests.py --compare A B

exits 1 and lists the runtimes whose line differs in any column before the
last (a trace moved); a line that differs only in its final-metrics column, or
exists in one file only, is printed and does not fail.
"""

from __future__ import annotations

import hashlib
import sys

import pytest

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
        from repro.runtime.runtime import ServerlessRuntime  # --compare runs without src/

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


def compare(path_a: str, path_b: str) -> int:
    def load(path):
        with open(path) as lines:
            rows = [line.split() for line in lines]
        return {" ".join(row[:-6]): (row[-6:-1], row[-1]) for row in rows}

    a, b = load(path_a), load(path_b)
    for key in sorted(a.keys() ^ b.keys()):
        print(f"only in {path_a if key in a else path_b}: {key}")
    both = sorted(a.keys() & b.keys())
    for key in (k for k in both if a[k][0] == b[k][0] and a[k][1] != b[k][1]):
        print(f"metrics only: {key} {a[key][1]} -> {b[key][1]}")
    moved = [k for k in both if a[k][0] != b[k][0]]
    for key in moved:
        print(f"TRACE MOVED: {key} {' '.join(a[key][0])} -> {' '.join(b[key][0])}")
    return 1 if moved else 0


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] != "--compare":
        sys.exit("usage: python tests/trace_digests.py --compare A B")
    sys.exit(compare(sys.argv[2], sys.argv[3]))
