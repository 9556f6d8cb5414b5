"""pytest plugin: one digest line per ``ServerlessRuntime`` a test builds, so
any two commits can be diffed trace by trace.

    PYTHONPATH=src:tests python -m pytest -p trace_digests --trace-digests=FILE \
        tests benchmarks/test_*.py

Each line is ``nodeid #i sha1(log.signature()) n_events sim.now
control_messages bytes_moved probe sha1(metrics_summary)``, written at the
test's teardown for the runtimes built since the previous one; ``probe`` is
the sha1 of the sanitizer's protocol-event stream
(``rt.probe.trace.signature()``) when a sanitizer is on, ``-`` otherwise.
Without the option the plugin does nothing.  Set ``BENCH_ARTIFACTS`` when running it over
``benchmarks/`` so no committed baseline is rewritten.

    python tests/trace_digests.py --compare A B [--expect tests/trace_moves.txt]

exits 1 and lists the runtimes whose line differs in any column before the
last (a trace moved); a line that differs only in its final-metrics column, or
exists in one file only, is printed and does not fail.  Only the trace columns
both files have are compared, so a file written before the ``probe`` column
existed still compares with one written after.

A change that means to move traces lists them in the ``--expect`` file, one
``<nodeid prefix>  # reason`` per line (blank lines and lines starting with
``#`` are skipped).  A move under a listed prefix prints ``EXPECTED MOVE`` and
does not fail; an entry that matched no move fails as stale, so the file holds
exactly one change's moves and the next change starts from an empty one.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from typing import Optional

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
            probe = _sha(rt.probe.trace.signature()) if rt.config.sanitizers else "-"
            print(
                item.nodeid, f"#{i}", _sha(rt.log.signature()), len(rt.log), repr(rt.sim.now),
                rt.control_messages, rt.bytes_moved, probe,
                _sha(sorted(rt.metrics_summary().items())), file=self.out,
            )

    def pytest_unconfigure(self, config):
        self.out.close()


def pytest_configure(config):
    path = config.getoption("--trace-digests")
    if path:
        config.pluginmanager.register(_Recorder(path), "trace-digest-recorder")


def load_expected(path: str) -> dict:
    """``<nodeid prefix>  # reason`` lines -> {prefix: reason}."""
    with open(path) as lines:
        entries = [line.partition("  #") for line in lines if not line.startswith("#")]
    return {prefix.strip(): reason.strip() for prefix, _, reason in entries if prefix.strip()}


def compare(path_a: str, path_b: str, expected: Optional[dict] = None) -> int:
    def load(path):
        rows = {}
        with open(path) as lines:
            for line in lines:
                row = line.split()
                # the runtime number ("#i") ends the key; the trace columns follow it
                end = max(i for i, token in enumerate(row) if token.startswith("#")) + 1
                rows[" ".join(row[:end])] = (row[end:-1], row[-1])
        return rows

    a, b = load(path_a), load(path_b)
    # a file written before a trace column existed is compared on the ones it has
    width = min((len(trace) for trace, _ in (*a.values(), *b.values())), default=0)
    a = {key: (trace[:width], metrics) for key, (trace, metrics) in a.items()}
    b = {key: (trace[:width], metrics) for key, (trace, metrics) in b.items()}
    for key in sorted(a.keys() ^ b.keys()):
        print(f"only in {path_a if key in a else path_b}: {key}")
    both = sorted(a.keys() & b.keys())
    for key in (k for k in both if a[k][0] == b[k][0] and a[k][1] != b[k][1]):
        print(f"metrics only: {key} {a[key][1]} -> {b[key][1]}")
    expected = expected or {}
    failed, matched = False, set()
    for key in (k for k in both if a[k][0] != b[k][0]):
        prefix = next((p for p in expected if key.startswith(p)), None)
        change = f"{key} {' '.join(a[key][0])} -> {' '.join(b[key][0])}"
        if prefix is None:
            failed = True
            print(f"TRACE MOVED: {change}")
        else:
            matched.add(prefix)
            print(f"EXPECTED MOVE: {change}  # {expected[prefix]}")
    for prefix in sorted(expected.keys() - matched):
        failed = True
        print(f"STALE EXPECTATION (no trace under it moved): {prefix}")
    return 1 if failed else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="diff two trace-digest files")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), required=True)
    parser.add_argument("--expect", metavar="FILE", help="the moves this change means to make")
    args = parser.parse_args()
    sys.exit(compare(*args.compare, load_expected(args.expect) if args.expect else None))
