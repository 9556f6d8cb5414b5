"""Layer tracing from outside the program.

For the traced child only, every public callable in ``TARGETS`` is replaced
on its class (or in each module namespace that imported it) by a wrapper that
opens a span around the call; ``uninstall`` puts the originals back.  Nothing
under ``src/`` is edited.

Spans are kept in memory as one stack.  A span's *self time* is its duration
minus the part covered by the spans opened beneath it, so the self times of
all spans under one root, plus the root's own self time (code no target
covers: the workload driver, process bodies the kernel resumes, ...), add up
to the root's duration exactly.  ``Simulator.run`` resumes every process body
from inside one call, so ``simtime.run_self_s`` is kernel dispatch *plus*
those bodies; splitting them needs spans inside the program (a later issue).

The wrappers cost host time themselves (two clock reads and a few list
operations per call, which lands in the *parent* span's self time); the
harness reports it as ``trace.overhead_share`` instead of hiding it.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# (span name = per-layer metric without its unit suffix, module, owner, attrs).
# ``owner`` is a class name, or None for module-level functions.
TARGETS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("simtime.run", "repro.cluster.simtime", "Simulator", ("run",)),
    (
        "network.call",
        "repro.cluster.network",
        "Network",
        ("transfer", "message", "rpc", "multicast", "transfer_time_estimate"),
    ),
    ("scheduler.place", "repro.runtime.scheduler", "Scheduler", ("place", "place_gang")),
    (
        "ownership",
        "repro.runtime.ownership",
        "OwnershipTable",
        (
            "create", "entry", "contains", "mark_ready", "add_location",
            "drop_location", "drop_node", "drop_device", "restore", "remove",
            "is_ready", "locations", "producing_task", "objects",
        ),
    ),
    ("runtime.submit", "repro.runtime.runtime", "ServerlessRuntime", ("submit",)),
    ("runtime.submit", "repro.runtime.runtime", "ActorHandle", ("call",)),
    ("runtime.get", "repro.runtime.runtime", "ServerlessRuntime", ("get",)),
    (
        "object_store",
        "repro.runtime.object_store",
        "LocalObjectStore",
        ("put", "get", "contains", "delete"),
    ),
    (
        "telemetry",
        "repro.telemetry.metrics",
        "MetricsRegistry",
        ("counter", "gauge", "histogram"),
    ),
    ("telemetry", "repro.telemetry.spans", "Tracer", ("start_span", "emit")),
    ("telemetry", "repro.telemetry.spans", "Span", ("finish",)),
    ("serving.offer", "repro.serving.frontend", "ServingFrontend", ("offer",)),
    ("sql.plan", "repro.frontends.sql.planner", None, ("sql_to_ir",)),
    ("ir.passes", "repro.ir.passes", "PassManager", ("run",)),
    ("ir.lowering", "repro.ir.lowering", None, ("lower_relational_to_df",)),
    ("core.planner", "repro.core.planner", None, ("ir_to_flowgraph",)),
    ("flowgraph.optimize", "repro.flowgraph.optimizer", None, ("optimize",)),
    ("flowgraph.physical", "repro.flowgraph.physical", None, ("to_physical",)),
    ("flowgraph.launch", "repro.flowgraph.launch", None, ("launch_physical_graph",)),
    ("ir.interpreter", "repro.ir.interpreter", "Interpreter", ("run",)),
    ("caching.columnar", "repro.caching.columnar", None, ("concat_batches",)),
    ("caching.columnar", "repro.ir.kernels", None, ("hash_partition",)),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))
ROOT = "repetition"  # span name of a root; its self time is the unattributed part

# Spans kept one by one for the trace file; past this only the per-layer
# totals grow (a pull-mode graph makes > 1 M ownership calls).
MAX_SPAN_RECORDS = 200_000


class LayerTracer:
    """An in-memory span stack plus per-layer totals."""

    def __init__(self) -> None:
        self.active = False
        self.names: List[str] = [ROOT, *LAYERS]
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        # one record per span: (id, parent id, root id, name index, start, end)
        self.spans: List[Tuple[int, int, int, int, float, float]] = []
        self.span_count = 0
        self._stack: List[List[Any]] = []  # frames: [child seconds, span id]
        self._root_id = -1
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    @contextmanager
    def root(self) -> Iterator[None]:
        """One timed window: spans are recorded only while a root is open."""
        self._root_id = self.span_count
        frame = [0.0, self.span_count]
        self.span_count += 1
        self._stack.append(frame)
        self.active = True
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.active = False
            self._stack.pop()
            self.calls[0] += 1
            self.total_s[0] += end - start
            self.self_s[0] += end - start - frame[0]
            self.spans.append((frame[1], -1, frame[1], 0, start, end))

    def _wrapper(self, fn: Callable, index: int) -> Callable:
        stack, spans = self._stack, self.spans
        calls, self_s, total_s = self.calls, self.self_s, self.total_s

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0, self.span_count]
            self.span_count += 1
            parent = stack[-1]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent[0] += duration
                calls[index] += 1
                total_s[index] += duration
                self_s[index] += duration - frame[0]
                if len(spans) < MAX_SPAN_RECORDS:
                    spans.append((frame[1], parent[1], self._root_id, index, start, end))

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> "LayerTracer":
        for layer, module_name, owner, attrs in TARGETS:
            module = importlib.import_module(module_name)
            index = self.names.index(layer)
            for attr in attrs:
                if owner is not None:
                    cls = getattr(module, owner)
                    fn = cls.__dict__[attr]
                    if not inspect.isfunction(fn):
                        raise TypeError(f"{owner}.{attr} is not a plain method")
                    self._replace(cls, attr, self._wrapper(fn, index))
                    continue
                fn = getattr(module, attr)
                wrapped = self._wrapper(fn, index)
                # `from .x import fn` copies the reference: replace every copy
                for other in list(sys.modules.values()):
                    if (
                        other is not None
                        and getattr(other, "__name__", "").startswith("repro")
                        and other.__dict__.get(attr) is fn
                    ):
                        self._replace(other, attr, wrapped)
        return self

    def _replace(self, holder: Any, attr: str, new: Any) -> None:
        self._patched.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, new)

    def uninstall(self) -> None:
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    # -- reporting -----------------------------------------------------------

    def layers(self) -> Dict[str, Dict[str, float]]:
        """``{name: {calls, self_s, total_s}}`` including the root."""
        return {
            name: {
                "calls": self.calls[i],
                "self_s": self.self_s[i],
                "total_s": self.total_s[i],
            }
            for i, name in enumerate(self.names)
        }

    def dump(self, path: str, header: Dict[str, Any]) -> None:
        """Write spans and counts; see the README for the format."""
        with open(path, "w") as fh:
            json.dump(
                {
                    **header,
                    "layers": self.layers(),
                    "span_count": self.span_count,
                    "spans_kept": len(self.spans),
                    "names": self.names,
                    "span_fields": ["id", "parent", "root", "name", "start_s", "end_s"],
                    "spans": self.spans,
                },
                fh,
            )
            fh.write("\n")
