"""Export task timelines as Chrome tracing JSON (chrome://tracing).

Every finished task becomes a complete ("X") event: row = device, span =
[started, finished] in virtual microseconds, with the resolution stall as
an annotated argument.  Failure/recovery incidents from the runtime's
event log — node, device and blade deaths, heartbeat suspicions, lineage
replays, retries, actor restarts, every chaos injection — become instant
("i") events (``events.INCIDENTS`` names the kinds and their categories),
so a recovery storm is visible right next to the task spans it perturbs.  Load
the output in chrome://tracing or Perfetto.
"""

from __future__ import annotations

import json
from typing import IO, List, Union

from .events import instant_category
from .runtime import ServerlessRuntime

__all__ = ["to_chrome_trace", "write_chrome_trace"]


def to_chrome_trace(
    runtime: ServerlessRuntime, spans: bool = False, counters: bool = False
) -> List[dict]:
    """Build the trace-event list from a runtime's recorded timelines.

    ``spans=True`` replaces the timeline-derived task slices with the full
    causal span graph (phase children and flow arrows included);
    ``counters=True`` appends every gauge sample as a counter ("C") event.
    """
    events: List[dict] = []
    if spans:
        from ..telemetry.chrome import spans_to_chrome_events

        events.extend(
            spans_to_chrome_events(runtime.telemetry.tracer.finished_spans())
        )
    else:
        for tl in runtime.timelines:
            node_id = tl.device_id.split("/")[0] if "/" in tl.device_id else tl.device_id
            events.append(
                {
                    "name": tl.name,
                    "cat": "task",
                    "ph": "X",
                    "ts": tl.started * 1e6,  # chrome tracing wants microseconds
                    "dur": max((tl.finished - tl.started) * 1e6, 0.01),
                    "pid": node_id,
                    "tid": tl.device_id,
                    "args": {
                        "task_id": tl.task_id,
                        "submitted_us": tl.submitted * 1e6,
                        "input_stall_us": tl.input_stall * 1e6,
                    },
                }
            )
    for ev in runtime.events:
        cat = instant_category(ev.kind)
        if cat is None:
            continue
        detail = ev.as_dict()
        # pin node-scoped incidents to their node's row with process scope;
        # only genuinely cluster-wide incidents draw a global line
        pid = detail.get("node", "control-plane")
        scope = "p" if "node" in detail else "g"
        events.append(
            {
                "name": ev.kind,
                "cat": cat,
                "ph": "i",
                "s": scope,
                "ts": ev.time * 1e6,
                "pid": pid,
                "tid": cat,
                "args": {k: repr(v) for k, v in detail.items()},
            }
        )
    if counters:
        from ..telemetry.chrome import counters_to_chrome_events

        events.extend(counters_to_chrome_events(runtime.telemetry.registry))
    return events


def write_chrome_trace(
    runtime: ServerlessRuntime,
    path_or_file: Union[str, IO],
    spans: bool = False,
    counters: bool = False,
) -> int:
    """Write the trace; returns the number of events."""
    events = to_chrome_trace(runtime, spans=spans, counters=counters)
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    if isinstance(path_or_file, str):
        with open(path_or_file, "w") as fh:
            json.dump(payload, fh)
    else:
        json.dump(payload, path_or_file)
    return len(events)
