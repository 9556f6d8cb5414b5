"""Export a runtime's run as Chrome tracing JSON (chrome://tracing).

One trace, three parts:

* the causal span graph — every finished span as a complete ("X") event
  (row = device, in virtual microseconds), each task's phases nested under
  it and flow arrows from producers to consumers
  (:func:`repro.telemetry.chrome.spans_to_chrome_events`);
* failure/recovery incidents from the runtime's event log — node, device
  and blade deaths, heartbeat suspicions, lineage replays, retries, actor
  restarts, every chaos injection — as instant ("i") events
  (``events.INCIDENTS`` names the kinds and their categories), so a
  recovery storm is visible right next to the spans it perturbs;
* every gauge sample as a counter ("C") event
  (:func:`repro.telemetry.chrome.counters_to_chrome_events`).

Load the output in chrome://tracing or Perfetto.
"""

from __future__ import annotations

import json
from typing import IO, List, Union

from ..telemetry.chrome import counters_to_chrome_events, spans_to_chrome_events
from .events import instant_category
from .runtime import ServerlessRuntime

__all__ = ["to_chrome_trace", "write_chrome_trace"]


def to_chrome_trace(runtime: ServerlessRuntime) -> List[dict]:
    """Build the trace-event list: spans, incident instants, gauge counters."""
    events = spans_to_chrome_events(runtime.telemetry.tracer.finished_spans())
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
    events.extend(counters_to_chrome_events(runtime.telemetry.registry))
    return events


def write_chrome_trace(runtime: ServerlessRuntime, path_or_file: Union[str, IO]) -> int:
    """Write the trace; returns the number of events."""
    events = to_chrome_trace(runtime)
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    if isinstance(path_or_file, str):
        with open(path_or_file, "w") as fh:
            json.dump(payload, fh)
    else:
        json.dump(payload, path_or_file)
    return len(events)
