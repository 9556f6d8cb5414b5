"""The Skadi ledger: six workloads, both clocks, every layer timed from outside.

    python benchmarks/ledger/run.py --seed N [--scale S] [--rounds R]
                                    [--out FILE] [--trace-dir DIR]
    python benchmarks/ledger/run.py --workload W --seed N --seconds T --trace 0|1
    python benchmarks/ledger/run.py --compare A.json B.json
    python benchmarks/ledger/run.py --repeat-check --seed N

The first form runs every workload and prints every end-to-end and per-layer
metric by name with its unit; the second is the form ``BENCHMARK.json``'s
driver uses (one workload, rounds until ``--seconds`` of timed window, one
JSON object as the last line).  Every repetition runs in a child process of
its own (``child.py``), never two at once; rounds go round-robin over the
workloads so that machine drift is shared.  Host-clock metrics are medians
over rounds of host-speed-normalised CPU seconds (see ``normalise``); virtual-clock
metrics and counts must repeat exactly, and a round that does not is counted
as failed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
if __package__ in (None, ""):
    # run as a script: sys.path[0] is this directory.  Point it at the parent
    # instead, so `ledger` imports as a package and ledger/trace.py cannot
    # shadow the stdlib's `trace`.
    sys.path[0] = str(HERE.parent)

from ledger import manifest as mf  # noqa: E402
from ledger.compare import compare, render  # noqa: E402

CHILD_TIMEOUT_S = 90.0  # wall watchdog per repetition (one takes 2-8 s)
FULL_ROUNDS = 5  # the floor the issue sets for a full run
# the driver's form collects --seconds of timed window, within these round
# counts: (min, max) untraced rounds, and (min, max) untraced+traced pairs.
# The caps keep one run near 20 s, of which ~1.3 s per child is overhead.
DRIVER_ROUNDS = (3, 6)
DRIVER_TRACED_PAIRS = (1, 3)
WITNESS_KEYS = ("signature", "counts", "latency_p50_s", "latency_p99_s", "ok_ops", "slo_ok_ops")

Rep = mf.Rep


# -- children ----------------------------------------------------------------------------


def run_child(workload: str, seed: int, scale: float, traced: bool, trace_dir: Optional[str]) -> Rep:
    """One repetition in its own process; a child that dies or hangs comes
    back as a record with ``dead`` set instead of an exception."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
        "--traced", "1" if traced else "0",
    ]
    if traced and trace_dir:
        cmd += ["--trace-dir", trace_dir]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        stdout = proc.stdout
        cause = None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            cause = f"ChildExit: code {proc.returncode}: {tail[0][:160]}"
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        stdout = exc.stdout or ""
        if isinstance(stdout, bytes):
            stdout = stdout.decode(errors="replace")
        cause = f"WallWatchdog: no result after {CHILD_TIMEOUT_S:.0f} s"
    records = []
    for line in stdout.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            continue
    if cause is None and records and "window_cpu_s" in records[-1]:
        return normalise(records[-1])
    planned = next((r["planned_ops"] for r in records if "planned_ops" in r), None)
    return {
        "dead": True,
        "traced": traced,
        "failures": [cause or "ChildExit: no record printed"],
        "attempted": planned,
        "ok_ops": 0,
        "slo_ok_ops": 0,
        "window_wall_s": time.perf_counter() - started,
    }


def normalise(rep: Rep) -> Rep:
    """Turn the record's raw CPU seconds into seconds of the reference host:
    multiply by how fast this host ran the calibration kernel during the
    timed window.  The tracer's spans are wall seconds, so they are first
    brought to CPU seconds by the window's CPU/wall ratio."""
    speed = rep["host_speed"] = mf.HOST_REF_KERNEL_S / rep["kernel_cpu_s"]
    rep["setup_s"] = (rep["import_cpu_s"] + rep["build_cpu_s"]) * speed
    rep["window_s"] = rep["window_cpu_s"] * speed
    rep["host_s"] = {key: value * speed for key, value in rep["host_cpu_s"].items()}
    if rep["window_wall_s"] > 0:
        span_scale = speed * rep["window_cpu_s"] / rep["window_wall_s"]
        for row in rep.get("layers", {}).values():
            row["self_s"] *= span_scale
            row["total_s"] *= span_scale
    return rep


def measure(
    workloads: Sequence[str],
    seed: int,
    scale: float,
    min_rounds: int,
    max_rounds: int,
    seconds: float,
    traced_rounds: int,
    trace_dir: Optional[str],
) -> Dict[str, Dict[str, List[Rep]]]:
    """Round-robin rounds; each round runs one plain child per workload and,
    for the first ``traced_rounds`` rounds, one traced child as well.  A
    workload is done after ``min_rounds``, once it has ``seconds`` of timed
    window, and after ``max_rounds`` at the latest."""
    reps: Dict[str, Dict[str, List[Rep]]] = {w: {"plain": [], "traced": []} for w in workloads}

    def done(w: str) -> bool:
        n = len(reps[w]["plain"])
        measured = sum(r["window_wall_s"] for kind in reps[w].values() for r in kind)
        return n >= max_rounds or (n >= min_rounds and measured >= seconds)

    round_no = 0
    while True:
        active = [w for w in workloads if not done(w)]
        if not active:
            return reps
        for w in active:
            reps[w]["plain"].append(run_child(w, seed, scale, False, None))
            if round_no < traced_rounds:
                reps[w]["traced"].append(run_child(w, seed, scale, True, trace_dir))
        round_no += 1


# -- summaries ---------------------------------------------------------------------------


def _cell(values: List[float], unit: str) -> Dict[str, Any]:
    if not values:
        return {"value": 0.0, "unit": unit, "n": 0}
    cell: Dict[str, Any] = {
        "value": statistics.median(values), "unit": unit, "n": len(values), "min": min(values),
    }
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        cell.update(q1=q1, q3=q3)
    return cell


def _apply_witness(plain: List[Rep], traced: List[Rep]) -> None:
    """Virtual metrics, counts and event-log digests must be identical across
    rounds (and under tracing); a repetition that differs is marked failed."""
    live = [r for r in plain + traced if not r.get("dead") and not r["failures"]]
    if not live:
        return
    want = {k: live[0][k] for k in WITNESS_KEYS}
    for rep in live[1:]:
        differing = [k for k in WITNESS_KEYS if rep[k] != want[k]]
        if differing:
            rep["failures"].append(
                "DeterminismWitness: differs from the first round in " + ", ".join(differing)
            )
            rep["ok_ops"] = rep["slo_ok_ops"] = 0


def summarise(plain: List[Rep], traced: List[Rep], manifest: Dict[str, Any]) -> Dict[str, Any]:
    _apply_witness(plain, traced)
    every = plain + traced
    known = next((r["attempted"] for r in every if r.get("attempted")), 1)
    for rep in every:
        if not rep.get("attempted"):  # died before its inputs existed
            rep["attempted"] = known
    good = {
        kind: [r for r in reps if not r.get("dead") and r["ok_ops"] > 0]
        for kind, reps in (("plain", plain), ("traced", traced))
    }
    attempted = sum(r["attempted"] for r in every)
    ok = sum(r["ok_ops"] for r in every)
    failures = sorted({f for r in every for f in r["failures"]})

    end_to_end = {}
    for metric in manifest["end_to_end"]:
        name = metric["name"]
        if name in mf.POOLED:
            share = sum(r[mf.POOLED[name]] for r in plain) / max(sum(r["attempted"] for r in plain), 1)
            end_to_end[name] = {"value": share, "unit": metric["unit"], "n": len(plain)}
        else:
            end_to_end[name] = _cell([mf.END_TO_END[name](r) for r in good["plain"]], metric["unit"])

    per_layer = {}
    for metric in manifest["per_layer"]:
        (kind, fn), _moves, _on = mf.PER_LAYER[metric["name"]]
        per_layer[metric["name"]] = _cell([fn(r) for r in good[kind]], metric["unit"])
    if good["plain"] and good["traced"]:
        base = statistics.median(r["window_s"] for r in good["plain"])
        slow = statistics.median(r["window_s"] for r in good["traced"])
        per_layer["trace.overhead_share"]["value"] = (slow - base) / base

    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": attempted - ok,
        "failures": failures,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "latency_n": good["plain"][0]["latency_n"] if good["plain"] else 0,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "trace_files": [r["trace_file"] for r in traced if r.get("trace_file")],
        # the raw host clock of every good round, so the normalisation can be undone
        "host_clock": [
            {k: r[k] for k in ("window_wall_s", "window_cpu_s", "kernel_cpu_s", "host_speed")}
            for r in good["plain"]
        ],
    }


def run_set(args: argparse.Namespace, manifest: Dict[str, Any], workloads: Sequence[str]) -> Dict[str, Any]:
    if args.workload:  # the driver's form: time-bound rounds of one workload
        min_rounds, max_rounds = DRIVER_TRACED_PAIRS if args.trace else DRIVER_ROUNDS
        traced_rounds = max_rounds if args.trace else 0
    else:
        min_rounds = max_rounds = args.rounds
        traced_rounds = 1
    reps = measure(
        workloads, args.seed, args.scale, min_rounds, max_rounds, args.seconds,
        traced_rounds, args.trace_dir,
    )
    return {
        "seed": args.seed,
        "scale": args.scale,
        "workloads": {
            w: summarise(reps[w]["plain"], reps[w]["traced"], manifest) for w in workloads
        },
    }


# -- printing ----------------------------------------------------------------------------


def _fmt(cell: Dict[str, Any]) -> str:
    return "n/a" if not cell.get("n") else f"{cell['value']:.6g}"


def print_tables(summary: Dict[str, Any], manifest: Dict[str, Any], sections: Sequence[str]) -> None:
    names = list(summary["workloads"])
    head = f"{'metric':<36}{'unit':<7}" + "".join(f"{w:>16}" for w in names)
    for section in sections:
        print(f"\n== {section.replace('_', '-')} metrics (seed {summary['seed']}, scale {summary['scale']}) ==")
        print(head)
        for metric in manifest[section]:
            cells = [summary["workloads"][w][section][metric["name"]] for w in names]
            print(
                f"{metric['name']:<36}{metric['unit']:<7}"
                + "".join(f"{_fmt(c):>16}" for c in cells)
            )
    if "end_to_end" in sections:
        print("\n== host-clock spread over rounds: q1 / q3 / min / n ==")
        for name in mf.HOST_CLOCK:
            for w in names:
                c = summary["workloads"][w]["end_to_end"][name]
                if "q1" in c:
                    print(f"{name:<18}{w:<16}{c['q1']:.6g} / {c['q3']:.6g} / {c['min']:.6g} / {c['n']}")
    print()
    for w in names:
        s = summary["workloads"][w]
        line = (
            f"{w}: oracle {'ok' if s['correct'] else 'FAILED'}, {s['attempted']} ops attempted, "
            f"{s['failed']} failed, {s['rounds']} rounds + {s['traced_rounds']} traced, "
            f"latency samples per round {s['latency_n']}"
        )
        print(line)
        for failure in s["failures"]:
            print(f"    failure: {failure}")
    if "serving" in names:
        print(
            "serving is open loop in virtual time: arrivals are pinned to the virtual "
            "clock and latency is taken from the scheduled arrival, so generator "
            "lateness is 0 by construction"
        )
    print(
        "virtual metrics come from an unvalidated cost model: they compare commits, "
        "not hardware"
    )


def contract_line(summary: Dict[str, Any], workload: str, section: str) -> str:
    s = summary["workloads"][workload]
    metrics = {n: {"value": c["value"], "unit": c["unit"]} for n, c in s[section].items()}
    return json.dumps(
        {"correct": s["correct"], "attempted": s["attempted"], "failed": s["failed"], "metrics": metrics}
    )


# -- entry point -------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--rounds", type=int, default=FULL_ROUNDS, help="rounds of a full run")
    parser.add_argument("--out", help="write the JSON summary here")
    parser.add_argument("--trace-dir", help="traced children write their spans here")
    parser.add_argument("--workload", help="driver form: measure this workload only")
    parser.add_argument("--seconds", type=float, default=0.0, help="timed window to collect per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--repeat-check", action="store_true")
    args = parser.parse_args(argv)

    manifest = mf.load()
    if args.compare:
        with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
            rows = compare(manifest, json.load(fa), json.load(fb))
        print(render(rows))
        return 1 if any(r["verdict"] == "worse" for r in rows) else 0

    if not (mf.ROOT / "src" / "repro").is_dir():
        print(f"the program's sources are missing: {mf.ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload and args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    workloads = [args.workload] if args.workload else names

    first = run_set(args, manifest, workloads)
    if args.repeat_check:
        second = run_set(args, manifest, workloads)
        rows = compare(manifest, first, second)
        print(render(rows))
        exact = [
            r for r in rows
            if r["metric"] not in mf.HOST_CLOCK and r["a"] != r["b"]
        ]
        for r in exact:
            print(f"NOT IDENTICAL: {r['workload']} {r['metric']}: {r['a']!r} vs {r['b']!r}")
        bad = exact or [r for r in rows if r["verdict"] == "worse"]
        return 1 if bad else 0

    sections = ["end_to_end", "per_layer"]
    if args.workload:
        sections = ["per_layer"] if args.trace else ["end_to_end"]
    print_tables(first, manifest, sections)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(first, fh, indent=1)
            fh.write("\n")
    if args.workload:
        print(contract_line(first, args.workload, sections[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
