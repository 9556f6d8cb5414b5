"""E1 — pull- vs push-based future resolution (§2.3.2).

"Ray's future resolution uses a pull-based model in which the consumer
pulls data from the producer on demand.  This creates long stalls for
short-lived ops."  Same generation (Gen-2 device raylets), only the
resolution protocol differs; producer/consumer pairs live on different
cards so resolution always crosses the fabric.
"""

from __future__ import annotations

from repro.bench import ResultTable, fmt_seconds
from repro.cluster import DeviceKind, build_physical_disagg
from repro.runtime import (
    Generation,
    ResolutionMode,
    RuntimeConfig,
    ServerlessRuntime,
)

DURATIONS = [1e-5, 1e-4, 1e-3, 1e-2]
PAIRS = 8
PAYLOAD = 64 * 1024


def producer_consumer_pairs(resolution: ResolutionMode, op_cost: float):
    cluster = build_physical_disagg(n_gpu_cards=2, n_fpga_cards=2)
    rt = ServerlessRuntime(
        cluster,
        RuntimeConfig(generation=Generation.GEN2, resolution=resolution),
    )
    fpgas = [d.device_id for d in cluster.devices_of_kind(DeviceKind.FPGA)]
    gpus = [d.device_id for d in cluster.devices_of_kind(DeviceKind.GPU)]
    consumers = []
    for i in range(PAIRS):
        producer = rt.submit(
            lambda i=i: i,
            compute_cost=op_cost,
            output_nbytes=PAYLOAD,
            pinned_device=fpgas[i % len(fpgas)],
            name=f"prod{i}",
        )
        consumers.append(
            rt.submit(
                lambda x: x * 2,
                (producer,),
                compute_cost=op_cost,
                pinned_device=gpus[i % len(gpus)],
                name=f"cons{i}",
            )
        )
    values = rt.get(consumers)
    assert values == [2 * i for i in range(PAIRS)]
    by_name = {t.name: t for t in rt.timelines}
    gaps = [
        by_name[f"cons{i}"].end - by_name[f"prod{i}"].end
        for i in range(PAIRS)
    ]
    return rt.sim.now, sum(gaps) / len(gaps), rt.control_messages


def test_e1_pull_vs_push(benchmark):
    def sweep():
        rows = []
        for cost in DURATIONS:
            t_pull, gap_pull, m_pull = producer_consumer_pairs(
                ResolutionMode.PULL, cost
            )
            t_push, gap_push, m_push = producer_consumer_pairs(
                ResolutionMode.PUSH, cost
            )
            rows.append((cost, t_pull, t_push, gap_pull, gap_push, m_pull, m_push))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = ResultTable(
        f"E1: {PAIRS} producer->consumer pairs across cards (Gen-2)",
        [
            "op cost",
            "pull makespan",
            "push makespan",
            "pull hand-off",
            "push hand-off",
            "msgs pull",
            "msgs push",
        ],
    )
    for cost, t_pull, t_push, gap_pull, gap_push, m_pull, m_push in rows:
        table.add_row(
            fmt_seconds(cost),
            fmt_seconds(t_pull),
            fmt_seconds(t_push),
            fmt_seconds(gap_pull),
            fmt_seconds(gap_push),
            m_pull,
            m_push,
        )
    table.show()

    for _cost, t_pull, t_push, gap_pull, gap_push, m_pull, m_push in rows:
        # push always hands data off faster and with fewer control messages
        assert gap_push < gap_pull
        assert m_push < m_pull
        assert t_push <= t_pull
    # the *relative* advantage decays as op duration grows (crossover story)
    ratios = [r[1] / r[2] for r in rows]
    assert ratios[0] > ratios[-1]
    assert ratios[0] > 1.3  # clear win for short-lived ops
