"""Section 3 generality — coalescing remote traffic at the home node.

The architecture routes remote requests into the home node's Remote
Access Queue, where its MAC coalesces them *together with local
traffic*.  This bench runs a 4-node NUMA system over interleaved shared
data with and without coalescing and measures the conflict and makespan
effect of home-node coalescing on mixed local/remote streams.
"""

from repro.core.request import MemoryRequest, RequestType
from repro.eval.report import format_table, pct
from repro.node.system import NUMASystem

from conftest import attach, run_figure

NODES, CORES, OPS = 4, 2, 300


def _stream(node_id, core_id):
    for i in range(OPS):
        idx = (node_id * 11 + core_id * 5 + i) % 384
        yield MemoryRequest(
            addr=idx * 256 + (i % 16) * 16,
            rtype=RequestType.LOAD if i % 4 else RequestType.STORE,
            tid=core_id,
            tag=i,
            core=core_id,
            node=node_id,
        )


def _run(coalescing: bool):
    system = NUMASystem(
        [[_stream(n, c) for c in range(CORES)] for n in range(NODES)],
        interconnect_latency=120,
        interleave_bytes=1 << 10,
    )
    if not coalescing:
        from repro.core.config import MACConfig
        from repro.core.mac import MAC

        for node in system.nodes:
            mac = MAC(MACConfig(arq_entries=1, latency_hiding=False),
                      node_id=node.node_id)
            mac.request_router.home_fn = system.home
            node.mac = mac
    stats = system.run()
    return system, stats


def test_numa_home_node_coalescing(benchmark):
    def run():
        with_mac, st_mac = _run(True)
        without, st_raw = _run(False)
        return {
            "cycles": (st_mac.cycles, st_raw.cycles),
            "remote": (st_mac.remote_requests, st_raw.remote_requests),
            "conflicts": (
                sum(n.device.bank_conflicts for n in with_mac.nodes),
                sum(n.device.bank_conflicts for n in without.nodes),
            ),
            "merges": sum(n.mac.aggregator.arq.merges for n in with_mac.nodes),
        }

    out = run_figure(benchmark, run, "Section 3: NUMA home-node coalescing")
    print()
    print(
        format_table(
            ["metric", "with MAC", "without"],
            [
                ["cycles", out["cycles"][0], out["cycles"][1]],
                ["bank conflicts", out["conflicts"][0], out["conflicts"][1]],
                ["remote requests", out["remote"][0], out["remote"][1]],
            ],
            title="4-node NUMA, 75% remote traffic",
        )
    )
    print(f"home-node merges: {out['merges']}")
    speedup = 1 - out["cycles"][0] / out["cycles"][1]
    print(f"makespan speedup: {pct(speedup)}")
    attach(benchmark, makespan_speedup=speedup, merges=out["merges"])
    # Remote traffic flows identically either way...
    assert out["remote"][0] == out["remote"][1]
    # ...but coalescing at the home node merges requests and cuts
    # conflicts across the whole system.
    assert out["merges"] > 0
    assert out["conflicts"][0] < out["conflicts"][1]

