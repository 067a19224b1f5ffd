"""One benchmark job: a single workload, run once, in a fresh interpreter.

    python3 perfbench/job.py --workload open-sg --seed 2019 --trace 0

The job times its own phases (import, set-up, simulation), checks the
simulated results (conservation, fingerprint) and prints one JSON object
as the last line of its standard output.  With ``--trace 1`` it also
wraps the public calls of every layer (see :mod:`spans`) and reports the
per-layer metrics.  ``run.py`` starts jobs and aggregates them; it
measures each job's fresh-process wall time from outside.

The simulator is driven through public entry points only.  Each workload
composes the same calls the matching ``repro`` command makes, split so
that set-up (trace generation, ``to_requests``, model construction) is
timed apart from the simulation.
"""

from time import perf_counter_ns

T0_NS = perf_counter_ns()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List  # noqa: E402

import checks  # noqa: E402
from spans import Patches, SpanRecorder, install_spans  # noqa: E402

#: Workload seed used when ``--seed`` is not given (repro's DEFAULT_SEED,
#: so the default-seed open-sg job equals ``repro run SG``).
DEFAULT_SEED = 2019

#: The MAC front-end calls summed into ``core.mac_s``.
CORE_SPANS = (
    "core.process",
    "core.tick",
    "core.submit",
    "core.submit_remote",
    "core.deliver_responses",
)


def _nonfence(requests) -> int:
    return sum(1 for r in requests if not r.is_fence)


def _split_per_core(requests) -> List[list]:
    per_core: Dict[int, list] = {}
    for req in requests:
        per_core.setdefault(req.core, []).append(req)
    return [reqs for _, reqs in sorted(per_core.items())]


def _exact(**values) -> Dict[str, float]:
    """Exact simulated results every workload reports (0 = not exercised)."""
    out = {
        "raw_requests": 0,
        "packets": 0,
        "arq_merges": 0,
        "bank_conflicts": 0,
        "remote_requests": 0,
        "fabric_messages": 0,
        "fabric_credit_stalls": 0,
        "sim_cycles": 0,
        "coalescing_efficiency": 0.0,
        "mean_latency_cy": 0.0,
        "makespan_speedup": 0.0,
    }
    unknown = set(values) - set(out)
    if unknown:
        raise KeyError(f"unknown exact results {sorted(unknown)}")
    out.update(values)
    return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class OpenSG:
    """``repro run SG``: 8-thread SG trace -> MAC.process -> HMC replay."""

    name = "open-sg"
    seeded = True

    def __init__(self, threads: int = 8, ops: int = 3000) -> None:
        self.threads, self.ops = threads, ops

    def setup(self, seed: int, patches: Patches) -> dict:
        from repro.core.mac import MAC
        from repro.core.stats import MACStats
        from repro.eval import runner
        from repro.trace import record

        trace = runner.cached_trace("SG", self.threads, self.ops, seed)
        requests = list(record.to_requests(trace))
        mac = MAC()
        stats = MACStats()
        mac.attach_stats(stats)
        return {"runner": runner, "requests": requests, "mac": mac, "stats": stats}

    def model(self, st: dict):
        return st["mac"]

    def simulate(self, st: dict) -> None:
        st["packets"] = st["mac"].process(st["requests"])
        st["replay"] = st["runner"].replay_on_device(st["packets"])

    def collect(self, st: dict):
        runner, stats, replay = st["runner"], st["stats"], st["replay"]
        disp = runner.DispatchResult("SG", "mac-cycle", st["packets"], stats)
        metrics = {**disp.metrics(), **replay.metrics()}
        counts = checks.packet_counts(
            st["packets"], stats, _nonfence(st["requests"])
        )
        counts["device_requests"] = replay.device.stats.requests
        exact = _exact(
            raw_requests=stats.memory_raw_requests,
            packets=len(st["packets"]),
            arq_merges=st["mac"].metrics()["arq.merges"],
            bank_conflicts=replay.bank_conflicts,
            sim_cycles=replay.makespan,
            coalescing_efficiency=stats.coalescing_efficiency,
            mean_latency_cy=replay.mean_latency,
        )
        return metrics, exact, checks.conservation_problems(counts)


class ClosedIS:
    """Single Fig. 4 node, closed loop, IS on 8 cores."""

    name = "closed-is"
    seeded = True

    def __init__(self, threads: int = 8, ops: int = 1500) -> None:
        self.threads, self.ops = threads, ops

    def setup(self, seed: int, patches: Patches) -> dict:
        from repro.eval import runner
        from repro.node.node import Node
        from repro.trace import record

        trace = runner.cached_trace("IS", self.threads, self.ops, seed)
        requests = list(record.to_requests(trace))
        node = Node([iter(r) for r in _split_per_core(requests)])
        return {"requests": requests, "node": node}

    def model(self, st: dict):
        return st["node"]

    def simulate(self, st: dict) -> None:
        st["node"].run()

    def collect(self, st: dict):
        node = st["node"]
        mac_stats = node.mac.stats
        counts = {
            "inputs": _nonfence(st["requests"]),
            "raw": mac_stats.memory_raw_requests,
            "targets": sum(mac_stats.targets_per_packet),
            "answered": node.stats.responses_delivered,
            "outstanding": node.outstanding_raw_count(),
            "duplicates": node.stats.duplicate_responses,
            "packets": mac_stats.coalesced_packets,
            "device_requests": node.device.stats.requests,
        }
        metrics = node.metrics()
        exact = _exact(
            raw_requests=mac_stats.memory_raw_requests,
            packets=mac_stats.coalesced_packets,
            arq_merges=metrics["arq.merges"],
            bank_conflicts=node.stats.bank_conflicts,
            sim_cycles=node.stats.cycles,
            coalescing_efficiency=node.stats.coalescing_efficiency,
            mean_latency_cy=node.stats.mean_memory_latency,
        )
        return metrics, exact, checks.conservation_problems(counts)


class Numa4GUPS:
    """4-node GUPS mesh, 2 threads per node, serial backend (shards=1)."""

    name = "numa4-gups"
    seeded = True

    def __init__(self, nodes: int = 4, threads: int = 2, ops: int = 600) -> None:
        self.nodes, self.threads, self.ops = nodes, threads, ops

    def setup(self, seed: int, patches: Patches) -> dict:
        from repro.eval import runner
        from repro.node.system import NUMASystem
        from repro.seeding import derive_seed
        from repro.trace import record

        # The same per-node traces and streams as runner.numa_streams,
        # kept as lists so the inputs can be counted.
        per_node = []
        for n in range(self.nodes):
            trace = runner.cached_trace(
                "GUPS", self.threads, self.ops, derive_seed(seed, "node", n)
            )
            per_node.append(_split_per_core(record.to_requests(trace, node=n)))
        system = NUMASystem([[iter(r) for r in cores] for cores in per_node])
        inputs = sum(_nonfence(r) for cores in per_node for r in cores)
        return {"inputs": inputs, "system": system}

    def model(self, st: dict):
        return st["system"]

    def simulate(self, st: dict) -> None:
        st["system"].run(shards=1)

    def collect(self, st: dict):
        system = st["system"]
        nodes = system.nodes
        raw = sum(n.mac.stats.memory_raw_requests for n in nodes)
        packets = sum(n.mac.stats.coalesced_packets for n in nodes)
        served = sum(n.device.stats.requests for n in nodes)
        counts = {
            "inputs": st["inputs"],
            "raw": raw,
            "targets": sum(sum(n.mac.stats.targets_per_packet) for n in nodes),
            "answered": sum(n.stats.responses_delivered for n in nodes)
            + system.stats.responses,
            "outstanding": sum(n.outstanding_raw_count() for n in nodes),
            "duplicates": system.stats.duplicate_remote_drops
            + sum(n.mac.response_router.duplicates_suppressed for n in nodes),
            "packets": packets,
            "device_requests": served,
        }
        metrics = system.metrics()
        latency = sum(n.device.stats.total_latency_cycles for n in nodes)
        exact = _exact(
            raw_requests=raw,
            packets=packets,
            arq_merges=sum(n.mac.aggregator.arq.merges for n in nodes),
            bank_conflicts=sum(n.device.bank_conflicts for n in nodes),
            remote_requests=system.stats.remote_requests,
            fabric_messages=system.stats.fabric_messages,
            fabric_credit_stalls=system.stats.fabric_credit_stalls,
            sim_cycles=system.stats.cycles,
            coalescing_efficiency=1.0 - packets / raw if raw else 0.0,
            mean_latency_cy=latency / served if served else 0.0,
        )
        return metrics, exact, checks.conservation_problems(counts)


class FiguresFast:
    """``repro figures --fast --jobs 1`` (Figs. 10, 11 and 17)."""

    name = "figures-fast"
    #: The figure drivers take no seed: every job runs the same inputs.
    seeded = False
    argv = ["figures", "--fast", "--jobs", "1"]

    def setup(self, seed: int, patches: Patches) -> dict:
        from repro.eval import experiments, runner

        st = {
            "results": {},
            "raw_requests": 0,
            "packets": 0,
            "replays": [],
            "problems": [],
            "observer_ns": 0,
        }

        # The checks run inside the timed figure phase (holding every
        # dispatch's packets for later would grow the peak RSS by ~70%),
        # so they time themselves and run_job takes their time out.
        def observe_dispatch(fn):
            def dispatch(*args, **kwargs):
                res = fn(*args, **kwargs)
                t = perf_counter_ns()
                counts = checks.packet_counts(
                    res.packets, res.stats, res.stats.memory_raw_requests
                )
                counts["device_requests"] = res.stats.coalesced_packets
                st["problems"] += checks.conservation_problems(counts)
                st["raw_requests"] += res.stats.memory_raw_requests
                st["packets"] += len(res.packets)
                st["observer_ns"] += perf_counter_ns() - t
                return res

            return dispatch

        def observe_replay(fn):
            def replay_on_device(packets, cycles_per_packet=0.0, *args, **kwargs):
                res = fn(packets, cycles_per_packet, *args, **kwargs)
                if res.device.stats.requests != len(packets):
                    st["problems"].append(
                        f"replay served {res.device.stats.requests} of "
                        f"{len(packets)} packets"
                    )
                st["replays"].append(
                    (cycles_per_packet, res.makespan, res.mean_latency,
                     res.bank_conflicts)
                )
                return res

            return replay_on_device

        def observe_figure(tag):
            def wrap(fn):
                def figure(*args, **kwargs):
                    out = st["results"][tag] = fn(*args, **kwargs)
                    return out

                return figure

            return wrap

        patches.wrap_attr(runner, "dispatch", observe_dispatch)
        patches.wrap_attr(experiments, "dispatch", observe_dispatch)
        patches.wrap_attr(runner, "replay_on_device", observe_replay)
        for tag, attr in (
            ("fig10", "fig10_coalescing_efficiency"),
            ("fig11", "fig11_arq_sweep"),
            ("fig17", "fig17_speedup"),
        ):
            patches.wrap_attr(experiments, attr, observe_figure(tag))
        return st

    def model(self, st: dict):
        return None

    def simulate(self, st: dict) -> None:
        import repro.cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = repro.cli.main(list(self.argv))
        if rc != 0:
            raise RuntimeError(f"repro {' '.join(self.argv)} exited {rc}")
        st["stdout"] = out.getvalue()

    def collect(self, st: dict):
        from repro.obs.metrics import flatten

        res = st["results"]
        lines = [ln for ln in st["stdout"].splitlines() if ln.startswith("fig")]
        metrics = flatten(
            {"fig10": res["fig10"], "fig11": res["fig11"], "fig17": res["fig17"],
             "lines": dict(enumerate(lines))}
        )
        # MAC replays run at the default issue cadence; raw replays at 1.0.
        mac = [r for r in st["replays"] if r[0] == 0.0]
        problems = list(st["problems"])
        if len(lines) != 3:
            problems.append(f"expected 3 figure lines, got {len(lines)}")
        exact = _exact(
            raw_requests=st["raw_requests"],
            packets=st["packets"],
            bank_conflicts=sum(r[3] for r in st["replays"]),
            sim_cycles=sum(r[1] for r in mac),
            coalescing_efficiency=statistics.mean(res["fig10"][8].values()),
            mean_latency_cy=statistics.mean(r[2] for r in mac),
            makespan_speedup=statistics.mean(
                v["makespan_speedup"] for v in res["fig17"].values()
            ),
        )
        return metrics, exact, problems


WORKLOADS = {
    w.name: w for w in (OpenSG(), ClosedIS(), Numa4GUPS(), FiguresFast())
}


# ---------------------------------------------------------------------------
# One job
# ---------------------------------------------------------------------------


def layer_metrics(rec: SpanRecorder, exact: dict, profiler) -> Dict[str, float]:
    """Per-layer metrics of one traced job (0 where a layer did no work)."""
    raw = exact["raw_requests"]
    core_s = sum(rec.self_s(n) for n in CORE_SPANS)
    hmc_s, hmc_calls = rec.self_s("hmc.submit"), rec.calls("hmc.submit")
    ticks = profiler.ticks if profiler is not None else 0
    skipped = profiler.skipped_cycles if profiler is not None else 0
    return {
        "cli.import_s": rec.total_s("cli.import"),
        "workloads.generate_s": rec.self_s("workloads.generate"),
        "trace.to_requests_s": rec.self_s("trace.to_requests"),
        "workloads.records": rec.counts.get("workloads.records", 0),
        "core.mac_s": core_s,
        "core.mac_calls": sum(rec.calls(n) for n in CORE_SPANS),
        "core.ns_per_raw_request": core_s * 1e9 / raw if core_s and raw else 0.0,
        "core.packets": exact["packets"],
        "core.merge_ratio": exact["arq_merges"] / raw if raw else 0.0,
        "hmc.submit_s": hmc_s,
        "hmc.submit_calls": hmc_calls,
        "hmc.ns_per_packet": hmc_s * 1e9 / hmc_calls if hmc_calls else 0.0,
        "hmc.bank_conflicts": exact["bank_conflicts"],
        "node.core_tick_s": rec.self_s("node.core_tick"),
        "node.core_tick_calls": rec.calls("node.core_tick"),
        "node.self_s": rec.self_s("node.tick"),
        "node.fabric_s": rec.self_s("node.system_tick"),
        "node.remote_requests": exact["remote_requests"],
        "node.fabric_messages": exact["fabric_messages"],
        "node.fabric_credit_stalls": exact["fabric_credit_stalls"],
        "sim.loop_self_s": rec.self_s("sim.loop"),
        "sim.wake_probe_s": rec.self_s("sim.wake_probe"),
        "sim.ticks": ticks,
        "sim.skipped_cycles": skipped,
        "sim.tick_ratio": ticks / (ticks + skipped) if ticks + skipped else 0.0,
        "eval.fig10_s": rec.total_s("eval.fig10"),
        "eval.fig11_s": rec.total_s("eval.fig11"),
        "eval.fig17_s": rec.total_s("eval.fig17"),
        "eval.window_coalesce_s": rec.self_s("eval.window_coalesce"),
        "eval.replay_s": rec.self_s("eval.replay"),
        "eval.trace_cache_hits": exact["trace_cache_hits"],
        "eval.trace_cache_misses": exact["trace_cache_misses"],
        "exact.sim_cycles": exact["sim_cycles"],
        "exact.coalescing_efficiency": exact["coalescing_efficiency"],
        "exact.mean_latency_cy": exact["mean_latency_cy"],
        "exact.makespan_speedup": exact["makespan_speedup"],
        "trace.residual_s": rec.residual_s(),
    }


def accounting_problems(snapshot: dict) -> List[str]:
    """Spans that overlap their parents instead of nesting in them.

    Layer self times plus the residual sum to the traced wall time by
    construction (the residual is the wall time no top-level span
    covers), so the sum is not checked.  What can go wrong is a child
    span outlasting its parent, which shows as a negative self time.
    """
    return [
        f"negative self time {v:.6f}s in layer {k}"
        for k, v in snapshot["layers"].items()
        if v < -1e-6
    ]


def run_job(workload: str, seed: int, trace: bool, t0_ns: int = None, wl=None) -> dict:
    """Run one job in this process; returns its JSON-ready result.

    ``wl`` overrides the registered workload object (tests run the same
    workload at a smaller size).
    """
    wl = WORKLOADS[workload] if wl is None else wl
    rec = SpanRecorder(T0_NS if t0_ns is None else t0_ns)
    patches = Patches()
    try:
        with rec.phase("cli.import", layer="cli"):
            import repro.cli  # noqa: F401
        from repro.sim import get_engine

        engine = get_engine(None).name
        with rec.phase("job.setup", layer="setup"):
            from repro.eval import runner
            from repro.obs import SimProfiler

            if trace:
                install_spans(rec, patches)
            st = wl.setup(seed, patches)
            model = wl.model(st)
            profiler = None
            if trace and model is not None:
                profiler = model.profiler = SimProfiler()
        t_sim0 = perf_counter_ns()
        with rec.phase("job.simulate"):
            wl.simulate(st)
        t_sim1 = perf_counter_ns()
        with rec.phase("job.collect"):
            metrics, exact, problems = wl.collect(st)
            cache = runner.trace_cache_info()
            exact["trace_cache_hits"] = cache["hits"]
            exact["trace_cache_misses"] = cache["misses"]
            canon = checks.canonical(metrics)
    finally:
        patches.restore()
    rec.finish()
    # Time the workload's own result checks spent inside the simulation
    # phase is not the program's.
    observer_s = st.get("observer_ns", 0) / 1e9
    sim_s = (t_sim1 - t_sim0) / 1e9 - observer_s
    out = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "engine": engine,
        "setup_s": (t_sim0 - rec.t0_ns) / 1e9,
        "sim_s": sim_s,
        "observer_s": observer_s,
        "job_wall_s": rec.wall_s,
        "sim_req_per_s": exact["raw_requests"] / sim_s if sim_s > 0 else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exact": exact,
        "problems": problems,
        "fingerprint": checks.fingerprint(canon),
        "canonical": canon,
    }
    if trace:
        snap = rec.snapshot()
        out["problems"] = problems + accounting_problems(snap)
        out["layer_metrics"] = layer_metrics(rec, exact, profiler)
        out["spans"] = snap
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result = run_job(args.workload, args.seed, bool(args.trace))
    sys.stdout.write(json.dumps(result, allow_nan=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
