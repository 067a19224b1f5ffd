"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``trace``    — generate a benchmark trace file;
* ``coalesce`` — run a trace through the MAC and print statistics;
* ``replay``   — replay a trace on the HMC device, with or without
  coalescing, and print the timing outcome;
* ``run``      — run one benchmark through the cycle engine + device
  replay with observability: ``--trace-out`` writes a cycle-stamped
  event trace (Chrome/Perfetto JSON, or JSONL for ``.jsonl`` paths),
  ``--metrics-out`` the flat namespaced metrics dict,
  ``--attribution`` adds per-stage latency + stall-cause accounting to
  the metrics, ``--timeline-out`` a cycle-windowed time-series document,
  and ``--profile`` the simulator's own ``sim.*`` self-profile
  (tick/skip ratios, wall time);
* ``analyze``  — bottleneck report: run a benchmark closed-loop with
  attribution (or load a ``--metrics`` / ``--report-out`` artifact) and
  print the per-stage latency table + top stall sites; ``--diff A B``
  compares two saved reports; ``--timeline FILE`` segments a timeline
  into warm-up/steady/drain phases and names each epoch's critical
  stage (``--timeline --diff A B`` ranks the most regressed epochs);
* ``figures``  — regenerate the paper's figures (fast or full scale);
* ``info``     — print the Table 1 configuration and area report.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

# Handlers import their own subsystem (DESIGN.md section 5, import rule).
from repro.seeding import DEFAULT_SEED, derive_seed


def _positive_int(text: str) -> int:
    """argparse type for sizes and periods: an int > 0."""
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type for worker counts: an int >= 0 (0 = all cores)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_mac_args(p: argparse.ArgumentParser) -> None:
    from repro.core.flit_table import FlitTablePolicy

    p.add_argument(
        "--arq", type=_positive_int, default=32, help="ARQ entries (default 32)"
    )
    p.add_argument(
        "--row-bytes",
        type=_positive_int,
        default=256,
        help="DRAM row size (default 256)",
    )
    p.add_argument(
        "--policy",
        choices=[x.value for x in FlitTablePolicy],
        default="span",
        help="FLIT-table policy (default span)",
    )


def _add_device_args(p: argparse.ArgumentParser) -> None:
    """HMC device knobs: intra-cube NoC topology and bank page policy."""
    from repro.hmc.bank import PAGE_POLICIES
    from repro.hmc.noc import NOC_ARBITRATIONS, NOC_TOPOLOGIES

    dev = p.add_argument_group("HMC device (logic-layer NoC, DRAM page policy)")
    dev.add_argument(
        "--noc-topology",
        choices=NOC_TOPOLOGIES,
        default="ideal",
        help="intra-cube link<->vault interconnect: ideal is the fixed-"
        "latency crossbar, xbar adds per-port arbitration and bounded "
        "buffers, ring/mesh add hop latency (default ideal)",
    )
    dev.add_argument(
        "--noc-buffers",
        type=_positive_int,
        default=8,
        help="input-buffer depth per NoC port, in packets; a full buffer "
        "backpressures into the link (default 8; ignored by ideal)",
    )
    dev.add_argument(
        "--noc-arbitration",
        choices=NOC_ARBITRATIONS,
        default="fifo",
        help="NoC port arbiter (default fifo; ignored by ideal)",
    )
    dev.add_argument(
        "--page-policy",
        choices=PAGE_POLICIES,
        default="closed",
        help="DRAM bank page policy: closed precharges every access "
        "(HMC spec behaviour), open keeps the row latched, adaptive "
        "hedges on a per-bank hit-confidence counter (default closed)",
    )


def _hmc_config(args, faults=None):
    """HMCConfig from device flags, or None when everything is stock.

    ``None`` keeps the callee on its default-config fast path and — more
    importantly — keeps default CLI runs bit-identical to builds that
    predate the device flags.
    """
    topology = getattr(args, "noc_topology", "ideal")
    buffers = getattr(args, "noc_buffers", 8)
    arbitration = getattr(args, "noc_arbitration", "fifo")
    policy = getattr(args, "page_policy", "closed")
    stock = (
        topology == "ideal"
        and buffers == 8
        and arbitration == "fifo"
        and policy == "closed"
    )
    if stock and faults is None:
        return None
    from repro.hmc.config import HMCConfig

    return HMCConfig(
        noc_topology=topology,
        noc_buffers=buffers,
        noc_arbitration=arbitration,
        page_policy=policy,
        faults=faults,
    )


def _add_engine_arg(p: argparse.ArgumentParser) -> None:
    from repro.sim.kernel import DEFAULT_ENGINE, engine_names

    p.add_argument(
        "--engine",
        choices=engine_names(),
        default=None,
        help="simulation engine: skip fast-forwards over quiescent spans, "
        "lockstep clocks every cycle with identical results (the test "
        f"oracle; default {DEFAULT_ENGINE})",
    )


def _mac_config(args):
    from repro.core.config import MACConfig

    return MACConfig(
        arq_entries=args.arq,
        row_bytes=args.row_bytes,
        max_request_bytes=min(args.row_bytes, 1024),
    )


def _effective_seed(args, fallback: int = DEFAULT_SEED) -> int:
    """Per-command seed, overridden by the global ``--seed`` knob."""
    if getattr(args, "global_seed", None) is not None:
        return args.global_seed
    seed = getattr(args, "seed", None)
    return fallback if seed is None else seed


def _fault_config(args):
    """Build a FaultConfig from replay's fault flags (None = all off)."""
    dead = tuple(args.dead_links or ())
    if not (args.flit_ber or args.ack_ber or args.drop_rate or dead):
        return None
    from repro.faults import FaultConfig

    fault_seed = (
        args.fault_seed
        if args.fault_seed is not None
        else derive_seed(_effective_seed(args), "faults")
    )
    return FaultConfig.simple(
        flit_ber=args.flit_ber,
        ack_ber=args.ack_ber,
        drop_rate=args.drop_rate,
        dead_links=dead,
        seed=fault_seed,
        retry_limit=args.retry_limit,
    )


def cmd_trace(args) -> int:
    from repro.trace.tracefile import dump
    from repro.workloads.registry import make

    wl = make(args.benchmark, seed=_effective_seed(args))
    trace = wl.generate(threads=args.threads, ops_per_thread=args.ops)
    n = dump(trace.records(), args.output)
    print(f"wrote {n} records of {wl.name} to {args.output}")
    return 0


def _dispatch_trace(args, raw: bool = False):
    """``(packets, stats)`` of ``args.trace`` via the window engine, or raw.

    A trace that fails to read (a malformed line, a TID outside 16 bits)
    prints the reader's message and returns None: the handler exits 2.
    """
    from repro.core.flit_table import FlitTablePolicy
    from repro.core.mac import coalesce_trace_fast
    from repro.core.stats import MACStats
    from repro.trace.record import PackedTrace
    from repro.trace.tracefile import load

    try:
        trace = PackedTrace(load(args.trace))
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return None
    cfg = _mac_config(args)
    stats = MACStats()
    if raw:
        from repro.baselines.direct import dispatch_raw

        return dispatch_raw(trace, cfg, stats), stats
    policy = FlitTablePolicy(args.policy)
    return coalesce_trace_fast(trace, cfg, policy, stats), stats


def cmd_coalesce(args) -> int:
    from repro.eval.report import format_table, human_bytes, pct

    dispatched = _dispatch_trace(args)
    if dispatched is None:
        return 2
    stats = dispatched[1]
    print(
        format_table(
            ["metric", "value"],
            [
                ["raw requests", stats.memory_raw_requests],
                ["packets", stats.coalesced_packets],
                ["coalescing efficiency", pct(stats.coalescing_efficiency)],
                ["avg targets/packet", round(stats.avg_targets_per_packet, 2)],
                ["bandwidth efficiency", pct(stats.coalesced_bandwidth_efficiency)],
                ["control saved", human_bytes(stats.bandwidth_saved_bytes())],
                [
                    "packet sizes",
                    ", ".join(
                        f"{s}B x {n}" for s, n in sorted(stats.packet_sizes.items())
                    ),
                ],
            ],
            title=f"MAC over {args.trace} (ARQ={args.arq}, {args.policy})",
        )
    )
    return 0


def cmd_replay(args) -> int:
    from repro.eval.report import format_table, human_bytes, pct
    from repro.eval.runner import replay_on_device

    dispatched = _dispatch_trace(args, raw=args.no_mac)
    if dispatched is None:
        return 2
    packets, stats = dispatched
    try:
        hmc_config = _hmc_config(args, faults=_fault_config(args))
    except ValueError as exc:
        print(f"replay: {exc}", file=sys.stderr)
        return 2
    cadence = 1.0 if args.no_mac else 2.0
    dev = replay_on_device(packets, cadence, hmc_config).device
    rows: List[List[object]] = [
        ["packets", len(packets)],
        ["coalescing efficiency", pct(stats.coalescing_efficiency)],
        ["bank conflicts", dev.bank_conflicts],
        ["mean latency (cycles)", round(dev.stats.mean_latency, 1)],
        ["makespan (cycles)", dev.stats.makespan],
        ["wire traffic", human_bytes(dev.stats.wire_bytes)],
    ]
    if dev.fault_stats is not None:
        rows += [
            ["crc errors", dev.fault_stats.total("crc_error")],
            ["link retries", dev.fault_stats.total("retry")],
            ["failed links", len(dev.failed_links)],
            ["link bandwidth loss", pct(dev.link_bandwidth_loss)],
        ]
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=f"replay of {args.trace} on hmc "
            f"({'raw' if args.no_mac else 'MAC'})",
        )
    )
    return 0


def _write_metrics_out(metrics: dict, path) -> None:
    import json
    import math

    from repro.ioutil import atomic_write_text

    # Undefined ratios (nan) become null: the file stays strict JSON.
    clean = {
        k: (None if isinstance(v, float) and math.isnan(v) else v)
        for k, v in metrics.items()
    }
    atomic_write_text(
        path,
        json.dumps(clean, indent=2, sort_keys=True, allow_nan=False, default=str),
    )
    print(f"wrote {len(clean)} metrics to {path}")


def _cmd_run_numa(args) -> int:
    """`repro run --nodes N`: closed-loop NUMA mesh."""
    from repro.eval.report import format_table
    from repro.eval.runner import numa_closed_loop

    obs = _obs_from_args(args)
    system = numa_closed_loop(
        args.benchmark,
        nodes=args.nodes,
        threads=args.threads,
        ops_per_thread=args.ops,
        seed=_effective_seed(args),
        interconnect_latency=args.interconnect_latency,
        interleave_bytes=args.interleave_bytes,
        config=_mac_config(args),
        engine=args.engine,
        obs=obs,
        hmc=_hmc_config(args),
    )
    st = system.stats
    print(
        format_table(
            ["metric", "value"],
            [
                ["nodes", args.nodes],
                ["cycles", st.cycles],
                ["local requests", st.local_requests],
                ["remote requests", st.remote_requests],
                ["remote responses", st.responses],
                ["fabric messages", st.fabric_messages],
                ["fabric credit stalls", st.fabric_credit_stalls],
            ],
            title=f"{args.benchmark} on a {args.nodes}-node mesh",
        )
    )
    _finish_obs(
        args,
        obs,
        system.metrics(),
        mode="numa-closed-loop",
        nodes=args.nodes,
    )
    return 0


def _obs_from_args(args):
    """The :class:`Observers` bundle the run command's obs flags ask for."""
    from repro.obs import (
        AttributionCollector,
        EventTracer,
        Observers,
        SimProfiler,
        Timeline,
    )

    bundle = {}
    if args.trace_out:
        bundle["tracer"] = EventTracer(capacity=args.trace_capacity)
    if args.attribution:
        bundle["attrib"] = AttributionCollector()
    if args.timeline_out:
        bundle["timeline"] = Timeline(epoch=args.timeline_epoch)
    if args.profile:
        bundle["profiler"] = SimProfiler()
    return Observers(**bundle)


def _write_trace_out(obs, path) -> None:
    """Write the Chrome/JSONL trace, merging the profiler's host lane."""
    import json

    from repro.ioutil import atomic_write_text

    tracer, profiler = obs.tracer, obs.profiler
    if str(path).endswith(".jsonl"):
        n = tracer.write_jsonl(path)
    elif profiler.enabled:
        doc = tracer.to_chrome_trace()
        doc["traceEvents"].extend(profiler.chrome_events())
        atomic_write_text(path, json.dumps(doc))
        n = len(doc["traceEvents"])
    else:
        n = tracer.write_chrome_trace(path)
    dropped = f" ({tracer.dropped} dropped)" if tracer.dropped else ""
    print(f"wrote {n} trace events to {path}{dropped}")


def _finish_obs(args, obs, metrics, **meta) -> None:
    """Artifact writing for both run paths; ``meta`` tags the timeline."""
    from repro.eval.report import format_table
    from repro.obs.metrics import flatten

    if obs.attrib.enabled:
        metrics.update(flatten(obs.attrib.snapshot(), "attribution."))
    if args.trace_out:
        _write_trace_out(obs, args.trace_out)
    if args.timeline_out:
        sizing = {"threads": args.threads, "ops_per_thread": args.ops}
        meta = {"benchmark": args.benchmark, **sizing, **meta}
        n = obs.timeline.write_json(args.timeline_out, meta=meta)
        print(
            f"wrote {n} timeline series to {args.timeline_out} "
            f"(epoch {obs.timeline.epoch} cy; see `repro analyze --timeline`)"
        )
    if obs.profiler.enabled:
        prof_metrics = obs.profiler.metrics()
        # sim.* lands in --metrics-out only under --profile, so
        # wall-clock noise never pollutes determinism diffs.
        metrics.update(prof_metrics)
        print(
            format_table(
                ["metric", "value"],
                [[k, v if isinstance(v, (int, str)) else round(v, 4)]
                 for k, v in sorted(prof_metrics.items())],
                title="simulator self-profile (sim.*)",
            )
        )
    if args.metrics_out:
        _write_metrics_out(metrics, args.metrics_out)


def cmd_run(args) -> int:
    if args.nodes > 1:
        return _cmd_run_numa(args)
    from repro.core.flit_table import FlitTablePolicy
    from repro.eval.report import format_table, human_bytes, pct
    from repro.eval.runner import dispatch, replay_on_device

    obs = _obs_from_args(args)
    disp = dispatch(
        args.benchmark,
        "mac-cycle",
        threads=args.threads,
        ops_per_thread=args.ops,
        config=_mac_config(args),
        seed=_effective_seed(args),
        flit_policy=FlitTablePolicy(args.policy),
        engine=args.engine,
        obs=obs,
    )
    replay = replay_on_device(
        disp.packets,
        obs=obs,
        # Attribution needs the device clock aligned with the MAC clock
        # that stamped the dispatch marks (stages stay non-negative).
        use_issue_cycles=obs.attrib.enabled,
        hmc=_hmc_config(args),
    )
    metrics = {**disp.metrics(), **replay.metrics()}
    print(
        format_table(
            ["metric", "value"],
            [
                ["raw requests", disp.stats.memory_raw_requests],
                ["packets", disp.stats.coalesced_packets],
                ["coalescing efficiency", pct(disp.stats.coalescing_efficiency)],
                ["bank conflicts", replay.bank_conflicts],
                ["mean latency (cycles)", round(replay.mean_latency, 1)],
                ["makespan (cycles)", replay.makespan],
                ["wire traffic", human_bytes(replay.wire_bytes)],
            ],
            title=f"{args.benchmark} via cycle engine (ARQ={args.arq})",
        )
    )
    _finish_obs(args, obs, metrics, mode="open-loop")
    return 0


def cmd_analyze(args) -> int:
    import json

    from repro.obs.analyze import (
        build_report,
        diff_metrics,
        diff_reports,
        format_diff,
        format_metrics_diff,
        format_report,
        is_flat_metrics,
        load_json,
        load_report,
        report_from_metrics,
    )

    if args.timeline is not None:
        return _cmd_analyze_timeline(args)

    if args.diff:
        raw_a, raw_b = (load_json(p) for p in args.diff)
        def attribution_free(d):
            return is_flat_metrics(d) and not any(
                k.startswith("attribution.") for k in d
            )

        if attribution_free(raw_a) and attribution_free(raw_b):
            # Two plain --metrics-out files: key-by-key determinism diff;
            # attribution-bearing files still get the bottleneck-stage
            # report diff below.
            diff = diff_metrics(raw_a, raw_b)
            if args.json:
                print(json.dumps(diff, indent=2, sort_keys=True, default=str))
            else:
                print(format_metrics_diff(diff))
            return 0 if diff["identical"] else 3
        a = raw_a if not is_flat_metrics(raw_a) else report_from_metrics(raw_a)
        b = raw_b if not is_flat_metrics(raw_b) else report_from_metrics(raw_b)
        diff = diff_reports(a, b)
        if args.json:
            print(json.dumps(diff, indent=2, sort_keys=True, default=str))
        else:
            print(format_diff(diff))
        return 0

    if args.metrics:
        report = load_report(args.metrics)
        title = f"bottleneck report ({args.metrics})"
    elif args.benchmark:
        from repro.eval.runner import attributed_node_run

        seed = _effective_seed(args)
        attrib, node = attributed_node_run(
            args.benchmark,
            threads=args.threads,
            ops_per_thread=args.ops,
            seed=seed,
            coalescing=not args.no_mac,
            config=_mac_config(args),
            engine=args.engine,
        )
        report = build_report(
            attrib,
            meta={
                "benchmark": args.benchmark,
                "threads": args.threads,
                "ops_per_thread": args.ops,
                "seed": seed,
                "coalescing": not args.no_mac,
                "cycles": node.cycle,
            },
        )
        title = f"bottleneck report ({args.benchmark})"
    else:
        print(
            "analyze needs a benchmark name, --metrics FILE, or --diff A B",
            file=sys.stderr,
        )
        return 2

    if args.report_out:
        from repro.ioutil import atomic_write_text

        atomic_write_text(
            args.report_out, json.dumps(report, indent=2, sort_keys=True, default=str)
        )
        print(f"wrote report to {args.report_out}")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        print(format_report(report, title))
    return 0


def _cmd_analyze_timeline(args) -> int:
    """`repro analyze --timeline`: phase/critical-stage report or epoch diff."""
    import json

    from repro.obs.analyze import (
        diff_timelines,
        format_timeline_diff,
        format_timeline_report,
        load_timeline,
        timeline_report,
    )

    if args.diff:
        a, b = (load_timeline(p) for p in args.diff)
        try:
            diff = diff_timelines(a, b)
        except ValueError as exc:
            print(f"analyze --timeline --diff: {exc}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(diff, indent=2, sort_keys=True, default=str))
        else:
            print(format_timeline_diff(diff))
        return 0
    if not args.timeline:
        print(
            "analyze --timeline needs a FILE (or --diff A B with two "
            "timeline files)",
            file=sys.stderr,
        )
        return 2
    doc = load_timeline(args.timeline)
    report = timeline_report(doc)
    if args.report_out:
        from repro.ioutil import atomic_write_text

        atomic_write_text(
            args.report_out, json.dumps(report, indent=2, sort_keys=True, default=str)
        )
        print(f"wrote report to {args.report_out}")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        print(format_timeline_report(report, title=f"timeline ({args.timeline})"))
    return 0


def cmd_figures(args) -> int:
    import statistics

    from repro.eval import experiments as E
    from repro.eval.parallel import print_progress, resolve_jobs
    from repro.eval.report import pct

    jobs = resolve_jobs(args.jobs)
    kw = dict(threads=2, ops_per_thread=500) if args.fast else {}
    kw["jobs"] = jobs
    wanted = set(args.only or [])

    def want(tag: str) -> bool:
        return not wanted or tag in wanted

    def progress(tag: str):
        # Log every few cells so long figure fan-outs show liveness.
        return print_progress(prefix=f"{tag}: ") if jobs > 1 else None

    if want("fig10"):
        table = E.fig10_coalescing_efficiency(
            total_ops=4000 if args.fast else 24000,
            jobs=jobs,
            progress=progress("fig10"),
            log_every=4,
        )
        avg = statistics.mean(table[8].values())
        print(f"fig10: avg efficiency @8 threads {pct(avg)} (paper 52.86%)")
    if want("fig11"):
        sweep = E.fig11_arq_sweep(progress=progress("fig11"), log_every=4, **kw)
        print(f"fig11: {[pct(v) for v in sweep.values()]}")
    if want("fig17"):
        f17 = E.fig17_speedup(progress=progress("fig17"), log_every=4, **kw)
        mk = statistics.mean(v["makespan_speedup"] for v in f17.values())
        print(f"fig17: avg makespan speedup {pct(mk)} (paper 60.73%)")
    print("done; see `pytest benchmarks/ --benchmark-only -s` for every figure")
    return 0


def cmd_info(args) -> int:
    from repro.eval.area import mac_area
    from repro.eval.experiments import table1_config
    from repro.eval.report import format_table
    from repro.workloads.registry import AUXILIARY, BENCHMARKS

    print(
        format_table(
            ["parameter", "value"],
            [[k, v] for k, v in table1_config().items()],
            title="Table 1 configuration",
        )
    )
    report = mac_area()
    print(
        f"MAC area: {report.total_bytes} B "
        f"({report.comparators} comparators, {report.or_gates} OR gates)"
    )
    names = ", ".join(list(BENCHMARKS) + list(AUXILIARY))
    print(f"workloads: {names}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MAC (Memory Access Coalescer) reproduction toolkit",
    )
    parser.add_argument(
        "--seed",
        dest="global_seed",
        type=int,
        default=None,
        help="root seed for workloads AND fault injection "
        f"(default {DEFAULT_SEED}; overrides per-command seeds)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="generate a benchmark trace file")
    p.add_argument("benchmark", help="benchmark name (see `repro info`)")
    p.add_argument("-o", "--output", required=True, help=".trc = binary, else text")
    p.add_argument("--threads", type=_positive_int, default=8)
    p.add_argument("--ops", type=_positive_int, default=3000, help="ops per thread")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("coalesce", help="run a trace through the MAC")
    p.add_argument("trace")
    _add_mac_args(p)
    p.set_defaults(func=cmd_coalesce)

    p = sub.add_parser("replay", help="replay a trace on a memory device")
    p.add_argument("trace")
    p.add_argument("--no-mac", action="store_true", help="raw 16 B dispatch")
    _add_mac_args(p)
    _add_device_args(p)
    fault = p.add_argument_group("fault injection")
    fault.add_argument(
        "--flit-ber", type=float, default=0.0, help="per-FLIT error rate on links"
    )
    fault.add_argument(
        "--ack-ber", type=float, default=0.0, help="ACK/NAK corruption rate"
    )
    fault.add_argument(
        "--drop-rate", type=float, default=0.0, help="response drop rate"
    )
    fault.add_argument(
        "--dead-links",
        type=int,
        nargs="*",
        help="link indices dead from cycle 0 (degraded mode)",
    )
    fault.add_argument(
        "--retry-limit", type=int, default=8, help="replays before a link dies"
    )
    fault.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="injector seed (default: derived from --seed)",
    )
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser(
        "run", help="run one benchmark with observability (trace/metrics export)"
    )
    p.add_argument("benchmark", help="benchmark name (see `repro info`)")
    p.add_argument("--threads", type=_positive_int, default=8)
    p.add_argument("--ops", type=_positive_int, default=3000, help="ops per thread")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_mac_args(p)
    _add_device_args(p)
    _add_engine_arg(p)
    numa = p.add_argument_group("NUMA mesh (closed loop)")
    numa.add_argument(
        "--nodes",
        type=_positive_int,
        default=1,
        help="simulate an N-node NUMA mesh instead of the single-node "
        "open loop (each node runs its own copy of the benchmark)",
    )
    numa.add_argument(
        "--interconnect-latency",
        type=int,
        default=120,
        help="node-to-node hop latency in cycles",
    )
    numa.add_argument(
        "--interleave-bytes",
        type=int,
        default=1 << 12,
        help="address-interleaving granularity across nodes",
    )
    obs = p.add_argument_group("observability")
    obs.add_argument(
        "--trace-out",
        default=None,
        help="write cycle-stamped events here (.jsonl = JSONL, else "
        "Chrome-trace JSON loadable in Perfetto)",
    )
    obs.add_argument(
        "--metrics-out",
        default=None,
        help="write the flat namespaced metrics dict as JSON",
    )
    obs.add_argument(
        "--trace-capacity",
        type=_positive_int,
        default=65536,
        help="event ring-buffer size (oldest events drop beyond it)",
    )
    obs.add_argument(
        "--attribution",
        action="store_true",
        help="collect per-stage latency + stall causes; the breakdown "
        "lands under attribution.* in --metrics-out (readable by "
        "`repro analyze --metrics`); on a mesh each node's stall and "
        "depth sites carry a node<k>. prefix (the fabric's do not)",
    )
    obs.add_argument(
        "--timeline-out",
        default=None,
        help="write a cycle-windowed time-series JSON (bandwidth, queue "
        "depths, stall rates per epoch; read with `repro analyze "
        "--timeline`)",
    )
    obs.add_argument(
        "--timeline-epoch",
        type=_positive_int,
        default=1024,
        help="timeline epoch length in cycles (default 1024)",
    )
    obs.add_argument(
        "--profile",
        action="store_true",
        help="self-profile the simulator: tick/skip ratios and wall "
        "time; printed as a table, merged into "
        "--metrics-out under sim.*, and added as a process lane to a "
        "Chrome --trace-out",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "analyze",
        help="bottleneck report: per-stage latency breakdown + stall causes",
    )
    p.add_argument(
        "benchmark",
        nargs="?",
        default=None,
        help="benchmark to run closed-loop with attribution "
        "(omit when using --metrics or --diff)",
    )
    p.add_argument("--threads", type=_positive_int, default=8)
    p.add_argument("--ops", type=_positive_int, default=2000, help="ops per thread")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument(
        "--no-mac",
        action="store_true",
        help="analyze the uncoalesced baseline (1-entry ARQ) instead",
    )
    _add_mac_args(p)
    _add_engine_arg(p)
    p.add_argument(
        "--metrics",
        default=None,
        help="read attribution.* from a `repro run --attribution "
        "--metrics-out` file instead of running",
    )
    p.add_argument(
        "--diff",
        nargs=2,
        metavar=("A", "B"),
        default=None,
        help="compare two saved reports/metrics files (A = before); with "
        "--timeline, A and B are timeline files and the diff reports the "
        "top regressed epochs",
    )
    p.add_argument(
        "--timeline",
        nargs="?",
        const="",
        default=None,
        metavar="FILE",
        help="report on a `repro run --timeline-out` file: phase "
        "segmentation (warm-up/steady/drain) + per-epoch critical stage; "
        "bare --timeline with --diff A B compares two timeline files",
    )
    p.add_argument("--json", action="store_true", help="emit JSON, not tables")
    p.add_argument(
        "--report-out", default=None, help="also write the report JSON here"
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("figures", help="regenerate paper figures (summary)")
    p.add_argument("--fast", action="store_true")
    p.add_argument("--only", nargs="*", help="e.g. fig10 fig11 fig17")
    p.add_argument(
        "--jobs",
        type=_non_negative_int,
        default=1,
        help="worker processes for figure fan-out (1 = serial, 0 = all "
        "cores); results are bit-identical for any value",
    )
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("info", help="print configuration and workload list")
    p.set_defaults(func=cmd_info)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
