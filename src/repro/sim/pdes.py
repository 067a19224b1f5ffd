"""Conservative parallel discrete-event simulation of the NUMA mesh.

The mesh decomposes cleanly: within one cycle a node's evolution depends
only on its own components plus fabric deliveries into it, and every
fabric hop takes ``Interconnect.latency_cycles`` (L) wire cycles.  L is
therefore a *lookahead*: a hop sent at cycle c in the window
``[W, W+L)`` delivers at ``c+L >= W+L`` — never inside the window — so
once a shard holds every hop delivering before ``W+L``, it can advance
to ``W+L`` without hearing from anyone.  That is the whole scheme:

1. nodes are partitioned round-robin over forked worker processes;
2. the parent announces a window ``[start, start+L)`` and forwards each
   shard the previously exported hops delivering inside it;
3. each shard advances through the window on its own quiescence-skipping
   loop (the SkipEngine wheel: probe, skip to the wake, tick);
4. shards return hops addressed to other shards plus their next wake,
   and the parent picks the next window start — the earliest wake or
   pending delivery, so idle stretches are skipped globally too.

Determinism: hops carry ``(deliver_cycle, src, seq, dst)`` keys with
per-source sequence numbers (see :mod:`repro.node.interconnect`), so
per-destination delivery order is a pure function of message identity —
the barrier exchange cannot reorder anything observably.  Shard runs
are bit-identical to the serial engines; the equivalence suite in
``tests/sim/test_shard_equivalence.py`` enforces it.

Worker management borrows the sweep pool's mechanics
(:mod:`repro.eval.parallel`) without sharing its code: fork start
method (request streams are plain objects in the child, nothing is
pickled on the way in) and pipe EOF as the dead-worker signal.  The
protocol differs — shards meet at window barriers rather than taking
one cell at a time — and so does crash recovery, which reruns the whole
run instead of one cell: the parent's system object is never mutated
until a run succeeds, so a SIGKILL-ed shard costs one restart, not a
wrong answer.

Observability shards with the mesh: each worker samples its restricted
system's timeline probes, buffers its trace events and counts its
profiler ticks locally, and the parent merges them deterministically at
collect time — timelines in shard order (per-epoch rate deltas sum;
level series live on exactly one shard), traces by
:func:`repro.obs.tracer.canonical_key`, tick counts by summing.  Only
*attribution* still pins a system to one process (stall spans watermark
per shared site, so cross-shard merges would not be exact);
``NUMASystem.run`` falls back to serial for it — see
``NUMASystem.shard_blockers``.
"""

from __future__ import annotations

import heapq
import os
import pickle
import time
import traceback
from dataclasses import dataclass
from typing import List, Optional, Tuple

import multiprocessing as mp

from repro.obs.profiler import SimProfiler
from repro.obs.tracer import merge_shard_traces

# Defined with the engines so a serial run never imports this module.
from .kernel import SHARDS_ENV_VAR, resolve_shards  # noqa: F401

#: Test hook: ``"<shard>:<window>"`` SIGKILLs that worker at that window
#: barrier on the first attempt, exercising crash recovery.
CHAOS_ENV_VAR = "REPRO_PDES_CHAOS"


class ShardCrash(RuntimeError):
    """A shard worker died mid-run (pipe EOF); the run is restartable."""


class ShardError(RuntimeError):
    """A shard worker raised; carries the worker traceback."""


class ShardFallback(RuntimeError):
    """Sharding is unavailable for this system; run serial instead."""


@dataclass
class ShardReport:
    """Summary of a completed sharded run (``NUMASystem.shard_report``)."""

    shards: int
    windows: int
    restarts: int
    cycles: int


def shard_node_ids(n_nodes: int, n_shards: int) -> List[List[int]]:
    """Round-robin node partition: node i lives on shard ``i % n_shards``."""
    return [list(range(s, n_nodes, n_shards)) for s in range(n_shards)]


def _parse_chaos(raw: Optional[str]) -> Optional[Tuple[int, int]]:
    if not raw:
        return None
    shard, _, window = raw.partition(":")
    return int(shard), int(window or 0)


# -- worker side -------------------------------------------------------------


def _advance(system, start: int, end: int, max_cycles: int) -> int:
    """Drive one shard through ``[start, end)``; return its last tick end.

    The in-window loop is the SkipEngine discipline — probe the wake,
    skip proven-quiescent spans, tick — except that a wake at or beyond
    the window end stops the shard *without* skipping to ``end``: the
    next window's ``skip_to(start)`` covers the idle span, and never
    overshooting keeps every node's accounting clamped to cycles the
    serial run also reached.
    """
    obs = system.obs
    hooked = obs.hooked
    if system.cycle < start:
        before = system.cycle
        system.skip_to(start)
        if hooked:
            obs.after_skip(start, start - before)
    last = -1
    while system.cycle < end:
        wake = system.next_event_cycle(system.cycle)
        if wake is None or wake >= end:
            break
        if wake > system.cycle:
            before = system.cycle
            system.skip_to(wake)
            if hooked:
                obs.after_skip(system.cycle, system.cycle - before)
        system.tick()
        if hooked:
            obs.after_tick(system.cycle)
        last = system.cycle
        if last > max_cycles:
            raise RuntimeError(type(system)._overrun_msg)
    return last


def _collect(system, final_cycle: int) -> dict:
    """Finish the shard at the global end cycle and package its state.

    ``skip_to`` settles every local node's deferred accounting at the
    same cycle the serial run ends on; nodes are then stripped of
    process-bound state (stream generators, the home-function closure)
    and shipped back whole, so post-run introspection — metrics, bench
    probes into devices and ARQs — sees exactly what serial runs show.
    """
    obs = system.obs
    system.skip_to(final_cycle)
    if obs.hooked:
        obs.run_finished(final_cycle)
    timeline_doc = obs.timeline.export() if obs.timeline.enabled else None
    profile = obs.profiler if obs.profiler.enabled else None
    trace = None
    tracer = obs.tracer
    if tracer.enabled:
        # Capture, then empty the worker's ring before the nodes (which
        # hold references to it) are pickled — the parent merges the
        # captured events into its own tracer, once.
        trace = (tracer.events(), tracer.dropped)
        tracer.clear()
    nodes = []
    for idx in system._local_ids:
        node = system.nodes[idx]
        node.detach_streams()
        node.mac.request_router.home_fn = None
        nodes.append((idx, node))
    fabric = system.fabric
    return {
        "stats": system.stats,
        "fabric": (fabric.messages_sent, fabric.credit_stalls, fabric.exported),
        "nodes": nodes,
        "timeline": timeline_doc,
        "trace": trace,
        "profile": profile,
    }


def _shard_worker(conn, system, local_ids, max_cycles, chaos_window) -> None:
    window = 0
    busy_s = 0.0
    try:
        system.restrict_to_shard(local_ids)
        if system.obs.tracer.enabled:
            # The fork copied whatever the parent's ring held; drop it so
            # the collect-time merge sees only this shard's own events
            # (the parent keeps the originals).
            system.obs.tracer.clear()
        if system.profiler.enabled:
            # Likewise the profiler: count this shard's work from zero.
            system.profiler = SimProfiler()
        if system.obs.hooked:
            # Installs the restricted system's timeline probes (local
            # nodes only), before the first window.
            system.obs.run_started(system)
        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "advance":
                _, start, end, imports = msg
                if chaos_window is not None and window == chaos_window:
                    os._exit(17)  # chaos hook: die exactly at a barrier
                window += 1
                t0 = time.perf_counter()
                system.fabric.inject(imports)
                last = _advance(system, start, end, max_cycles)
                exports = system.fabric.drain_exports()
                busy_s += time.perf_counter() - t0
                conn.send(
                    (
                        "window",
                        exports,
                        system.done(),
                        system.next_event_cycle(end),
                        last,
                        busy_s,
                    )
                )
            elif cmd == "collect":
                blob = _collect(system, msg[1])
                try:
                    conn.send(("result", blob))
                except (pickle.PicklingError, TypeError, AttributeError) as exc:
                    conn.send(("fallback", f"shard state not picklable: {exc}"))
            else:  # "exit"
                return
    except EOFError:
        return  # parent went away; nothing to report to
    except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
        try:
            conn.send(
                ("error", type(exc).__name__, str(exc), traceback.format_exc())
            )
        except Exception:
            pass
    finally:
        conn.close()


# -- parent side -------------------------------------------------------------


def _raise_worker_error(reply) -> None:
    _, name, msg, tb = reply
    if name == "RuntimeError":
        # Preserve serial semantics for contract errors (max_cycles
        # overruns and friends) so callers can match on them.
        raise RuntimeError(msg)
    raise ShardError(f"shard worker raised {name}: {msg}\n{tb}")


def _run_windows(
    system, shards: int, max_cycles: int, chaos, restarts: int
) -> ShardReport:
    ctx = mp.get_context("fork")
    partition = shard_node_ids(len(system.nodes), shards)
    shard_of = {
        nid: s for s, ids in enumerate(partition) for nid in ids
    }
    workers = []
    try:
        for s in range(shards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_worker,
                args=(
                    child_conn,
                    system,
                    partition[s],
                    max_cycles,
                    chaos[1] if chaos and chaos[0] == s else None,
                ),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            workers.append((proc, parent_conn))

        lookahead = system.fabric.latency_cycles
        prof = system.profiler
        if prof.enabled:
            prof.run_started(f"pdes[{shards}]")
        #: Per-shard heaps of exported hops awaiting their window.
        pending: List[list] = [[] for _ in range(shards)]
        start = 0
        windows = 0
        final = 0
        while True:
            end = start + lookahead
            window_t0 = time.perf_counter()
            for s, (_proc, conn) in enumerate(workers):
                imports = []
                heap = pending[s]
                while heap and heap[0][0] < end:
                    imports.append(heapq.heappop(heap))
                conn.send(("advance", start, end, imports))
            windows += 1
            done_all = True
            wakes: List[int] = []
            shard_busy: List[float] = []
            for _proc, conn in workers:
                try:
                    reply = conn.recv()
                except (EOFError, OSError) as exc:
                    raise ShardCrash(f"shard worker died mid-window: {exc}")
                if reply[0] == "error":
                    _raise_worker_error(reply)
                _, exports, done, wake, last, busy_s = reply
                shard_busy.append(busy_s)
                for hop in exports:
                    heapq.heappush(pending[shard_of[hop[3]]], hop)
                if last >= 0:
                    final = max(final, last)
                if not done:
                    done_all = False
                if wake is not None:
                    wakes.append(wake)
            if prof.enabled:
                prof.note_window(time.perf_counter() - window_t0, shard_busy)
            have_pending = any(pending)
            if done_all and not have_pending:
                break
            candidates = wakes + [heap[0][0] for heap in pending if heap]
            if not candidates:
                raise RuntimeError(
                    "sharded simulation deadlocked: mesh not drained but "
                    "no shard reports a wake and no hops are in flight"
                )
            start = max(end, min(candidates))
            if start > max_cycles:
                raise RuntimeError(type(system)._overrun_msg)

        results = []
        for _proc, conn in workers:
            conn.send(("collect", final))
            try:
                reply = conn.recv()
            except (EOFError, OSError) as exc:
                raise ShardCrash(f"shard worker died at collect: {exc}")
            if reply[0] == "error":
                _raise_worker_error(reply)
            if reply[0] == "fallback":
                raise ShardFallback(reply[1])
            results.append(reply[1])
            conn.send(("exit",))

        # All shards reported: only now is the parent system mutated, so
        # any failure above leaves it pristine for a restart or a serial
        # fallback run.  Timelines merge in shard order (deterministic:
        # per-epoch rate deltas sum, level series live on one shard) and
        # traces by canonical event key.
        shard_traces = []
        for blob in results:
            system.stats.merge(blob["stats"])
            messages, credit_stalls, exported = blob["fabric"]
            system.fabric.messages_sent += messages
            system.fabric.credit_stalls += credit_stalls
            system.fabric.exported += exported
            if blob["timeline"] is not None:
                system.obs.timeline.merge_export(blob["timeline"])
            if blob["trace"] is not None:
                shard_traces.append(blob["trace"])
            if blob["profile"] is not None:
                prof.add_counts(blob["profile"])
            for idx, node in blob["nodes"]:
                node.mac.request_router.home_fn = system.home
                system.nodes[idx] = node
        if shard_traces:
            merge_shard_traces(system.obs.tracer, shard_traces)
        system._cycle = final
        if prof.enabled:
            prof.run_finished(final)
        return ShardReport(
            shards=shards, windows=windows, restarts=restarts, cycles=final
        )
    finally:
        for proc, conn in workers:
            conn.close()
            if proc.is_alive():
                proc.terminate()
            proc.join()


def run_sharded(system, max_cycles: int, shards: int, max_restarts: int = 2):
    """Run ``system`` under conservative PDES with ``shards`` workers.

    Returns a :class:`ShardReport`; the system object ends bit-identical
    to a serial ``run`` (cycle count, node state, stats counters).  A
    crashed worker triggers a full deterministic rerun (the parent is
    only mutated on success), up to ``max_restarts`` times.
    """
    if shards < 2:
        raise ValueError("sharded runs need at least two shards")
    chaos = _parse_chaos(os.environ.get(CHAOS_ENV_VAR))
    restarts = 0
    while True:
        try:
            return _run_windows(
                system,
                shards,
                max_cycles,
                chaos if restarts == 0 else None,
                restarts,
            )
        except ShardCrash:
            restarts += 1
            if restarts > max_restarts:
                raise
