"""The repository benchmark: host time of the simulator, end to end and by layer.

    python3 perfbench/run.py --workload open-sg --seed 1 --seconds 25 --trace 0

Runs one workload as a batch job in fresh single processes, back to back,
for ``--seconds`` seconds (at least ``MIN_JOBS`` jobs).  It scales each
job's host times to a reference host speed probed while the job runs
(see ``probed_run`` and ``scaled``) and reports each metric's median over
the jobs.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced jobs and reports the per-layer metrics of the traced
ones, plus the tracing overhead.  Every job's simulated results are
checked (conservation, and the committed golden fingerprint, whose
default-seed input job 0 of every run uses); a job that raises or fails
a check counts in ``failed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full result
record is written to ``perfbench/results/``.

``--regenerate`` re-runs each workload at the default seed, prints a
per-key diff against its golden fingerprint and rewrites the golden.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import checks  # noqa: E402
from job import DEFAULT_SEED, WORKLOADS  # noqa: E402

RESULTS_DIR = HERE / "results"

#: Knobs that would change what the simulator runs; children never see them.
SCRUBBED_ENV = (
    "REPRO_SIM_ENGINE",
    "REPRO_SIM_VECTOR",
    "REPRO_SIM_SHARDS",
    "REPRO_SIM_CHECK",
    "REPRO_PDES_CHAOS",
)

MIN_JOBS = 3
#: No job starts once this many seconds have passed (the run must end
#: well inside three minutes).
BUDGET_S = 150.0
JOB_TIMEOUT_S = 120.0

#: End-to-end metrics (untraced): name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_req_per_s": "1/s",
    "peak_rss_mb": "MB",
}


#: How strongly a job's host time follows the reference loop's.  Jobs
#: slow less than the loop (process start and file reads do not slow
#: with it): per-job regressions of log time on log probe time gave
#: 0.44-0.78, which noise in the probes biases low; the run-level spread
#: was smallest at 0.7-0.9.
HOST_ELASTICITY = 0.8

#: Iterations of one host-speed probe (about 3 ms on a quiet host) and
#: the pause between probes while a job runs: the probes take ~3% of the
#: second CPU.
PROBE_N = 2000
PROBE_INTERVAL_S = 0.1


def host_scale(reference_s: float) -> float:
    """Factor that converts a job's host times to the reference speed."""
    return (checks.REFERENCE_NOMINAL_S / reference_s) ** HOST_ELASTICITY


def scaled(value: float, unit: str, scale: float) -> float:
    """A host measurement converted to the reference host speed.

    ``scale`` is :func:`host_scale` of the mean reference-loop time
    probed while the job ran (:func:`probed_run`).  On a shared 2-vCPU
    VM the host slows by up to ~50%, in phases of seconds to minutes.
    Over five open-sg seeds the wall time spread 31% raw and 3% scaled.
    A loop run only between jobs missed changes within the 4-6 s
    figures-fast jobs (8% spread over ten seeds); probed during each
    job, the spread was 3% over five.  Counts, ratios and memory are not
    host times and stay as measured.
    """
    if unit in ("s", "ns"):
        return value * scale
    if unit == "1/s":
        return value / scale
    return value


#: Exact simulated results of the golden input (job 0), printed beside
#: the end-to-end metrics (pinned by the fingerprints, not by a bound).
EXACT = {
    "sim_cycles": "cycles",
    "coalescing_efficiency": "ratio",
    "mean_latency_cy": "cycles",
    "makespan_speedup": "ratio",
}

#: Per-layer metrics (traced): name -> unit.
PER_LAYER = {
    "cli.import_s": "s",
    "workloads.generate_s": "s",
    "trace.to_requests_s": "s",
    "workloads.records": "count",
    "core.mac_s": "s",
    "core.mac_calls": "count",
    "core.ns_per_raw_request": "ns",
    "core.packets": "count",
    "core.merge_ratio": "ratio",
    "hmc.submit_s": "s",
    "hmc.submit_calls": "count",
    "hmc.ns_per_packet": "ns",
    "hmc.bank_conflicts": "count",
    "node.core_tick_s": "s",
    "node.core_tick_calls": "count",
    "node.self_s": "s",
    "node.fabric_s": "s",
    "node.remote_requests": "count",
    "node.fabric_messages": "count",
    "node.fabric_credit_stalls": "count",
    "sim.loop_self_s": "s",
    "sim.wake_probe_s": "s",
    "sim.ticks": "count",
    "sim.skipped_cycles": "count",
    "sim.tick_ratio": "ratio",
    "eval.fig10_s": "s",
    "eval.fig11_s": "s",
    "eval.fig17_s": "s",
    "eval.window_coalesce_s": "s",
    "eval.replay_s": "s",
    "eval.trace_cache_hits": "count",
    "eval.trace_cache_misses": "count",
    "exact.sim_cycles": "cycles",
    "exact.coalescing_efficiency": "ratio",
    "exact.mean_latency_cy": "cycles",
    "exact.makespan_speedup": "ratio",
    "trace.residual_s": "s",
    "trace.overhead_ratio": "ratio",
}


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def probed_run(cmd: List[str], env: Dict[str, str], timeout: float = JOB_TIMEOUT_S):
    """Run ``cmd`` to its end while probing the host's speed.

    The probes (:func:`checks.reference_s` of ``PROBE_N`` iterations)
    run in this process, on the second CPU, every ``PROBE_INTERVAL_S``
    while the child runs, so they see the host slow down when the child
    does.  Returns ``(returncode, stdout, stderr, wall seconds, mean probe
    time)``; the probe time is per ``checks.REFERENCE_N`` iterations.
    Raises ``subprocess.TimeoutExpired`` after killing and reaping the
    child.
    """
    t = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    probes = []
    try:
        while True:
            probes.append(checks.reference_s(PROBE_N))
            try:
                out, err = proc.communicate(timeout=PROBE_INTERVAL_S)
                break
            except subprocess.TimeoutExpired:
                if time.perf_counter() - t > timeout:
                    raise
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    wall = time.perf_counter() - t
    return proc.returncode, out, err, wall, statistics.mean(probes)


def run_job(workload: str, seed: int, trace: int, env: Dict[str, str]) -> dict:
    """One fresh-process job; its wall time is measured from outside."""
    cmd = [
        sys.executable, str(HERE / "job.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
    ]
    try:
        code, out, err, wall, reference = probed_run(cmd, env)
    except subprocess.TimeoutExpired:
        return {"trace": trace, "seed": seed, "error": f"timed out after {JOB_TIMEOUT_S}s"}
    if code != 0:
        tail = err.strip().splitlines()[-5:]
        return {"trace": trace, "seed": seed, "error": f"exit {code}: {' | '.join(tail)}"}
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"trace": trace, "seed": seed, "error": "job printed no result line"}
    result["wall_s"] = wall - result["observer_s"]
    result["reference_s"] = reference
    result["scale"] = host_scale(reference)
    return result


def input_seed(seed: int, index: int) -> int:
    """Workload seed of a run's ``index``-th job.

    Job 0 runs the golden input (``DEFAULT_SEED``) whatever ``seed`` is,
    so every run is checked against the committed fingerprint.  Later
    jobs run independent seeds derived from ``seed``, so a run's figures
    average over many inputs instead of hinging on one.
    """
    if index == 0:
        return DEFAULT_SEED
    digest = hashlib.sha256(f"perfbench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def judge(jobs: List[dict], golden: Optional[dict], seeded: bool) -> List[str]:
    """Mark each job's failures in place; returns run-level notes.

    The golden applies to jobs on its seed (job 0 of every run, see
    :func:`input_seed`), or to every job of a workload whose inputs do
    not depend on the seed (``seeded`` false).
    """
    notes = []
    first: Dict[int, str] = {}
    for job in jobs:
        fails = job.setdefault("failures", [])
        if "error" in job:
            fails.append(job["error"])
            continue
        fails.extend(job["problems"])
        seed, fp = job["seed"], job["fingerprint"]
        if first.setdefault(seed, fp) != fp:
            fails.append(f"fingerprint differs between jobs on seed {seed}")
        pinned = golden is not None and (seed == golden["seed"] or not seeded)
        if pinned and fp != golden["sha256"]:
            fails.append("fingerprint differs from the committed golden")
    if golden is None:
        notes.append("no golden fingerprint committed for this workload")
    return notes


def summarize(jobs: List[dict], trace: int) -> Dict[str, float]:
    """Each metric reduced over the jobs that passed every check.

    When none did, the jobs that at least produced results are used, so
    an incorrect run still reports what it measured (``correct`` is false).
    Every metric is the median over the jobs, after scaling: the median
    is robust to a job whose host slowed in a way the probes did not
    catch.  Records keep every sample.
    """
    good = [j for j in jobs if not j["failures"]] or [
        j for j in jobs if "error" not in j
    ]
    plain = [j for j in good if not j["trace"]]
    if not plain:
        return {}
    if not trace:
        return {
            k: statistics.median(scaled(j[k], unit, j["scale"]) for j in plain)
            for k, unit in END_TO_END.items()
        }
    traced = [j for j in good if j["trace"]]
    if not traced:
        return {}
    out = {
        k: statistics.median(
            scaled(j["layer_metrics"][k], unit, j["scale"]) for j in traced
        )
        for k, unit in PER_LAYER.items()
        if k != "trace.overhead_ratio"
    }
    out["trace.overhead_ratio"] = statistics.median(
        j["wall_s"] * j["scale"] for j in traced
    ) / statistics.median(j["wall_s"] * j["scale"] for j in plain)
    return out


def trim(job: dict) -> dict:
    """A job as stored in the record: samples, not the bulky payloads."""
    return {k: v for k, v in job.items() if k not in ("canonical", "spans")}


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    env = child_env()
    # Compile bytecode once, untimed: users do not pay it on every run.
    subprocess.run(
        [sys.executable, "-c", "import repro.cli, repro.eval.experiments, "
         "repro.node.system"],
        cwd=ROOT, env=env, check=True, timeout=JOB_TIMEOUT_S,
    )
    host = checks.host_facts(ROOT)
    calibration = statistics.median(checks.reference_s() for _ in range(3))
    jobs: List[dict] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        plain = sum(1 for j in jobs if not j["trace"])
        if plain >= MIN_JOBS and elapsed >= seconds:
            break
        longest = max((j.get("wall_s", 0.0) for j in jobs), default=0.0)
        if elapsed + 2 * longest > BUDGET_S:
            break
        job_seed = input_seed(seed, plain)
        jobs.append(run_job(workload, job_seed, 0, env))
        if trace:
            jobs.append(run_job(workload, job_seed, 1, env))
    golden = checks.load_golden(workload)
    notes = judge(jobs, golden, WORKLOADS[workload].seeded)
    metrics = summarize(jobs, trace)
    failed = sum(1 for j in jobs if j["failures"])
    good = [j for j in jobs if "error" not in j]
    traced = [j for j in good if j["trace"]]
    return {
        "schema": checks.RECORD_SCHEMA,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "started_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "engine": good[0]["engine"] if good else None,
        "env_scrubbed": list(SCRUBBED_ENV),
        "host": {
            **host,
            "calibration_s": calibration,
            "reference_nominal_s": checks.REFERENCE_NOMINAL_S,
        },
        "attempted": len(jobs),
        "failed": failed,
        "error_rate": failed / len(jobs),
        "correct": failed == 0 and bool(metrics),
        "notes": notes,
        "fingerprint": good[0]["fingerprint"] if good else None,
        "exact": good[0]["exact"] if good else None,
        "exact_seed": good[0]["seed"] if good else None,
        "golden_sha256": golden["sha256"] if golden else None,
        "metrics": metrics,
        "jobs": [trim(j) for j in jobs],
        "spans": traced[-1]["spans"] if traced else None,
    }


def regenerate(workloads: List[str]) -> int:
    env = child_env()
    status = 0
    for w in workloads:
        job = run_job(w, DEFAULT_SEED, 0, env)
        if "error" in job or job["problems"]:
            print(f"{w}: not regenerated: {job.get('error') or job['problems']}")
            status = 1
            continue
        old = checks.load_golden(w)
        diff = checks.diff_canonical(old["metrics"] if old else {}, job["canonical"])
        path = checks.write_golden(w, DEFAULT_SEED, job["canonical"])
        print(f"{w}: {len(diff)} keys changed; wrote {path.relative_to(ROOT)}")
        for line in diff:
            print("  " + line)
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description="MAC simulator benchmark (host time, end to end and per layer)"
    )
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--regenerate", action="store_true",
        help="rewrite golden fingerprints (all workloads, or --workload) "
        "and print a per-key diff",
    )
    args = p.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so subprocess.run kills and reaps the
    # running job instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"benchmark: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.regenerate:
        return regenerate([args.workload] if args.workload else sorted(WORKLOADS))
    if args.workload is None:
        p.error("--workload is required")

    record = measure(args.workload, args.seed, args.seconds, args.trace)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    checks.write_record(out, record)
    units = PER_LAYER if args.trace else END_TO_END
    for job in record["jobs"]:
        for failure in job["failures"]:
            print(f"FAILED job: {failure}", file=sys.stderr)
    if not record["metrics"]:
        print("benchmark: no job completed correctly", file=sys.stderr)
        return 1
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={record['attempted']} failed={record['failed']} "
          f"engine={record['engine']}")
    for name, unit in units.items():
        print(f"  {name:28s} {record['metrics'][name]:>16.6g} {unit}")
    if not args.trace and record["exact"]:
        print(f"exact simulated results, seed {record['exact_seed']}:")
        for name, unit in EXACT.items():
            print(f"  {name:28s} {record['exact'][name]:>16.6g} {unit}")
    print(f"record: {out.relative_to(ROOT)}")
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
