"""Fold result records into ``perfbench/baseline.json``.

    python3 perfbench/baseline.py

Reads every record under ``perfbench/results/`` (write them first with
``run.py``, e.g. ten seeds per workload with ``--trace 0`` and one with
``--trace 1``). For each workload and metric it stores the median and
quartiles over the runs. It also measures the ROADMAP's starting points
with the ``repro`` CLI: ``import repro.cli``, ``repro run SG`` end to end,
``repro figures --fast``, and the simulation wall time of ``run GUPS
--nodes 4 --threads 2 --ops 200`` under each engine.  Every host time is
scaled to the reference speed the way ``run.py`` scales jobs.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Tuple

import checks
import run

OUT = run.HERE / "baseline.json"
REPEATS = 5


def spread(values: List[float]) -> Dict[str, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "runs": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "runs": len(values),
    }


def fold_records() -> Dict[str, dict]:
    by_workload: Dict[str, dict] = {}
    for path in sorted(run.RESULTS_DIR.glob("*-trace[01].json")):
        rec = checks.read_record(path)
        if not rec["correct"]:
            raise SystemExit(f"{path.name}: run was not correct; not a baseline")
        w = by_workload.setdefault(
            rec["workload"], {"seeds": [], "end_to_end": {}, "per_layer": {}, "sim_s": []}
        )
        if rec["trace"]:
            for k, v in rec["metrics"].items():
                w["per_layer"].setdefault(k, []).append(v)
            continue
        w["seeds"].append(rec["seed"])
        for k, v in rec["metrics"].items():
            w["end_to_end"].setdefault(k, []).append(v)
        w["sim_s"].append(statistics.median(
            j["sim_s"] * j["scale"] for j in rec["jobs"] if not j["failures"]
        ))
    return {
        name: {
            "seeds": sorted(w["seeds"]),
            "end_to_end": {k: spread(v) for k, v in w["end_to_end"].items()},
            "sim_phase_s": spread(w["sim_s"]) if w["sim_s"] else None,
            "per_layer": {k: statistics.median(v) for k, v in w["per_layer"].items()},
        }
        for name, w in sorted(by_workload.items())
    }


def timed(cmd: List[str]) -> Tuple[float, float]:
    """(wall seconds, host scale) of one command, as run.py measures jobs."""
    code, _out, err, wall, reference = run.probed_run(cmd, run.child_env())
    if code != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {code}: {err.strip()[-500:]}")
    return wall, run.host_scale(reference)


def scaled_wall(cmd: List[str], repeats: int = REPEATS) -> float:
    return statistics.median(w * s for w, s in (timed(cmd) for _ in range(repeats)))


def starting_points() -> Dict[str, float]:
    py = sys.executable
    out = {
        "import_repro_cli_s": scaled_wall([py, "-c", "import repro.cli"]),
        "repro_run_sg_s": scaled_wall([py, "-m", "repro", "run", "SG"]),
        "repro_figures_fast_s": scaled_wall([py, "-m", "repro", "figures", "--fast"], 3),
    }
    metrics = run.RESULTS_DIR / "gups-profile.json"
    for engine in ("lockstep", "skip"):
        walls = []
        for _ in range(REPEATS):
            _, scale = timed([py, "-m", "repro", "run", "GUPS", "--nodes", "4",
                              "--threads", "2", "--ops", "200", "--engine", engine,
                              "--profile", "--metrics-out", str(metrics)])
            walls.append(json.loads(metrics.read_text())["sim.wall_s"] * scale)
        out[f"gups_nodes4_ops200_sim_wall_s_{engine}"] = statistics.median(walls)
    metrics.unlink()
    return out


def main() -> int:
    run.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    doc = {
        "host": {
            **checks.host_facts(run.ROOT),
            "calibration_s": statistics.median(
                checks.reference_s() for _ in range(REPEATS)
            ),
        },
        "note": "host times are scaled to the reference speed (run.scaled) "
        "and reduced to their median over the jobs; each entry is the median and "
        "quartiles of that value over the runs (one run per seed); "
        "starting_points are medians of scaled single commands",
        "workloads": fold_records(),
        "starting_points": starting_points(),
    }
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True, allow_nan=False) + "\n")
    print(f"wrote {OUT.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
