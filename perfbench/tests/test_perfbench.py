"""Tests of the benchmark's own code (run: python3 -m pytest perfbench/tests)."""

import copy
import json
import subprocess
import sys
import time
from time import perf_counter_ns

import pytest

import checks
import job
import run
import spans

ROOT = checks.HERE.parent


def small_workloads():
    return [
        job.OpenSG(threads=2, ops=300),
        job.ClosedIS(threads=4, ops=150),
        job.Numa4GUPS(nodes=2, threads=1, ops=60),
    ]


# -- metric names ------------------------------------------------------------


def test_metric_names_are_well_formed():
    names = list(run.END_TO_END) + list(run.PER_LAYER) + list(run.EXACT)
    assert len(names) == len(set(names))
    for name in names:
        assert checks.METRIC_NAME.fullmatch(name), name


def test_traced_job_reports_every_per_layer_metric():
    rec = spans.SpanRecorder()
    rec.finish()
    exact = job._exact()
    exact.update(trace_cache_hits=0, trace_cache_misses=0)
    reported = set(job.layer_metrics(rec, exact, None)) | {"trace.overhead_ratio"}
    assert reported == set(run.PER_LAYER)


def test_benchmark_json_matches_the_metric_tables():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        pytest.skip("no BENCHMARK.json beside the benchmark")
    doc = json.loads(path.read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(job.WORKLOADS)


# -- wrappers ----------------------------------------------------------------


@pytest.mark.parametrize("wl", small_workloads(), ids=lambda w: w.name)
def test_wrappers_leave_simulated_results_unchanged(wl):
    from repro.core.mac import MAC

    tick = MAC.__dict__["tick"]
    plain = job.run_job(wl.name, 5, False, wl=wl)
    traced = job.run_job(wl.name, 5, True, wl=wl)
    assert plain["problems"] == [] and traced["problems"] == []
    assert traced["fingerprint"] == plain["fingerprint"]
    assert traced["canonical"] == plain["canonical"]
    # Every patch is undone after the job.
    assert MAC.__dict__["tick"] is tick


def test_layers_and_residual_account_for_the_traced_wall_time():
    wl = job.OpenSG(threads=2, ops=200)
    out = job.run_job(wl.name, 3, True, t0_ns=perf_counter_ns(), wl=wl)
    snap = out["spans"]
    assert job.accounting_problems(snap) == []
    assert sum(snap["layers"].values()) == pytest.approx(snap["wall_s"], abs=1e-6)
    assert out["layer_metrics"]["core.mac_s"] > 0
    assert out["layer_metrics"]["hmc.submit_calls"] == out["exact"]["packets"]


def test_span_self_time_excludes_children():
    rec = spans.SpanRecorder()

    def inner():
        return sum(range(20000))

    inner_span = rec.wrap(inner, "inner", "b")
    outer_span = rec.wrap(lambda: inner_span() + inner_span(), "outer", "a")
    outer_span()
    rec.finish()
    assert rec.calls("inner") == 2
    assert rec.self_s("outer") == pytest.approx(
        rec.total_s("outer") - rec.total_s("inner"), abs=1e-9
    )
    snap = rec.snapshot()
    assert job.accounting_problems(snap) == []
    assert [(e["parent"], e["name"], e["calls"]) for e in snap["edges"]] == [
        ("job", "outer", 1), ("outer", "inner", 2)
    ]


def test_accounting_flags_a_span_outlasting_its_parent():
    snap = {"wall_s": 1.0, "layers": {"residual": 1.2, "core": -0.2}}
    assert job.accounting_problems(snap) == ["negative self time -0.200000s in layer core"]


# -- conservation ------------------------------------------------------------


def _open_loop_state():
    wl = job.OpenSG(threads=2, ops=300)
    st = wl.setup(9, spans.Patches())
    wl.simulate(st)
    return wl, st


def test_conservation_holds_on_a_real_run():
    wl, st = _open_loop_state()
    assert wl.collect(st)[2] == []


def test_conservation_fails_on_a_dropped_target():
    wl, st = _open_loop_state()
    victim = next(p for p in st["packets"] if len(p.targets) > 1)
    victim.targets.pop()
    problems = wl.collect(st)[2]
    assert any("do not sum" in p for p in problems)


def test_conservation_fails_on_a_duplicated_target():
    wl, st = _open_loop_state()
    a, b = st["packets"][0], st["packets"][1]
    b.targets.append(a.targets[0])
    st["stats"].raw_requests += 1  # keep the sums consistent: only the dup is wrong
    problems = wl.collect(st)[2]
    assert any("more than one packet" in p for p in problems)


def test_conservation_fails_on_unanswered_or_duplicate_responses():
    good = {"inputs": 10, "raw": 10, "targets": 10, "answered": 10,
            "outstanding": 0, "duplicates": 0, "packets": 4, "device_requests": 4}
    assert checks.conservation_problems(good) == []
    for key, value in (("answered", 9), ("outstanding", 1), ("duplicates", 2),
                       ("device_requests", 3), ("raw", 11)):
        bad = dict(good, **{key: value})
        assert checks.conservation_problems(bad), key


# -- fingerprints and records -------------------------------------------------


def test_fingerprint_ignores_key_order_and_maps_nan_to_null():
    a = checks.canonical({"b": 1, "a": float("nan")})
    b = checks.canonical({"a": float("nan"), "b": 1})
    assert a == {"a": None, "b": 1}
    assert checks.fingerprint(a) == checks.fingerprint(b)
    assert checks.fingerprint(a) != checks.fingerprint({"a": None, "b": 2})


def test_diff_canonical_lists_each_changed_key():
    diff = checks.diff_canonical({"a": 1, "b": 2}, {"a": 1, "b": 3, "c": 4})
    assert diff == ["~ b: 2 -> 3", "+ c: 4"]


def test_goldens_are_self_consistent():
    for name in job.WORKLOADS:
        golden = checks.load_golden(name)
        assert golden is not None, name
        assert golden["seed"] == job.DEFAULT_SEED
        assert checks.fingerprint(golden["metrics"]) == golden["sha256"]


def test_result_records_round_trip(tmp_path):
    record = {
        "schema": checks.RECORD_SCHEMA,
        "workload": "open-sg",
        "seed": 1,
        "metrics": {"wall_s": 1.2345678901234567, "peak_rss_mb": 59.5},
        "jobs": [{"seed": 1, "failures": [], "exact": {"sim_cycles": 51514}}],
        "host": checks.host_facts(ROOT),
    }
    path = tmp_path / "r.json"
    checks.write_record(path, record)
    assert checks.read_record(path) == record
    bad = copy.deepcopy(record)
    bad["schema"] = 0
    checks.write_record(path, bad)
    with pytest.raises(ValueError):
        checks.read_record(path)


def test_input_seeds_are_deterministic_and_start_at_the_golden_seed():
    seeds = [run.input_seed(7, i) for i in range(5)]
    assert seeds[0] == job.DEFAULT_SEED
    assert seeds == [run.input_seed(7, i) for i in range(5)]
    assert seeds[1:] != [run.input_seed(8, i) for i in range(1, 5)]
    assert len(set(seeds)) == 5


def _judged(run_seed, golden_sha):
    jobs = [
        {"seed": run.input_seed(run_seed, i), "problems": [],
         "fingerprint": f"fp{run.input_seed(run_seed, i)}"}
        for i in range(3)
    ]
    golden = {"seed": job.DEFAULT_SEED, "sha256": golden_sha}
    run.judge(jobs, golden, seeded=True)
    return [j["failures"] for j in jobs]


def test_every_run_seed_is_checked_against_the_golden():
    good = f"fp{job.DEFAULT_SEED}"
    assert _judged(7, good) == [[], [], []]
    failures = _judged(7, "a-changed-result")
    assert failures[0] == ["fingerprint differs from the committed golden"]
    assert failures[1:] == [[], []]


def test_children_never_see_engine_knobs(monkeypatch):
    for key in run.SCRUBBED_ENV:
        monkeypatch.setenv(key, "1")
    env = run.child_env()
    assert not set(run.SCRUBBED_ENV) & set(env)


def test_probed_run_returns_output_and_probe_time():
    code, out, err, wall, reference = run.probed_run(
        [sys.executable, "-c", "import time; time.sleep(0.35); print('done')"],
        run.child_env(),
    )
    assert (code, out.strip(), err) == (0, "done", "")
    assert wall >= 0.35 and reference > 0


def test_probed_run_kills_a_job_past_its_timeout():
    t = time.perf_counter()
    with pytest.raises(subprocess.TimeoutExpired):
        run.probed_run(
            [sys.executable, "-c", "import time; time.sleep(30)"],
            run.child_env(), timeout=0.3,
        )
    assert time.perf_counter() - t < 10


def test_scaling_converts_host_times_only():
    assert run.scaled(2.0, "s", 0.5) == 1.0
    assert run.scaled(300.0, "ns", 0.5) == 150.0
    assert run.scaled(1000.0, "1/s", 0.5) == 2000.0
    for unit in ("count", "ratio", "MB", "cycles"):
        assert run.scaled(7.0, unit, 0.5) == 7.0
