"""Bottleneck reports over attribution data (the ``repro analyze`` core).

Turns an :class:`~repro.obs.attribution.AttributionCollector` (or a
previously exported metrics/report JSON file) into a *bottleneck
report*: the per-stage latency table, the top stall ``(site, cause)``
pairs, the critical stage, and the exactness check that the stage sums
reproduce end-to-end latency cycle for cycle.  A diff mode compares two
reports for A/B (before/after) analysis.

The report is a plain JSON-serializable dict — the CLI renders it as
text tables, scripts consume it as JSON, and ``diff_reports`` works on
any two of them regardless of origin (live run, ``--report-out`` file,
or a ``--metrics-out`` file whose flat ``attribution.*`` keys are
re-nested here).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .attribution import STAGES, AttributionCollector

__all__ = [
    "build_report",
    "report_from_metrics",
    "load_report",
    "load_json",
    "is_flat_metrics",
    "diff_reports",
    "diff_metrics",
    "format_report",
    "format_diff",
    "format_metrics_diff",
    "load_timeline",
    "timeline_report",
    "diff_timelines",
    "format_timeline_report",
    "format_timeline_diff",
]

#: Stage-histogram fields carried through reports and diffs.
_STAGE_FIELDS = ("count", "total", "mean", "p50", "p95", "p99", "max")


def build_report(
    attrib: AttributionCollector, meta: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Bottleneck report dict over one collector's aggregates."""
    stages = attrib.stage_table()
    stage_total = sum(attrib.stage_cycles.values())
    end_total = attrib.end_to_end.total
    shares = {
        stage: (row["total"] / stage_total if stage_total else 0.0)
        for stage, row in stages.items()
    }
    for stage, row in stages.items():
        row["share"] = shares[stage]
    critical = max(STAGES, key=lambda s: stages[s]["total"]) if stage_total else None
    top = sorted(
        (
            (site, cause, cycles)
            for site, causes in attrib.stalls.items()
            for cause, cycles in causes.items()
        ),
        key=lambda item: (-item[2], item[0], item[1]),
    )
    return {
        "meta": dict(meta or {}),
        "requests": attrib.finalized,
        "incomplete": attrib.incomplete,
        "end_to_end": attrib._hist_summary(attrib.end_to_end),
        "stages": stages,
        "stage_cycle_sum": stage_total,
        "exact": stage_total == end_total,
        "critical_stage": critical,
        "stalls": {site: dict(c) for site, c in attrib.stalls.items()},
        "top_stalls": [list(t) for t in top],
        "depth": attrib.depth.snapshot(),
    }


def report_from_metrics(metrics: Dict[str, Any]) -> Dict[str, Any]:
    """Rebuild a report from a flat ``--metrics-out`` style dict.

    Accepts the dotted-key namespace written by ``repro run
    --attribution --metrics-out`` (``attribution.stages.<stage>.<field>``
    etc.); raises ``ValueError`` when the file carries no attribution
    keys (i.e. the run had attribution disabled).
    """
    prefix = "attribution."
    nested: Dict[str, Any] = {}
    for key, value in metrics.items():
        if not key.startswith(prefix):
            continue
        parts = key[len(prefix):].split(".")
        if parts[0] in ("stalls", "depth"):
            # ``<site>.<leaf>``: a mesh node's site ``node<k>.arq`` is dotted.
            parts = [parts[0], ".".join(parts[1:-1]), parts[-1]]
        node = nested
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    if not nested:
        raise ValueError(
            "no attribution.* keys found — was the run made with "
            "attribution enabled (repro run --attribution / repro analyze)?"
        )
    stages: Dict[str, Dict[str, Any]] = {
        stage: dict(nested.get("stages", {}).get(stage, {})) for stage in STAGES
    }
    stage_cycles = nested.get("stage_cycles", {})
    stage_total = sum(stage_cycles.get(stage, 0) for stage in STAGES)
    for stage, row in stages.items():
        row.setdefault("total", stage_cycles.get(stage, 0))
        row["share"] = row["total"] / stage_total if stage_total else 0.0
    end = dict(nested.get("end_to_end", {}))
    critical = (
        max(STAGES, key=lambda s: stages[s].get("total", 0)) if stage_total else None
    )
    stalls: Dict[str, Dict[str, int]] = {
        site: dict(causes) for site, causes in nested.get("stalls", {}).items()
    }
    top = sorted(
        (
            (site, cause, cycles)
            for site, causes in stalls.items()
            for cause, cycles in causes.items()
        ),
        key=lambda item: (-item[2], item[0], item[1]),
    )
    return {
        "meta": {"source": "metrics"},
        "requests": nested.get("requests_finalized", 0),
        "incomplete": nested.get("requests_incomplete", 0),
        "end_to_end": end,
        "stages": stages,
        "stage_cycle_sum": stage_total,
        "exact": stage_total == end.get("total", -1),
        "critical_stage": critical,
        "stalls": stalls,
        "top_stalls": [list(t) for t in top],
        "depth": nested.get("depth", {}),
    }


def load_json(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a report or metrics JSON object without reshaping it."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def is_flat_metrics(data: Dict[str, Any]) -> bool:
    """A flat ``--metrics-out`` dict, as opposed to a bottleneck report."""
    return not ("stages" in data and "end_to_end" in data)


def load_report(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a report from a ``--report-out`` or ``--metrics-out`` file."""
    data = load_json(path)
    if not is_flat_metrics(data):
        return data
    return report_from_metrics(data)


def diff_metrics(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Key-by-key A→B comparison of two flat metrics dicts.

    The determinism check behind the CI smokes: two ``--metrics-out``
    files from bit-identical runs (e.g. the same command run twice)
    must produce ``identical: True`` — every key present in both files
    with exactly equal values.
    """
    changed = {
        k: [a[k], b[k]] for k in sorted(set(a) & set(b)) if a[k] != b[k]
    }
    only_a = sorted(set(a) - set(b))
    only_b = sorted(set(b) - set(a))
    return {
        "identical": not changed and not only_a and not only_b,
        "keys": len(set(a) | set(b)),
        "changed": changed,
        "only_in_a": only_a,
        "only_in_b": only_b,
    }


def format_metrics_diff(diff: Dict[str, Any]) -> str:
    lines: List[str] = []
    if diff["identical"]:
        lines.append(f"metrics identical: {diff['keys']} keys match exactly")
        return "\n".join(lines)
    lines.append(
        f"metrics differ: {len(diff['changed'])} changed, "
        f"{len(diff['only_in_a'])} only in A, "
        f"{len(diff['only_in_b'])} only in B (of {diff['keys']} keys)"
    )
    for key, (va, vb) in list(diff["changed"].items())[:50]:
        lines.append(f"  {key}: {va} -> {vb}")
    for key in diff["only_in_a"][:10]:
        lines.append(f"  only in A: {key}")
    for key in diff["only_in_b"][:10]:
        lines.append(f"  only in B: {key}")
    return "\n".join(lines)


# -- diff -------------------------------------------------------------------


def _rel(before: float, after: float) -> Optional[float]:
    if not before:
        return None
    return (after - before) / before


def diff_reports(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Structured A→B comparison of two bottleneck reports."""
    stages: Dict[str, Dict[str, Any]] = {}
    for stage in STAGES:
        row_a = a.get("stages", {}).get(stage, {})
        row_b = b.get("stages", {}).get(stage, {})
        row: Dict[str, Any] = {}
        for field in _STAGE_FIELDS:
            va, vb = row_a.get(field, 0) or 0, row_b.get(field, 0) or 0
            row[field] = {"a": va, "b": vb, "delta": vb - va, "rel": _rel(va, vb)}
        stages[stage] = row
    end_a = a.get("end_to_end", {})
    end_b = b.get("end_to_end", {})
    end = {
        field: {
            "a": end_a.get(field, 0) or 0,
            "b": end_b.get(field, 0) or 0,
            "delta": (end_b.get(field, 0) or 0) - (end_a.get(field, 0) or 0),
            "rel": _rel(end_a.get(field, 0) or 0, end_b.get(field, 0) or 0),
        }
        for field in ("count", "total", "mean", "p50", "p95", "p99")
    }
    sites = set(a.get("stalls", {})) | set(b.get("stalls", {}))
    stalls: Dict[str, Dict[str, Any]] = {}
    for site in sorted(sites):
        causes = set(a.get("stalls", {}).get(site, {})) | set(
            b.get("stalls", {}).get(site, {})
        )
        for cause in sorted(causes):
            va = a.get("stalls", {}).get(site, {}).get(cause, 0)
            vb = b.get("stalls", {}).get(site, {}).get(cause, 0)
            stalls.setdefault(site, {})[cause] = {
                "a": va, "b": vb, "delta": vb - va, "rel": _rel(va, vb)
            }
    return {
        "meta": {"a": a.get("meta", {}), "b": b.get("meta", {})},
        "end_to_end": end,
        "stages": stages,
        "stalls": stalls,
        "critical_stage": {
            "a": a.get("critical_stage"),
            "b": b.get("critical_stage"),
        },
    }


# -- text rendering ---------------------------------------------------------


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def _pct(ratio: Optional[float]) -> str:
    if ratio is None:
        return "n/a"
    return f"{ratio * 100:+.1f}%"


def format_report(report: Dict[str, Any], title: str = "bottleneck report") -> str:
    """Render a report as the aligned text tables the CLI prints."""
    from repro.eval.report import format_table

    lines: List[str] = []
    meta = report.get("meta", {})
    if meta:
        pairs = ", ".join(f"{k}={v}" for k, v in meta.items())
        lines.append(f"{title} ({pairs})")
    else:
        lines.append(title)
    end = report.get("end_to_end", {})
    lines.append(
        f"requests: {report.get('requests', 0)}  |  end-to-end mean "
        f"{_fmt(end.get('mean', 0))} cy, p50 {_fmt(end.get('p50', 0))}, "
        f"p95 {_fmt(end.get('p95', 0))}, p99 {_fmt(end.get('p99', 0))}"
    )
    rows = []
    for stage in STAGES:
        row = report.get("stages", {}).get(stage, {})
        if not row.get("count"):
            continue
        rows.append(
            [
                stage,
                row.get("count", 0),
                _fmt(row.get("mean", 0)),
                _fmt(row.get("p50", 0)),
                _fmt(row.get("p95", 0)),
                _fmt(row.get("p99", 0)),
                f"{row.get('share', 0.0) * 100:.1f}%",
            ]
        )
    lines.append(
        format_table(
            ["stage", "count", "mean", "p50", "p95", "p99", "share"],
            rows,
            title="per-stage latency (cycles)",
        )
    )
    exact = "yes" if report.get("exact") else "NO"
    lines.append(
        f"stage sum {report.get('stage_cycle_sum', 0)} cy == end-to-end "
        f"{end.get('total', 0)} cy: {exact}"
    )
    if report.get("critical_stage"):
        lines.append(f"critical stage: {report['critical_stage']}")
    top = report.get("top_stalls", [])
    if top:
        lines.append(
            format_table(
                ["site", "cause", "stall cycles"],
                [[s, c, n] for s, c, n in top[:10]],
                title="top stall sites",
            )
        )
    else:
        lines.append("no stalls recorded")
    return "\n".join(lines)


def format_diff(diff: Dict[str, Any]) -> str:
    """Render a diff dict as aligned before/after text tables."""
    from repro.eval.report import format_table

    lines: List[str] = []
    end = diff.get("end_to_end", {})
    rows = [
        [field, _fmt(v["a"]), _fmt(v["b"]), _fmt(v["delta"]), _pct(v["rel"])]
        for field, v in end.items()
    ]
    lines.append(
        format_table(
            ["end-to-end", "A", "B", "delta", "rel"],
            rows,
            title="A/B bottleneck diff",
        )
    )
    stage_rows = []
    for stage in STAGES:
        row = diff.get("stages", {}).get(stage, {})
        total = row.get("total")
        if not total or (not total["a"] and not total["b"]):
            continue
        mean = row.get("mean", {"a": 0, "b": 0, "rel": None})
        stage_rows.append(
            [
                stage,
                _fmt(total["a"]),
                _fmt(total["b"]),
                _fmt(total["delta"]),
                _pct(total["rel"]),
                _pct(mean["rel"]),
            ]
        )
    if stage_rows:
        lines.append(
            format_table(
                ["stage", "total A", "total B", "delta", "rel", "mean rel"],
                stage_rows,
                title="per-stage totals (cycles)",
            )
        )
    stall_rows: List[List[Any]] = []
    for site, causes in diff.get("stalls", {}).items():
        for cause, v in causes.items():
            if not v["a"] and not v["b"]:
                continue
            stall_rows.append(
                [site, cause, v["a"], v["b"], v["delta"], _pct(v["rel"])]
            )
    stall_rows.sort(key=lambda r: -abs(r[4]))
    if stall_rows:
        lines.append(
            format_table(
                ["site", "cause", "A", "B", "delta", "rel"],
                stall_rows[:12],
                title="stall deltas (cycles)",
            )
        )
    crit = diff.get("critical_stage", {})
    if crit:
        lines.append(
            f"critical stage: {crit.get('a')} -> {crit.get('b')}"
        )
    return "\n".join(lines)


# -- timeline reports (repro analyze --timeline) ----------------------------

#: Throughput series candidates, most specific first; the first suffix
#: with any matching series becomes the activity signal (series are
#: ``node<id>.``-prefixed in mesh timelines, so match on suffix).
_ACTIVITY_SUFFIXES = ("mac.packets", "node.responses_delivered", "mac.raw_requests")

#: Stall families scanned for the per-epoch critical stage, with the
#: human label the table reports.  Values are normalized per family
#: (units differ: cycles vs counts) before the per-epoch argmax.
_STALL_FAMILIES = (
    ("device.bank_conflicts", "bank-conflicts"),
    ("vaults.queue_wait_cycles", "vault-queue"),
    ("fabric.credit_stalls", "fabric-credits"),
    ("system.backpressure_stalls", "backpressure"),
    ("links.retries", "link-retries"),
    ("arq.depth", "arq-pressure"),
    ("noc.contention_cycles", "noc-contention"),
    ("bank.row_misses", "row-misses"),
)

#: Activity below this fraction of the steady-state median marks an
#: epoch as warm-up (leading) or drain (trailing).
_PHASE_THRESHOLD = 0.5


def load_timeline(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a ``--timeline-out`` document, restoring int epoch keys."""
    doc = load_json(path)
    if "series" not in doc or "epoch" not in doc:
        raise ValueError(f"{path}: not a timeline document (no series/epoch)")
    for payload in doc["series"].values():
        payload["epochs"] = {
            int(k): v for k, v in payload.get("epochs", {}).items()
        }
    return doc


def _sum_suffix(doc: Dict[str, Any], suffix: str) -> Dict[int, float]:
    """Per-epoch sum over every series named ``suffix`` or ``*.<suffix>``."""
    out: Dict[int, float] = {}
    for name, payload in doc["series"].items():
        if name != suffix and not name.endswith("." + suffix):
            continue
        for epoch, value in payload["epochs"].items():
            out[epoch] = out.get(epoch, 0.0) + value
    return out


def _activity(doc: Dict[str, Any]) -> Tuple[str, Dict[int, float]]:
    for suffix in _ACTIVITY_SUFFIXES:
        series = _sum_suffix(doc, suffix)
        if series:
            return suffix, series
    return "", {}


def timeline_report(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Phase segmentation + per-epoch critical stage of one timeline.

    Phases: *warm-up* is the leading span whose activity (the first
    matching throughput series) stays below half the steady median,
    *drain* the trailing such span, *steady* everything between.  The
    critical-stage table groups consecutive epochs by which stall
    family dominates them (per-family max-normalized, so cycles and
    counts compare).
    """
    epoch_len = doc["epoch"]
    cycles = doc.get("cycles", 0)
    signal, activity = _activity(doc)
    last_epoch = max(
        [cycles // epoch_len if cycles else 0]
        + [e for p in doc["series"].values() for e in p["epochs"]]
        + [0]
    )
    phases: List[Dict[str, Any]] = []
    if activity:
        values = sorted(activity.values())
        median = values[len(values) // 2]
        threshold = _PHASE_THRESHOLD * median
        busy = sorted(e for e, v in activity.items() if v >= threshold)
        steady_lo, steady_hi = busy[0], busy[-1]
        total = sum(activity.values())
        spans = [
            ("warm-up", 0, steady_lo - 1),
            ("steady", steady_lo, steady_hi),
            ("drain", steady_hi + 1, last_epoch),
        ]
        for label, lo, hi in spans:
            if hi < lo:
                continue
            span_total = sum(
                v for e, v in activity.items() if lo <= e <= hi
            )
            phases.append(
                {
                    "phase": label,
                    "epochs": [lo, hi],
                    "cycles": [lo * epoch_len, (hi + 1) * epoch_len],
                    "activity": span_total,
                    "activity_share": span_total / total if total else 0.0,
                    "per_epoch": span_total / (hi - lo + 1),
                }
            )
    # Per-epoch critical stage: max-normalized stall families.
    families = {
        label: _sum_suffix(doc, suffix)
        for suffix, label in _STALL_FAMILIES
    }
    peaks = {
        label: max(series.values(), default=0.0)
        for label, series in families.items()
    }
    critical: Dict[int, Tuple[str, float]] = {}
    for label, series in families.items():
        peak = peaks[label]
        if not peak:
            continue
        for epoch, value in series.items():
            norm = value / peak
            cur = critical.get(epoch)
            if cur is None or norm > cur[1]:
                critical[epoch] = (label, norm)
    stage_rows: List[Dict[str, Any]] = []
    for epoch in sorted(critical):
        label, _ = critical[epoch]
        if stage_rows and stage_rows[-1]["stage"] == label and (
            stage_rows[-1]["epochs"][1] == epoch - 1
        ):
            stage_rows[-1]["epochs"][1] = epoch
            stage_rows[-1]["raw"] += families[label].get(epoch, 0.0)
        else:
            stage_rows.append(
                {
                    "stage": label,
                    "epochs": [epoch, epoch],
                    "raw": families[label].get(epoch, 0.0),
                }
            )
    dropped = {
        name: payload.get("dropped", 0)
        for name, payload in doc["series"].items()
        if payload.get("dropped", 0)
    }
    return {
        "epoch": epoch_len,
        "cycles": cycles,
        "series": len(doc["series"]),
        "meta": doc.get("meta", {}),
        "activity_signal": signal,
        "phases": phases,
        "critical_stages": stage_rows,
        "dropped": dropped,
    }


def diff_timelines(
    a: Dict[str, Any], b: Dict[str, Any], top: int = 10
) -> Dict[str, Any]:
    """A→B timeline comparison; ranks the most regressed epochs.

    Regression is throughput lost: epochs sorted by ``activity(A) -
    activity(B)`` descending, annotated with the stall-family deltas
    that explain them.  Requires matching epoch widths.
    """
    if a["epoch"] != b["epoch"]:
        raise ValueError(
            f"timeline epochs differ ({a['epoch']} vs {b['epoch']}); "
            "re-run with matching --timeline-epoch"
        )
    signal_a, act_a = _activity(a)
    signal_b, act_b = _activity(b)
    stall_a = {lbl: _sum_suffix(a, sfx) for sfx, lbl in _STALL_FAMILIES}
    stall_b = {lbl: _sum_suffix(b, sfx) for sfx, lbl in _STALL_FAMILIES}
    epochs = sorted(set(act_a) | set(act_b))
    rows = []
    for epoch in epochs:
        va, vb = act_a.get(epoch, 0.0), act_b.get(epoch, 0.0)
        stalls = {}
        for label in stall_a:
            d = stall_b[label].get(epoch, 0.0) - stall_a[label].get(epoch, 0.0)
            if d:
                stalls[label] = d
        rows.append(
            {"epoch": epoch, "a": va, "b": vb, "delta": vb - va,
             "stall_deltas": stalls}
        )
    rows.sort(key=lambda r: (r["delta"], r["epoch"]))
    return {
        "epoch": a["epoch"],
        "signal": {"a": signal_a, "b": signal_b},
        "activity_total": {
            "a": sum(act_a.values()),
            "b": sum(act_b.values()),
        },
        "top_regressed": rows[:top],
    }


def format_timeline_report(report: Dict[str, Any], title: str = "timeline") -> str:
    """Render a :func:`timeline_report` as the CLI's text tables."""
    from repro.eval.report import format_table

    lines: List[str] = []
    meta = report.get("meta", {})
    head = (
        f"{title}: {report['series']} series, epoch {report['epoch']} cy, "
        f"{report['cycles']} cycles"
    )
    if meta:
        head += " (" + ", ".join(f"{k}={v}" for k, v in meta.items()) + ")"
    lines.append(head)
    if report.get("activity_signal"):
        lines.append(f"activity signal: {report['activity_signal']}")
    rows = [
        [
            p["phase"],
            f"{p['epochs'][0]}..{p['epochs'][1]}",
            f"{p['cycles'][0]}..{p['cycles'][1]}",
            _fmt(p["activity"]),
            f"{p['activity_share'] * 100:.1f}%",
            _fmt(p["per_epoch"]),
        ]
        for p in report.get("phases", [])
    ]
    if rows:
        lines.append(
            format_table(
                ["phase", "epochs", "cycles", "activity", "share", "per-epoch"],
                rows,
                title="phase segmentation",
            )
        )
    else:
        lines.append("no activity series found; phases unavailable")
    crit = report.get("critical_stages", [])
    if crit:
        lines.append(
            format_table(
                ["epochs", "critical stage", "raw"],
                [
                    [f"{r['epochs'][0]}..{r['epochs'][1]}", r["stage"],
                     _fmt(r["raw"])]
                    for r in crit[:20]
                ],
                title="per-epoch critical stage",
            )
        )
    else:
        lines.append("no stall-family series recorded")
    dropped = report.get("dropped", {})
    if dropped:
        total = sum(dropped.values())
        lines.append(
            f"WARNING: {total} epochs evicted across {len(dropped)} series "
            "(raise the timeline capacity to keep them)"
        )
    return "\n".join(lines)


def format_timeline_diff(diff: Dict[str, Any]) -> str:
    """Render a :func:`diff_timelines` as the CLI's text tables."""
    from repro.eval.report import format_table

    lines: List[str] = []
    tot = diff["activity_total"]
    lines.append(
        f"timeline A/B ({diff['signal']['a'] or 'n/a'}): total activity "
        f"{_fmt(tot['a'])} -> {_fmt(tot['b'])} ({_pct(_rel(tot['a'], tot['b']))})"
    )
    rows = []
    for r in diff["top_regressed"]:
        stalls = ", ".join(
            f"{k} {v:+g}" for k, v in sorted(
                r["stall_deltas"].items(), key=lambda kv: -abs(kv[1])
            )[:3]
        )
        rows.append(
            [r["epoch"], _fmt(r["a"]), _fmt(r["b"]), _fmt(r["delta"]), stalls]
        )
    if rows:
        lines.append(
            format_table(
                ["epoch", "A", "B", "delta", "stall deltas"],
                rows,
                title="top regressed epochs (A -> B)",
            )
        )
    else:
        lines.append("no overlapping activity epochs to compare")
    return "\n".join(lines)
