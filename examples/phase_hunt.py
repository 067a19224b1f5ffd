#!/usr/bin/env python3
"""Phase hunt: *when* do banks conflict, and what does the MAC flatten?

Runs the closed-loop node (cores -> MAC -> HMC) twice — uncoalesced
baseline vs the MAC — with a cycle-windowed :class:`~repro.obs.Timeline`
attached, then reads both runs through ``repro.obs.analyze``'s timeline
layer: phase segmentation (warm-up / steady / drain), the per-epoch
critical stall stage, and the epoch-by-epoch diff that ranks where the
baseline loses the most throughput.

The time-resolved view sharpens ``examples/bottleneck_hunt.py``'s
aggregate story: the baseline's bank-conflict *rate* arrives in bursts
(every thread hammering row-mates with separate 16 B packets at once),
while the MAC's profile is flatter and shorter — the conflicts are
coalesced away before they can pile into a burst.

Run:  python examples/phase_hunt.py
"""

from repro.eval.runner import attributed_node_run
from repro.obs import Observers, Timeline
from repro.obs.analyze import diff_timelines, timeline_report

WORKLOAD = "SG"  # scatter/gather: row-mates arrive interleaved
THREADS = 8
OPS_PER_THREAD = 800
EPOCH = 256  # fine epochs: burst structure survives the windowing


def timed_run(coalescing: bool):
    """One closed-loop run with a timeline attached; returns its export."""
    timeline = Timeline(epoch=EPOCH)
    _, node = attributed_node_run(
        WORKLOAD,
        threads=THREADS,
        ops_per_thread=OPS_PER_THREAD,
        coalescing=coalescing,
        obs=Observers(timeline=timeline),
    )
    doc = timeline.export()
    doc["meta"]["coalescing"] = coalescing
    return doc, node


def describe(label: str, doc) -> None:
    report = timeline_report(doc)
    phases = ", ".join(
        f"{p['phase']} {p['epochs'][0]}..{p['epochs'][1]} "
        f"({p['activity_share'] * 100:.0f}% of activity)"
        for p in report["phases"]
    )
    print(f"{label}: {doc['cycles']} cycles, phases: {phases}")
    for row in report["critical_stages"]:
        print(
            f"  epochs {row['epochs'][0]:>3}..{row['epochs'][1]:>3}  "
            f"critical: {row['stage']:<14} (raw {row['raw']:.0f})"
        )
    conflicts = doc["series"].get("device.bank_conflicts", {}).get("epochs", {})
    if conflicts:
        peak = max(conflicts.values())
        busy = len(conflicts)
        print(
            f"  bank conflicts: {sum(conflicts.values()):.0f} total over "
            f"{busy} busy epochs, peak {peak:.0f}/epoch"
        )
    print()


def main() -> None:
    print(
        f"phase hunt: {WORKLOAD}, {THREADS} threads, "
        f"{OPS_PER_THREAD} ops/thread, epoch {EPOCH} cycles\n"
    )
    mac_doc, mac_node = timed_run(coalescing=True)
    base_doc, base_node = timed_run(coalescing=False)
    describe("MAC", mac_doc)
    describe("baseline", base_doc)

    diff = diff_timelines(mac_doc, base_doc, top=5)
    print("top epochs where the baseline regresses vs the MAC:")
    for row in diff["top_regressed"]:
        stalls = ", ".join(
            f"{name} {delta:+.0f}"
            for name, delta in sorted(
                row["stall_deltas"].items(), key=lambda kv: -abs(kv[1])
            )
        ) or "no stall delta"
        print(
            f"  epoch {row['epoch']:>3}: activity {row['a']:.0f} -> "
            f"{row['b']:.0f} ({row['delta']:+.0f}); {stalls}"
        )

    ratio = (
        base_node.device.bank_conflicts / mac_node.device.bank_conflicts
        if mac_node.device.bank_conflicts
        else float("inf")
    )
    print(
        f"\nthe uncoalesced baseline hits {ratio:.1f}x the MAC's bank "
        "conflicts, and the timeline\nshows them arriving in bursts the "
        "MAC's profile never develops — the row-mates\nare merged into "
        "single packets before they can conflict."
    )


if __name__ == "__main__":
    main()
