"""Metric arithmetic over a worker's raw result."""

from __future__ import annotations

import statistics

from spans import UNIT, percentile, tail_percentile


def end_to_end(unit_s, setup_s, peak_rss_mb) -> dict:
    return {
        "trial_ms_p50": percentile(unit_s, 50) * 1e3,
        "trials_per_s": len(unit_s) / sum(unit_s),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def p90_ms(unit_s):
    p90 = tail_percentile(unit_s, 90)
    return None if p90 is None else p90 * 1e3


def per_layer(res) -> dict:
    """Self time of every traced call, per unit and per call, plus the
    work ratios and the trace's own cost."""
    by_unit = list(res["by_unit"].values())
    names = {name for unit in by_unit for name in unit} - {UNIT}
    out = {}
    for name in sorted(names):
        total = sum(unit.get(name, 0.0) for unit in by_unit)
        out[f"{name}.ms"] = statistics.median(unit.get(name, 0.0) for unit in by_unit) * 1e3
        out[f"{name}.us_per_call"] = total / res["calls"][name] * 1e6
    work = res["work"]
    vertices = sum(w.get("vertices", 0) for w in work)
    edges = sum(w.get("edges", 0) for w in work)
    if vertices:
        prune = sum(unit.get("rule2.prune", 0.0) for unit in by_unit)
        out["rule2.prune.us_per_vertex"] = prune / vertices * 1e6
    if edges:
        build = sum(unit.get("rgg.build_udg", 0.0) for unit in by_unit)
        out["rgg.build_udg.ns_per_edge"] = build / edges * 1e9
    out["trace.unattributed_ms"] = statistics.median(unit[UNIT] for unit in by_unit) * 1e3
    out["trace.overhead_frac"] = sum(res["traced_s"]) / sum(res["unit_s"]) - 1.0
    return out
