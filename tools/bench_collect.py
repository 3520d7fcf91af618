"""Collect paired perfbench results into one BENCH_<tag>.json.

    python3 tools/bench_collect.py PARENT/.perfbench/results CHANGE/.perfbench/results \
        --tag TAG --out BENCH_TAG.json

Each directory holds the ``<workload>-seed<n>-trace<t>.json`` records that
``perfbench/run.py`` writes.  A pair is the parent's and the change's
record of one (workload, seed, trace); runs whose seed has no partner are
listed and left out.  Run the pairs yourself, alternating which side runs
first, with the same ``--seconds`` on both sides.

For each workload and trace level, and each metric both sides report,
the output gives each side's values in seed order, their median and
quartiles (inclusive method), the relative change of the medians and the
pairs the change won (by the direction BENCHMARK.json gives; ties count
for neither side).  The raw, uncorrected end-to-end timings appear as
``raw.<metric>``.  It also gives attempted and failed units, the median
``loop_wall_s`` (the run's wall time including the per-unit checks),
whether the deterministic counters are identical seed by seed, and each
side's environment.  Each side's build is its ``src_sha256``: the tool
exits 1 if a side mixes two builds or if both sides ran the same one.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = re.compile(r"(?P<workload>.+)-seed(?P<seed>-?\d+)-trace(?P<trace>[01])\.json")


def read_records(results: Path) -> dict:
    """{(workload, trace): {seed: record}} for every result file in ``results``."""
    out: dict = {}
    for path in sorted(results.glob("*.json")):
        m = RECORD.fullmatch(path.name)
        if m is None:
            continue
        key = (m["workload"], int(m["trace"]))
        out.setdefault(key, {})[int(m["seed"])] = json.loads(path.read_text())
    return out


def _values(record: dict) -> dict:
    values = dict(record["metrics"])
    for name, value in record["summary"].get("raw", {}).items():
        values["raw." + name] = value
    return values


def _spread(values: list) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def _wins(parent: list, change: list, better: str | None):
    if better is None:
        return None
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def builds(records: dict) -> set:
    """The ``src_sha256`` of every record read by `read_records`."""
    return {r["environment"].get("src_sha256") for runs in records.values() for r in runs.values()}


def _environment(records: list) -> dict:
    envs = [{k: v for k, v in r["environment"].items() if k != "seed"} for r in records]
    return envs[0] if all(e == envs[0] for e in envs) else {"differs_by_run": envs}


def compare(parent: dict, change: dict, better: dict) -> dict:
    """One entry per (workload, trace) that both sides ran."""
    out: dict = {}
    for key in sorted(parent.keys() & change.keys()):
        workload, trace = key
        seeds = sorted(parent[key].keys() & change[key].keys())
        if not seeds:
            continue
        p_runs = [parent[key][s] for s in seeds]
        c_runs = [change[key][s] for s in seeds]
        p_vals, c_vals = [_values(r) for r in p_runs], [_values(r) for r in c_runs]
        metrics = {}
        for name in sorted(set.intersection(*(set(v) for v in p_vals + c_vals))):
            p = [float(v[name]) for v in p_vals]
            c = [float(v[name]) for v in c_vals]
            direction = better.get(name.removeprefix("raw."))
            pm, cm = statistics.median(p), statistics.median(c)
            metrics[name] = {
                "better": direction,
                "parent": _spread(p),
                "change": _spread(c),
                "relative_change": (cm - pm) / pm if pm else None,
                "change_wins": _wins(p, c, direction),
            }
        counters = {
            str(s): {"parent": pr["counters"], "change": cr["counters"]}
            for s, pr, cr in zip(seeds, p_runs, c_runs)
        }
        identical = all(v["parent"] == v["change"] for v in counters.values())
        out.setdefault(workload, {})[f"trace{trace}"] = {
            "seeds": seeds,
            "pairs": len(seeds),
            "unpaired_seeds": {
                "parent": sorted(parent[key].keys() - change[key].keys()),
                "change": sorted(change[key].keys() - parent[key].keys()),
            },
            "units": {
                "parent": [r["summary"]["units"] for r in p_runs],
                "change": [r["summary"]["units"] for r in c_runs],
            },
            "attempted": {
                "parent": sum(r["summary"]["attempted"] for r in p_runs),
                "change": sum(r["summary"]["attempted"] for r in c_runs),
            },
            "failed": {
                "parent": sum(r["summary"]["failed"] for r in p_runs),
                "change": sum(r["summary"]["failed"] for r in c_runs),
            },
            "loop_wall_s": {
                "parent": statistics.median(r["summary"]["loop_wall_s"] for r in p_runs),
                "change": statistics.median(r["summary"]["loop_wall_s"] for r in c_runs),
            },
            "metrics": metrics,
            "counters_identical": identical,
            "counters": (
                {s: v["parent"] for s, v in counters.items()} if identical else counters
            ),
            "environment": {"parent": _environment(p_runs), "change": _environment(c_runs)},
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="the parent's .perfbench/results directory")
    ap.add_argument("change", type=Path, help="the change's .perfbench/results directory")
    ap.add_argument("--tag", required=True)
    ap.add_argument("--out", type=Path, default=None, help="default: BENCH_<tag>.json")
    args = ap.parse_args(argv)

    for side in (args.parent, args.change):
        if not side.is_dir():
            print(f"error: {side} is not a directory", file=sys.stderr)
            return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = read_records(args.parent), read_records(args.change)
    workloads = compare(parent, change, better)
    if not workloads:
        print("error: no (workload, seed, trace) appears on both sides", file=sys.stderr)
        return 1
    shas = {}
    for name, side, records in (("parent", args.parent, parent), ("change", args.change, change)):
        found = builds(records)
        if len(found) > 1:
            print(f"error: {side} mixes builds: src_sha256 {', '.join(sorted(map(str, found)))}",
                  file=sys.stderr)
            return 1
        shas[name] = found.pop()
    if shas["parent"] == shas["change"]:
        print(f"error: both sides ran the same build: src_sha256 {shas['parent']}", file=sys.stderr)
        return 1
    out = args.out or Path(f"BENCH_{args.tag}.json")
    out.write_text(json.dumps({"tag": args.tag, "src_sha256": shas, "workloads": workloads}, indent=1) + "\n")
    for workload, levels in workloads.items():
        for level, entry in levels.items():
            wall = entry["loop_wall_s"]
            print(f"{workload:18s} {level} {'loop_wall_s':36s} {wall['parent']:>12.4g} -> {wall['change']:>12.4g}")
            for name, m in entry["metrics"].items():
                if m["change_wins"] is None or name.startswith("raw."):
                    continue
                print(f"{workload:18s} {level} {name:36s} {m['parent']['median']:>12.4g} -> "
                      f"{m['change']['median']:>12.4g}  wins {m['change_wins']}/{entry['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
