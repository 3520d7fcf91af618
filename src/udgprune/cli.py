"""Command-line front end.

Subcommands: geom-check (geometry self-test CSV), run-rule2 (one pruning
run as JSON), local-coverage (colored-sample trials as CSV + summary
JSON), sweep (trial CSV from a JSON config), verify (CDS check for a
graph file).  All randomness flows from explicit --seed flags and timing
fields are zero unless --emit-timings is given, so identical invocations
produce identical bytes.  Files are written atomically.

Exit codes: 0 success, 1 usage/validation error, 2 a geom-check row
that fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from statistics import NormalDist

import numpy as np

from . import geometry as geo
from . import harness as hz
from . import local_coverage as lc
from . import rgg
from . import rule2
from .util import atomic_write_text, csv_text, derived_seed

__all__ = ["main"]


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(out, text)


# ---------------------------------------------------------------- geom-check

# Monte Carlo oracle checks in row order; the k-th (from 1) seeds its oracle with tag k
_ORACLE_KINDS = ("lens", "triple", "truncated", "omitted")


def _oracle_case(kind: str, rng: np.random.Generator):
    """One random configuration of oracle check ``kind``: (exact area,
    inside centres, outside centres, sampling box)."""
    if kind == "lens":
        d = float(rng.uniform(0.0, 2.2))
        return geo.lens_area(d), ((0.0, 0.0), (d, 0.0)), (), (-1.0, 1.0 + d, -1.0, 1.0)
    if kind == "truncated":
        sq = geo.SquareRegion(float(rng.uniform(2.0, 6.0)))
        o = rng.uniform(0.0, sq.side, 2)
        return geo.truncated_disk_area(o, sq), (o,), (), geo._disk_square_bounds(o, sq)
    reach = 1.2 if kind == "triple" else 1.0
    o = rng.uniform(0.0, 1.0, 2)
    q = o + rng.uniform(-reach, reach, 2)
    u = o + rng.uniform(-reach, reach, 2)
    box = (o[0] - 1, o[0] + 1, o[1] - 1, o[1] + 1)
    if kind == "triple":
        return geo.triple_disk_intersection_area(o, q, u), (o, q, u), (), box
    return geo.omitted_area(o, q, u), (o,), (q, u), box


def _geom_rows(seed: int, configs: int, samples: int) -> list[tuple[str, float, float, bool]]:
    rng = np.random.default_rng(seed)
    rows: list[tuple[str, float, float]] = []
    # Sidak bound: the largest of `configs` |z| exceeds it as often as one |z| exceeds 3
    z_bound = NormalDist().inv_cdf(0.5 + 0.5 * (1 - 0.0027) ** (1 / configs))
    for tag, kind in enumerate(_ORACLE_KINDS, start=1):
        zs = []
        for k in range(configs):
            exact, inside, outside, box = _oracle_case(kind, rng)
            member = geo.region_membership(inside, outside)
            est = geo.mc_area_oracle(member, box, samples, seed=derived_seed(seed, tag, k))
            if est.std_error > 0:
                zs.append(abs(exact - est.value) / est.std_error)
            elif abs(exact - est.value) > (box[1] - box[0]) * (box[3] - box[2]) * math.log(1 / 0.0027) / samples:
                # all misses (or all hits) when the region (or its complement)
                # has area a happen with probability at most
                # exp(-samples * a / box area), below 0.0027 past this gap
                zs.append(math.inf)
        # nan, which fails, if no configuration had a nonzero standard error
        # and none failed outright
        rows.append((f"{kind}_vs_oracle_max_z", max(zs, default=math.nan), z_bound))

    # closed-form identities for the two-points-on-a-circle lens term
    diff0 = max(
        abs(geo.on_circle_pair_lens(d, 0.0) - geo.lens_area(2.0 * d))
        for d in rng.uniform(0.01, 0.9, 20)
    )
    rows.append(("pair_lens_form_phi0_maxdiff", diff0, 1e-12))
    diffpi = max(abs(geo.on_circle_pair_lens(d, math.pi) - math.pi) for d in rng.uniform(0.01, 0.9, 20))
    rows.append(("pair_lens_form_phipi_maxdiff", diffpi, 1e-12))

    # radial monotonicity
    worst = 0.0
    for _ in range(200):
        o = rng.uniform(-1, 1, 2)
        ang = rng.uniform(0, 2 * math.pi, 2)
        rad = rng.uniform(0, 1, 2)
        q2 = o + rad[0] * np.array([math.cos(ang[0]), math.sin(ang[0])])
        u2 = o + rad[1] * np.array([math.cos(ang[1]), math.sin(ang[1])])
        t = rng.uniform(0, 1, 2)
        worst = max(worst, geo.omitted_area(o, o + t[0] * (q2 - o), o + t[1] * (u2 - o)) - geo.omitted_area(o, q2, u2))
    rows.append(("radial_monotonicity_max_violation", worst, 1e-9))

    # angular monotonicity
    worst = 0.0
    for _ in range(40):
        delta = float(rng.uniform(1e-3, 0.2))
        vals = [geo.omitted_area_at_angle(delta, p) for p in np.sort(rng.uniform(0, math.pi, 16))]
        worst = max(worst, max(0.0, -min(np.diff(vals))))
    rows.append(("angular_monotonicity_max_violation", worst, 1e-9))

    # extreme-pair dominance within a sector pair
    worst = 0.0
    for _ in range(200):
        frame = geo.SectorFrame(geo.Point2D(0.0, 0.0), int(10 ** rng.uniform(3, 5)))
        i = int(rng.integers(0, frame.count))
        ext = geo.extreme_points(frame, i)
        r1, r2 = frame.delta * np.sqrt(rng.uniform(0, 1, 2))
        a1 = (i + rng.uniform(-0.5, 0.5)) * frame.theta
        a2 = (i + rng.uniform(-0.5, 0.5)) * frame.theta + math.pi
        q = (r1 * math.cos(a1), r1 * math.sin(a1))
        u = (r2 * math.cos(a2), r2 * math.sin(a2))
        worst = max(worst, geo.omitted_area((0, 0), q, u) - geo.omitted_area((0, 0), *ext))
    rows.append(("extreme_pair_max_violation", worst, 1e-9))

    # scaling of the extreme omitted area with the size parameter
    vals = []
    for b in (10**3, 10**4, 10**5, 10**6):
        frame = geo.SectorFrame(geo.Point2D(0.0, 0.0), b)
        ext = geo.extreme_points(frame, 0)
        vals.append(geo.omitted_area(frame.center, *ext) * b * math.log(b) ** 3)
    rows.append(("extreme_area_scaling_ratio", max(vals) / min(vals), 10.0))

    # clipping can only shrink the omitted region
    violations = 0
    for k in range(50):
        side = float(rng.uniform(2.0, 4.0))
        sq = geo.SquareRegion(side)
        o = np.array([rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)])
        q = o + rng.uniform(-1, 1, 2)
        u = o + rng.uniform(-1, 1, 2)
        est = geo.truncated_omitted_area(o, q, u, sq, samples=max(10_000, samples // 10), seed=derived_seed(seed, 99, k))
        if est.value > geo.omitted_area(o, q, u) + 3.0 * est.std_error:
            violations += 1
    rows.append(("clipped_exceeds_full_count", float(violations), 0.0))

    return [(name, float(stat), bound, float(stat) <= bound) for name, stat, bound in rows]


def _cmd_geom_check(args) -> int:
    if args.configs < 1:
        raise ValueError(f"--configs must be >= 1, got {args.configs}")
    rows = _geom_rows(args.seed, args.configs, args.samples)
    _emit(csv_text(["check", "statistic", "bound", "pass"], rows), args.out)
    return 0 if all(ok for *_, ok in rows) else 2


# ----------------------------------------------------------------- run-rule2

def _cmd_run_rule2(args) -> int:
    sampled = (args.n, args.side, args.seed)
    if args.graph is not None:
        if sampled != (None, None, None):
            raise ValueError("--graph takes n, side and seed from the file: drop --n, --side and --seed")
        res = hz.graph_trial(rgg.load_graph(args.graph))
    elif None in sampled:
        raise ValueError("need --graph FILE or all of --n, --side, --seed")
    else:
        res = hz.run_trial(*sampled)
    payload = {
        "n": res.n,
        "side": res.side,
        "seed": res.seed,
        "cds_size": res.cds_size,
        "pruned": res.n - res.cds_size,
        "dominating": res.report.dominating,
        "component_preserving": res.report.component_preserving,
        "millis": round(res.runtime_ms, 3) if args.emit_timings else 0,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


# ------------------------------------------------------------- local-coverage

def _cmd_local_coverage(args) -> int:
    center = (args.ox, args.oy)
    square = geo.SquareRegion(args.side)
    if args.w < 0 or args.b < 1 or args.trials < 1:
        raise ValueError("need w >= 0, b >= 1, trials >= 1")
    records = []  # (tau, Z, Y, X_b, pair_found) per trial
    for sample in lc.colored_trials(center, square, args.w, args.b, args.trials, args.seed):
        stats = lc.sector_stats(sample)
        xb = lc.x_b_indicator(sample, stats)
        found, _ = lc.blue_pair_dominates(sample)
        records.append((stats.tau, stats.core_blue, stats.first_match, xb, found))
    columns = ["trial", "tau", "Z", "Y", "X_b", "pair_found"]
    _emit(csv_text(columns, ((t, *rec) for t, rec in enumerate(records))), args.out)
    tau_sum, z_sum, _, xb_sum, hits = map(sum, zip(*records))
    pair = lc.CoverageEstimate.of(hits, args.trials)
    summary = {
        "b": args.b,
        "w": args.w,
        "trials": args.trials,
        "seed": args.seed,
        "pair_dominates_rate": pair.estimate,
        "pair_dominates_wilson95": [pair.wilson_low, pair.wilson_high],
        "mean_tau": tau_sum / args.trials,
        "mean_core_blue": z_sum / args.trials,
        "x_b_rate": xb_sum / args.trials,
    }
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return 0


# ----------------------------------------------------------------------- sweep

def _cmd_sweep(args) -> int:
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {args.config} is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    config = hz.SweepConfig.from_dict(data)
    if args.parallel < 1:
        raise ValueError(f"--parallel must be >= 1, got {args.parallel}")
    rows = hz.sweep(config, parallel=args.parallel, emit_timings=args.emit_timings)
    _emit(hz.sweep_rows_to_csv(rows), args.out)
    sys.stdout.write(json.dumps({"aggregates": hz.aggregate_rows(rows)}, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------- verify

def _cmd_verify(args) -> int:
    g = rgg.load_graph(args.graph)
    if args.cds is not None:
        with open(args.cds) as fh:
            tokens = fh.read().split()
        ids = []
        for k, tok in enumerate(tokens, start=1):
            try:
                ids.append(int(tok))
            except ValueError:
                raise ValueError(f"bad vertex id in {args.cds}: token {k}: {tok!r}") from None
        cds = rule2.GatewaySet(members=tuple(sorted(ids)))
        source = "file"
    else:
        cds = rule2.prune(g)
        source = "rule2"
    report = rule2.verify_cds(g, cds)
    payload = {
        "n": g.n,
        "cds_source": source,
        "cds_size": cds.size,
        "dominating": report.dominating,
        "component_preserving": report.component_preserving,
        "components_graph": report.components_graph,
        "components_induced": report.components_induced,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


# ------------------------------------------------------------------ arg parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udgprune",
        description="Rule 2 pruning on random unit disk graphs, with coverage-geometry self checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("geom-check", help="run geometry self-tests, emit CSV of (check,statistic,bound,pass)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--configs", type=int, default=20, help="random configurations per oracle check")
    p.add_argument("--samples", type=int, default=200_000, help="Monte Carlo samples per configuration")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_geom_check)

    p = sub.add_parser("run-rule2", help="prune one graph and report JSON")
    p.add_argument("--graph", default=None, help="graph file (header 'n side seed', lines 'id x y')")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--side", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--emit-timings", action="store_true", help="fill millis with wall time (breaks byte reproducibility)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_run_rule2)

    p = sub.add_parser("local-coverage", help="colored-sample coverage trials: CSV rows + summary JSON")
    p.add_argument("--b", type=int, required=True, help="blue point count")
    p.add_argument("--w", type=int, required=True, help="white point count")
    p.add_argument("--ox", type=float, required=True)
    p.add_argument("--oy", type=float, required=True)
    p.add_argument("--side", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="per-trial CSV path (default stdout)")
    p.set_defaults(func=_cmd_local_coverage)

    p = sub.add_parser("sweep", help="run a JSON-configured trial sweep, emit fixed-schema CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--parallel", type=int, default=os.cpu_count() or 1, help="worker processes (default: cpu count; 1 = in-process)")
    p.add_argument("--emit-timings", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="check a CDS (from file, or freshly pruned) against a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--cds", default=None, help="whitespace-separated vertex ids; default: prune the graph first")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
