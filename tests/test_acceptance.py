"""Release acceptance suite.

One test per criterion, each printing a `[acceptance]` PASS/FAIL line
(run with `pytest -s tests/test_acceptance.py -v` to watch them).  Every
tolerance and seed is frozen here; Monte Carlo comparisons use three
standard errors, exact paths use 1e-9 or 1e-12 as stated.

The asymptotic statements themselves are checked as directional or
shape properties at reachable sizes.  One literal transcription (the
matched-sector mean at b=1e5) compares against a formula that is the
exact mean's leading term only at log exponent 2.0, not the experiment's
1.5; it is kept as a strict expected failure with the analysis attached,
and its mechanism is validated at a small size instead.
"""

import json
import math
import time

import numpy as np
import pytest

from udgprune import geometry as geo
from udgprune import harness as hz
from udgprune import local_coverage as lc
from udgprune import rgg, rule2
from udgprune.cli import main as cli_main
from udgprune.geometry import Point2D, SectorFrame, SquareRegion
from udgprune.util import derived_seed

MASTER = 20250809  # recorded; all acceptance randomness derives from it


def _announce(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status}" + (f" ({detail})" if detail else ""))


# ------------------------------------------------------------------ 1


def test_c01_geometry_matches_oracle():
    """lens, triple-disk, truncated-disk, and omitted areas each agree with
    the hit-or-miss oracle (1e6 samples) within 3 sigma on 50 configs."""
    t0 = time.time()
    rng = np.random.default_rng(MASTER)
    worst = 0.0

    def check(exact, member, bounds, tag, k):
        nonlocal worst
        est = geo.mc_area_oracle(member, bounds, 10**6, derived_seed(MASTER, tag, k))
        if est.std_error > 0:
            z = abs(exact - est.value) / est.std_error
            worst = max(worst, z)
            assert z <= 3.0, (tag, k, exact, est)

    for k in range(50):
        d = float(rng.uniform(0.0, 2.2))
        member = geo.region_membership(((0.0, 0.0), (d, 0.0)), ())
        check(geo.lens_area(d), member, (-1.0, 1.0 + d, -1.0, 1.0), 1, k)
    for k in range(50):
        o = rng.uniform(0.0, 1.0, 2)
        q = o + rng.uniform(-1.2, 1.2, 2)
        u = o + rng.uniform(-1.2, 1.2, 2)
        check(
            geo.triple_disk_intersection_area(o, q, u),
            geo.region_membership((o, q, u), ()),
            (o[0] - 1, o[0] + 1, o[1] - 1, o[1] + 1),
            2,
            k,
        )
    for k in range(50):
        side = float(rng.uniform(2.0, 6.0))
        sq = SquareRegion(side)
        o = rng.uniform(0.0, side, 2)
        check(
            geo.truncated_disk_area(o, sq),
            geo.region_membership((o,), ()),
            (max(0, o[0] - 1), min(side, o[0] + 1), max(0, o[1] - 1), min(side, o[1] + 1)),
            3,
            k,
        )
    for k in range(50):
        o = rng.uniform(0.0, 1.0, 2)
        q = o + rng.uniform(-1.0, 1.0, 2)
        u = o + rng.uniform(-1.0, 1.0, 2)
        check(
            geo.omitted_area(o, q, u),
            geo.region_membership((o,), (q, u)),
            (o[0] - 1, o[0] + 1, o[1] - 1, o[1] + 1),
            4,
            k,
        )

    elapsed = time.time() - t0
    _announce("geometry-vs-oracle", True, f"worst z={worst:.2f} over 200 configs, {elapsed:.0f}s")
    assert elapsed <= 120.0


# ------------------------------------------------------------------ 2


def test_c02_closed_form_identities():
    """The on-circle pair-lens closed form: equals lens_area(2 delta) at
    phi2=0 and pi at phi2=pi, both to 1e-12, for 20 random radii."""
    rng = np.random.default_rng(derived_seed(MASTER, 20))
    worst0 = worstpi = 0.0
    for _ in range(20):
        delta = float(rng.uniform(0.01, 0.9))
        worst0 = max(worst0, abs(geo.on_circle_pair_lens(delta, 0.0) - geo.lens_area(2 * delta)))
        worstpi = max(worstpi, abs(geo.on_circle_pair_lens(delta, math.pi) - math.pi))
    ok = worst0 <= 1e-12 and worstpi <= 1e-12
    _announce("closed-form-identities", ok, f"maxdiff phi0={worst0:.2e} phipi={worstpi:.2e}")
    assert ok


# ------------------------------------------------------------------ 3


def test_c03_monotonicity_suites():
    """Radial/angular monotonicity, extreme-pair dominance, and the
    clipping bound: zero violations beyond 1e-9 (exact) or 3 sigma (MC)."""
    t0 = time.time()
    rng = np.random.default_rng(derived_seed(MASTER, 30))

    worst_radial = 0.0
    for _ in range(1000):
        o = rng.uniform(-2.0, 2.0, 2)
        ang = rng.uniform(0.0, 2 * math.pi, 2)
        rad = np.sqrt(rng.uniform(0.0, 1.0, 2))
        q2 = o + rad[0] * np.array([math.cos(ang[0]), math.sin(ang[0])])
        u2 = o + rad[1] * np.array([math.cos(ang[1]), math.sin(ang[1])])
        t = rng.uniform(0.0, 1.0, 2)
        worst_radial = max(
            worst_radial,
            geo.omitted_area(o, o + t[0] * (q2 - o), o + t[1] * (u2 - o)) - geo.omitted_area(o, q2, u2),
        )
    assert worst_radial <= 1e-9

    worst_angular = 0.0
    for _ in range(100):
        delta = float(rng.uniform(1e-4, 0.2))
        grid = np.sort(rng.uniform(0.0, math.pi, 24))
        vals = [geo.omitted_area_at_angle(delta, p) for p in grid]
        worst_angular = max(worst_angular, max(0.0, -min(np.diff(vals))))
    assert worst_angular <= 1e-9

    worst_extreme = 0.0
    for _ in range(1000):
        frame = SectorFrame(Point2D(0.0, 0.0), int(10 ** rng.uniform(3.0, 5.0)))
        i = int(rng.integers(0, frame.count))
        bound = geo.omitted_area(frame.center, *geo.extreme_points(frame, i))
        r1, r2 = frame.delta * np.sqrt(rng.uniform(0.0, 1.0, 2))
        a1 = (i + rng.uniform(-0.5, 0.5)) * frame.theta
        a2 = (i + rng.uniform(-0.5, 0.5)) * frame.theta + math.pi
        q = (r1 * math.cos(a1), r1 * math.sin(a1))
        u = (r2 * math.cos(a2), r2 * math.sin(a2))
        worst_extreme = max(worst_extreme, geo.omitted_area(frame.center, q, u) - bound)
    assert worst_extreme <= 1e-9

    clip_violations = 0
    for k in range(200):
        side = float(rng.uniform(2.0, 5.0))
        sq = SquareRegion(side)
        o = (float(rng.uniform(0.0, 0.9)), float(rng.uniform(0.0, side)))
        q = (o[0] + rng.uniform(-1, 1), o[1] + rng.uniform(-1, 1))
        u = (o[0] + rng.uniform(-1, 1), o[1] + rng.uniform(-1, 1))
        est = geo.truncated_omitted_area(o, q, u, sq, samples=100_000, seed=derived_seed(MASTER, 31, k))
        if est.value > geo.omitted_area(o, q, u) + 3.0 * est.std_error:
            clip_violations += 1
    assert clip_violations == 0

    elapsed = time.time() - t0
    _announce(
        "monotonicity-suites",
        True,
        f"radial {worst_radial:.1e}, angular {worst_angular:.1e}, extreme {worst_extreme:.1e}, "
        f"clip violations 0/200, {elapsed:.0f}s",
    )
    assert elapsed <= 180.0


# ------------------------------------------------------------------ 4


def test_c04_extreme_area_scaling():
    """The extreme omitted area times b ln^3 b stays within one decade
    across b = 1e3..1e6."""
    vals = []
    for b in (10**3, 10**4, 10**5, 10**6):
        frame = SectorFrame(Point2D(0.0, 0.0), b)
        x = geo.omitted_area(frame.center, *geo.extreme_points(frame, 0))
        assert x > 0.0
        vals.append(float(x * b * math.log(b) ** 3))
    ratio = max(vals) / min(vals)
    _announce("extreme-area-scaling", ratio <= 10.0, f"ratio={ratio:.2f}, values={[round(v, 3) for v in vals]}")
    assert ratio <= 10.0


# ------------------------------------------------------------------ 5


def test_c05_rule2_oracle_equivalence():
    """Fast pruning equals the literal triple-loop oracle on 500 seeded
    graphs with n <= 30."""
    t0 = time.time()
    rng = np.random.default_rng(derived_seed(MASTER, 50))
    for k in range(500):
        n = int(rng.integers(2, 31))
        side = float(rng.uniform(1.5, 4.5))
        sq = SquareRegion(side)
        pts = rgg.sample_points(n, sq, seed=derived_seed(MASTER, 51, k))
        g = rgg.build_udg(pts, sq)
        assert rule2.prune(g).members == rule2.brute_force_prune(g).members, k
    elapsed = time.time() - t0
    _announce("rule2-oracle-equivalence", True, f"500 graphs, {elapsed:.0f}s")
    assert elapsed <= 60.0


# ------------------------------------------------------------------ 6


def test_c06_cds_correctness():
    """The pruned set is dominating and component-preserving on all 200
    seeded trials at n=500 plus the hand fixtures."""
    t0 = time.time()
    n = 500
    side = rgg.ell_sqrt(n)
    sq = SquareRegion(side)
    for k in range(200):
        g = rgg.build_udg(rgg.sample_points(n, sq, seed=derived_seed(MASTER, 60, k)), sq)
        report = rule2.verify_cds(g, rule2.prune(g))
        assert report.dominating and report.component_preserving, k

    fixtures = [
        np.array([[1.0, 1.0]]),
        np.array([[1.0, 1.0], [1.8, 1.0], [1.4, 1.5]]),               # triangle
        np.array([[1.0, 1.0], [1.9, 1.0], [2.8, 1.0]]),               # path
        np.array([[1.0, 1.0], [1.5, 1.0], [6.0, 6.0]]),               # pair + isolated
        np.array([[1.0, 1.0], [1.5, 1.0], [6.0, 6.0], [6.5, 6.0]]),   # two pairs
    ]
    for pts in fixtures:
        g = rgg.build_udg(pts, SquareRegion(10.0))
        report = rule2.verify_cds(g, rule2.prune(g))
        assert report.dominating and report.component_preserving
    _announce("cds-correctness", True, f"200 trials + {len(fixtures)} fixtures, {time.time()-t0:.0f}s")


# ------------------------------------------------------------------ 7


def test_c07_adjacency_oracle():
    """Cell-join adjacency equals all-pairs brute force on 50 graphs
    up to n=3000."""
    t0 = time.time()
    rng = np.random.default_rng(derived_seed(MASTER, 70))
    for k in range(50):
        n = int(rng.integers(200, 3001))
        side = float(rng.uniform(3.0, 25.0))
        sq = SquareRegion(side)
        pts = rgg.sample_points(n, sq, seed=derived_seed(MASTER, 71, k))
        g = rgg.build_udg(pts, sq)
        expected = rgg.brute_force_edges(pts)
        assert np.array_equal(g.edges, expected), (k, n, side)
    _announce("adjacency-oracle", True, f"50 graphs n<=3000, {time.time()-t0:.0f}s")


# ------------------------------------------------------------------ 8


def test_c08_coverage_trend():
    """With w=b and an interior center, the failure rate of two-blue-disk
    domination is non-increasing across b = 1e3, 1e4, 1e5 after CI
    adjustment (200 trials per point)."""
    t0 = time.time()
    sq = SquareRegion(10.0)
    center = (5.0, 5.0)
    points = []
    for tag, b in enumerate((10**3, 10**4, 10**5)):
        est = lc.local_coverage_probability(center, sq, w=b, b=b, trials=200, seed=derived_seed(MASTER, 80, tag))
        points.append((b, 1.0 - est.estimate, est))
    ok = True
    for (b1, f1, e1), (b2, f2, e2) in zip(points, points[1:]):
        ci = 1.96 * math.sqrt(f1 * (1 - f1) / e1.trials + f2 * (1 - f2) / e2.trials)
        ok = ok and f2 <= f1 + max(ci, 1e-9)
    elapsed = time.time() - t0
    detail = ", ".join(f"b={b}: fail={f:.3f}" for b, f, _ in points)
    _announce("coverage-trend", ok, f"{detail}, {elapsed:.0f}s")
    assert ok
    assert elapsed <= 600.0


# ------------------------------------------------------------------ 9


@pytest.mark.xfail(
    strict=True,
    reason=(
        "b^(1/3) density^2 / (4 ln^6 b) is the mean's leading term only for "
        "sectors counted with (ln b)^2; with the experiment's exponent 1.5 the "
        "exact mean is 3.39 times the formula at b=1e5 (see "
        "test_c09_exact_mean_against_formula), so no number of trials closes "
        "the gap, and 200 trials see a mean of 0 almost surely; kept as the "
        "literal criterion with the mechanism validated separately below"
    ),
)
def test_c09_matched_sector_mean_literal():
    """Literal transcription: empirical mean matched-sector count at
    b=1e5 over 200 trials within 30% of b^(1/3) density^2 / (4 ln^6 b)."""
    b = 10**5
    sq = SquareRegion(10.0)
    center = (5.0, 5.0)
    lam = lc.clipped_disk_density(center, sq)
    expected = b ** (1 / 3) * lam**2 / (4.0 * math.log(b) ** 6)
    taus = []
    for t in range(200):
        s = lc.sample_colored(center, sq, w=b, b=b, seed=derived_seed(MASTER, 90, t))
        taus.append(lc.sector_stats(s).tau)
    emp = float(np.mean(taus))
    _announce(
        "matched-sector-mean(literal)",
        abs(emp - expected) <= 0.3 * expected,
        f"emp={emp:.2e} vs formula={expected:.2e}",
    )
    assert abs(emp - expected) <= 0.3 * expected


def _exact_mean_tau(b, log_exponent):
    """E tau = L b(b-1) p^2 (1-2p)^(b-2), p = delta^2 / (2L), for an
    interior centre, where each sector holds a blue point w.p. p and
    L = floor(b^(1/3) (ln b)^log_exponent); `SectorFrame` counts at 1.5."""
    frame = SectorFrame(Point2D(0.0, 0.0), b)
    L = math.floor(b ** (1.0 / 3.0) * math.log(b) ** log_exponent)
    assert log_exponent != 1.5 or L == frame.count
    p = frame.delta**2 / (2 * L)
    return L * b * (b - 1) * p**2 * math.exp((b - 2) * math.log1p(-2 * p))


def test_c09_exact_mean_against_formula():
    """The formula b^(1/3) / (4 ln^6 b) is the exact matched-sector mean's
    leading term at log exponent 2.0, and at least 2.5 times too small at
    the experiment's 1.5, up to b = 1e12."""
    for b in (10**3, 10**5, 10**8, 10**12):
        formula = b ** (1 / 3) / (4.0 * math.log(b) ** 6)
        assert abs(_exact_mean_tau(b, 2.0) / formula - 1.0) <= 2e-3, b
        assert _exact_mean_tau(b, 1.5) / formula >= 2.5, b


def test_c09_matched_sector_mean_mechanism():
    """Mechanism check at a size where the count is observable: the
    empirical matched-sector mean at b=10 matches the exact binomial law
    within 3 sigma and within 30%."""
    t0 = time.time()
    sq = SquareRegion(10.0)
    center = (5.0, 5.0)
    b = 10
    exact = _exact_mean_tau(b, 1.5)
    trials = 20_000
    taus = np.empty(trials)
    for t in range(trials):
        s = lc.sample_colored(center, sq, 0, b, seed=derived_seed(MASTER, 91, t))
        taus[t] = lc.sector_stats(s).tau
    emp = taus.mean()
    se = taus.std(ddof=1) / math.sqrt(trials)
    ok = abs(emp - exact) <= 3.0 * se and abs(emp - exact) <= 0.3 * exact
    _announce(
        "matched-sector-mean(mechanism)",
        ok,
        f"b=10: emp={emp:.5f} exact={exact:.5f} z={(emp-exact)/se:+.2f}, {time.time()-t0:.0f}s",
    )
    assert ok


# ------------------------------------------------------------------ 10


def test_c10_event_frequencies():
    """Interior-margin frequency matches its exact probability within 3
    binomial sigma at n=5000; the concentration floor is respected minus
    0.05 wherever it is positive (vacuously at n=5000, and substantively
    in a crowded regime)."""
    t0 = time.time()
    n = 5000
    side = rgg.ell_sqrt(n)
    sq = SquareRegion(side)
    sch = hz.make_schedule(n, side, "sqrt")
    g = rgg.build_udg(rgg.sample_points(n, sq, seed=derived_seed(MASTER, 100)), sq)
    stats = hz.all_vertex_stats(g, sch)
    p = max(0.0, side - 2 * sch.margin) ** 2 / side**2
    emp = float(stats.interior.mean())
    se = math.sqrt(p * (1 - p) / n)
    assert abs(emp - p) <= 3.0 * se

    rep_small = hz.concentration_check(g, sch)
    assert rep_small.ok  # floor negative everywhere: vacuous pass, reported

    n2, side2 = 40_000, 12.0
    sq2 = SquareRegion(side2)
    sch2 = hz.Schedule(n=n2, ell=side2, alpha=hz.default_alpha(n2, "power"))
    g2 = rgg.build_udg(rgg.sample_points(n2, sq2, seed=derived_seed(MASTER, 101)), sq2)
    rep_big = hz.concentration_check(g2, sch2)
    assert not rep_big.vacuous and rep_big.ok

    _announce(
        "event-frequencies",
        True,
        f"interior z={(emp-p)/se:+.2f}; floor vacuous at n=5000 (checked=0), "
        f"crowded regime rate={rep_big.empirical_rate:.4f} >= floor {rep_big.mean_bound:.3f}-0.05 "
        f"on {rep_big.checked} vertices, {time.time()-t0:.0f}s",
    )


# ------------------------------------------------------------------ 11


def test_c11_pruning_trend():
    """Across n = 2000, 8000, 32000 at side sqrt(n/ln n), 10 seeds each:
    the mean pruned fraction is non-decreasing, the CDS beats the
    quarter-side-squared floor in >= 95% of trials at the largest n, and
    the scaling ratio is reported."""
    t0 = time.time()
    config = hz.SweepConfig.from_dict(
        {
            "schedules": [
                {
                    "n": n,
                    "ell_rule": {"kind": "sqrt", "value": 1.0},
                    "trials": 10,
                    "seed": derived_seed(MASTER, 110, n),
                }
                for n in (2000, 8000, 32000)
            ]
        }
    )
    rows = hz.sweep(config, parallel=1)
    aggs = hz.aggregate_rows(rows)
    assert all(agg["all_dominating"] for agg in aggs)

    by_n = {agg["n"]: agg for agg in aggs}
    fracs = [by_n[n]["mean_frac_pruned"] for n in (2000, 8000, 32000)]
    assert fracs[0] <= fracs[1] <= fracs[2], fracs
    assert by_n[32000]["frac_ge_ell2_over_4"] >= 0.95

    elapsed = time.time() - t0
    scaling = {n: round(by_n[n]["mean_cds_over_ell2"], 3) for n in (2000, 8000, 32000)}
    _announce(
        "pruning-trend",
        True,
        f"mean pruned fraction {[round(f, 4) for f in fracs]}, cds/side^2 {scaling}, {elapsed:.0f}s",
    )
    assert elapsed <= 1200.0


# ------------------------------------------------------------------ 12


def test_c12_cli_determinism(tmp_path):
    """Every subcommand produces byte-identical output on rerun, and the
    sweep does so across parallelism settings."""
    t0 = time.time()

    def run_twice(args, outname):
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{outname}-{tag}"
            assert cli_main(args + ["--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], args
        return blobs[0]

    run_twice(["geom-check", "--seed", "3", "--configs", "4", "--samples", "20000"], "geom")
    run_twice(["run-rule2", "--n", "400", "--side", "12", "--seed", "5"], "rule2")
    run_twice(
        [
            "local-coverage",
            "--b", "1000", "--w", "1000",
            "--ox", "5", "--oy", "5", "--side", "10",
            "--trials", "10", "--seed", "2",
        ],
        "coverage",
    )

    graph = tmp_path / "graph.txt"
    sq = SquareRegion(8.0)
    rgg.save_graph(rgg.build_udg(rgg.sample_points(150, sq, seed=1), sq, seed=1), graph)
    run_twice(["verify", "--graph", str(graph)], "verify")

    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "schedules": [
                    {
                        "n": 500,
                        "ell_rule": {"kind": "sqrt", "value": 1.0},
                        "trials": 4,
                        "seed": 17,
                    }
                ]
            }
        )
    )
    seq = run_twice(["sweep", "--config", str(cfg), "--parallel", "1"], "sweep-seq")
    par = run_twice(["sweep", "--config", str(cfg)], "sweep-par")  # default parallelism
    assert seq == par

    _announce("cli-determinism", True, f"5 subcommands, parallel 1 == default, {time.time()-t0:.0f}s")
