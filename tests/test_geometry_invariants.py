"""Quantified property suites for the omitted-region geometry.

Each suite draws its configurations from a frozen seed, so reruns are
exact repeats; tolerances are 1e-9 on exact code paths and three
standard errors on Monte Carlo paths.
"""

import math

import numpy as np

from udgprune import geometry as geo


def _random_point_in_disk(rng, center, radius=1.0):
    ang = rng.uniform(0.0, 2.0 * math.pi)
    r = radius * math.sqrt(rng.uniform(0.0, 1.0))
    return (center[0] + r * math.cos(ang), center[1] + r * math.sin(ang))


def test_inclusion_exclusion_matches_oracle():
    # 200 random (o, q, u) with q, u inside the disk about o
    rng = np.random.default_rng(2024)
    for k in range(200):
        o = tuple(rng.uniform(0.0, 3.0, 2))
        q = _random_point_in_disk(rng, o)
        u = _random_point_in_disk(rng, o)
        v = geo.omitted_area(o, q, u)
        assert 0.0 <= v <= math.pi
        est = geo.mc_area_oracle(
            geo.region_membership((o,), (q, u)),
            (o[0] - 1, o[0] + 1, o[1] - 1, o[1] + 1),
            100_000,
            seed=11000 + k,  # recorded; the 3-sigma test has a ~0.3% false-alarm
        )                    # rate per config, so the seed base is pinned
        assert abs(v - est.value) <= 3.0 * est.std_error, (k, v, est)


def test_radial_monotonicity():
    # pulling either point outward along its ray never shrinks the omitted area
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        o = rng.uniform(-2.0, 2.0, 2)
        q2 = np.array(_random_point_in_disk(rng, o))
        u2 = np.array(_random_point_in_disk(rng, o))
        tq, tu = rng.uniform(0.0, 1.0, 2)
        q1 = o + tq * (q2 - o)
        u1 = o + tu * (u2 - o)
        worst = max(worst, geo.omitted_area(o, q1, u1) - geo.omitted_area(o, q2, u2))
    assert worst <= 1e-9, worst


def test_angular_monotonicity():
    # omitted area is non-decreasing in phi2 (non-increasing in the
    # angle between the two centers)
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(100):
        delta = float(rng.uniform(1e-4, 0.2))
        grid = np.sort(rng.uniform(0.0, math.pi, 24))
        vals = [geo.omitted_area_at_angle(delta, p) for p in grid]
        worst = max(worst, max(0.0, -min(np.diff(vals))))
    assert worst <= 1e-9, worst


def test_extreme_pair_dominates_sector_pair():
    # every (q, u) drawn from a sector pair is dominated by the opposed corners
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(1000):
        b = int(10 ** rng.uniform(3.0, 5.0))
        frame = geo.SectorFrame(geo.Point2D(0.0, 0.0), b)
        i = int(rng.integers(0, frame.count))
        ext_q, ext_u = geo.extreme_points(frame, i)
        bound = geo.omitted_area(frame.center, ext_q, ext_u)
        r1, r2 = frame.delta * np.sqrt(rng.uniform(0.0, 1.0, 2))
        a1 = (i + rng.uniform(-0.5, 0.5)) * frame.theta
        a2 = (i + rng.uniform(-0.5, 0.5)) * frame.theta + math.pi
        q = (r1 * math.cos(a1), r1 * math.sin(a1))
        u = (r2 * math.cos(a2), r2 * math.sin(a2))
        worst = max(worst, geo.omitted_area(frame.center, q, u) - bound)
    assert worst <= 1e-9, worst


def test_extreme_area_scaling_stays_bounded():
    # the worst-case omitted area times b ln^3 b stays within one decade
    vals = []
    for b in (10**3, 10**4, 10**5, 10**6):
        frame = geo.SectorFrame(geo.Point2D(0.0, 0.0), b)
        qt, ut = geo.extreme_points(frame, 0)
        x = geo.omitted_area(frame.center, qt, ut)
        assert x > 0.0
        vals.append(x * b * math.log(b) ** 3)
    assert max(vals) <= 10.0 * min(vals), vals


def test_clipping_never_increases_omitted_area():
    # 200 random boundary-adjacent configurations
    rng = np.random.default_rng(14)
    for k in range(200):
        side = float(rng.uniform(2.0, 5.0))
        sq = geo.SquareRegion(side)
        # keep the center near an edge or corner so clipping is active
        o = (float(rng.uniform(0.0, 0.9)), float(rng.uniform(0.0, side)))
        q = (o[0] + rng.uniform(-1.0, 1.0), o[1] + rng.uniform(-1.0, 1.0))
        u = (o[0] + rng.uniform(-1.0, 1.0), o[1] + rng.uniform(-1.0, 1.0))
        est = geo.truncated_omitted_area(o, q, u, sq, samples=100_000, seed=8000 + k)
        assert est.value <= geo.omitted_area(o, q, u) + 3.0 * est.std_error, (k, est)


def test_omitted_area_symmetric_exactly():
    rng = np.random.default_rng(16)
    for _ in range(200):
        o = tuple(rng.uniform(-1.0, 1.0, 2))
        q = tuple(rng.uniform(-2.0, 2.0, 2))
        u = tuple(rng.uniform(-2.0, 2.0, 2))
        assert geo.omitted_area(o, q, u) == geo.omitted_area(o, u, q)
