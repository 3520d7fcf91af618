"""Operation-level checks for the disk-coverage geometry."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from udgprune import geometry as geo

# frozen closed-form values, each independently confirmed against the
# hit-or-miss oracle with 1e7 samples during development
LENS_AT_1 = 2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0
TRIPLE_ASYMMETRIC = 0.6286271407275459  # o=(0,0), q=(0.9,0), u=(0,0.9)
EDGE_TRUNCATED = math.pi - (math.acos(0.5) - 0.5 * math.sqrt(0.75))


class TestLensArea:
    def test_coincident_disks(self):
        assert geo.lens_area(0.0) == pytest.approx(math.pi, abs=1e-15)

    def test_disjoint_disks(self):
        assert geo.lens_area(2.5) == 0.0
        assert geo.lens_area(2.0) == 0.0

    def test_unit_separation(self):
        assert geo.lens_area(1.0) == pytest.approx(LENS_AT_1, abs=1e-15)

    def test_unit_separation_vs_oracle(self):
        est = geo.mc_area_oracle(
            geo.region_membership(((0.0, 0.0), (1.0, 0.0)), ()), (-1.0, 2.0, -1.0, 1.0), 10**6, seed=5
        )
        assert abs(LENS_AT_1 - est.value) <= 3.0 * est.std_error

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            geo.lens_area(bad)

    @given(st.floats(min_value=0.0, max_value=3.0))
    def test_range(self, d):
        v = geo.lens_area(d)
        assert 0.0 <= v <= math.pi

    @given(
        st.floats(min_value=0.0, max_value=2.5),
        st.floats(min_value=0.0, max_value=2.5),
    )
    def test_monotone_decreasing(self, d1, d2):
        lo, hi = sorted((d1, d2))
        assert geo.lens_area(hi) <= geo.lens_area(lo) + 1e-12


class TestTripleDiskIntersection:
    def test_all_coincident(self):
        assert geo.triple_disk_intersection_area((0, 0), (0, 0), (0, 0)) == pytest.approx(
            math.pi, abs=1e-15
        )

    def test_two_coincident_reduces_to_lens(self):
        v = geo.triple_disk_intersection_area((0, 0), (1, 0), (1, 0))
        assert v == pytest.approx(geo.lens_area(1.0), abs=1e-14)

    def test_asymmetric_frozen_value(self):
        v = geo.triple_disk_intersection_area((0, 0), (0.9, 0), (0, 0.9))
        assert v == pytest.approx(TRIPLE_ASYMMETRIC, abs=1e-12)

    def test_asymmetric_vs_oracle(self):
        est = geo.mc_area_oracle(
            geo.region_membership(((0, 0), (0.9, 0), (0, 0.9)), ()),
            (-1.0, 1.0, -1.0, 1.0),
            10**6,
            seed=17,
        )
        assert abs(TRIPLE_ASYMMETRIC - est.value) <= 3.0 * est.std_error

    def test_far_disk_empties_intersection(self):
        assert geo.triple_disk_intersection_area((0, 0), (0.5, 0), (5, 5)) == 0.0

    def test_pairwise_close_but_no_common_point(self):
        # equilateral-ish triangle with sides ~1.9: every pair meets, no triple point
        pts = [(0.0, 0.0), (1.9, 0.0), (0.95, 1.645)]
        assert geo.triple_disk_intersection_area(*pts) == 0.0

    def test_symmetric_in_arguments(self):
        o, q, u = (0.1, 0.2), (0.7, -0.1), (-0.3, 0.6)
        ref = geo.triple_disk_intersection_area(o, q, u)
        assert geo.triple_disk_intersection_area(q, u, o) == pytest.approx(ref, abs=1e-12)
        assert geo.triple_disk_intersection_area(u, o, q) == pytest.approx(ref, abs=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            geo.triple_disk_intersection_area((0, 0), (math.nan, 0), (0, 1))


class TestOmittedArea:
    def test_self_coverage(self):
        assert geo.omitted_area((0, 0), (0, 0), (0, 0)) == 0.0

    def test_coincident_pair_at_unit_distance(self):
        v = geo.omitted_area((0, 0), (1, 0), (1, 0))
        assert v == pytest.approx(math.pi - LENS_AT_1, abs=1e-13)

    def test_symmetry_exact(self):
        o, q, u = (0.0, 0.0), (0.4, 0.3), (-0.2, 0.8)
        assert geo.omitted_area(o, q, u) == geo.omitted_area(o, u, q)

    def test_extreme_pair_value_positive_and_bounded(self):
        frame = geo.SectorFrame(geo.Point2D(0.0, 0.0), 10**6)
        qt, ut = geo.extreme_points(frame, 0)
        v = geo.omitted_area(frame.center, qt, ut)
        # empirical constant for the 1/(b ln^3 b) scaling law, recorded
        c_emp = v * 10**6 * math.log(10**6) ** 3
        assert v > 0.0
        assert c_emp < 2.0

    @given(st.integers(0, 2**32 - 1))
    def test_range(self, seed):
        rng = np.random.default_rng(seed)
        o = rng.uniform(-1, 1, 2)
        q = o + rng.uniform(-2, 2, 2)
        u = o + rng.uniform(-2, 2, 2)
        v = geo.omitted_area(o, q, u)
        assert 0.0 <= v <= math.pi


_COORD = st.floats(-2.0, 2.0)
_OFFSET = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


class TestAreaInvariants:
    @given(
        o=st.tuples(_COORD, _COORD),
        dq=_OFFSET,
        du=_OFFSET,
        spread=st.one_of(st.just(2.2), st.floats(0.0, 1e-7)),
    )
    def test_triple_within_lenses_and_omitted_in_range(self, o, dq, du, spread):
        # near-coincident centers (spread <= 1e-7) must not give triple = pi,
        # above the smallest lens; 1e-14 is a few ulps of the O(1) terms
        q = (o[0] + spread * dq[0], o[1] + spread * dq[1])
        u = (o[0] + spread * du[0], o[1] + spread * du[1])
        triple = geo.triple_disk_intersection_area(o, q, u)
        lenses = [geo.lens_area(geo.dist(a, c)) for a, c in ((o, q), (o, u), (q, u))]
        assert 0.0 <= triple <= min(lenses) + 1e-14
        omitted = geo.omitted_area(o, q, u)
        assert 0.0 <= omitted <= math.pi
        assert omitted == geo.omitted_area(o, u, q)


class TestOmittedAreaAtAngle:
    def test_phi2_domain(self):
        with pytest.raises(ValueError):
            geo.omitted_area_at_angle(0.1, -0.2)
        with pytest.raises(ValueError):
            geo.omitted_area_at_angle(0.1, math.pi + 0.2)

    def test_closed_form_agrees_where_lens_is_interior(self):
        # below phi* = 2 asin(delta/2) the pairwise lens sits inside the
        # central disk, so the closed-form term equals the triple area
        rng = np.random.default_rng(12)
        for _ in range(50):
            delta = float(rng.uniform(0.02, 0.5))
            phi2 = float(rng.uniform(0.0, 2.0 * math.asin(delta / 2.0)))
            o1 = (-delta, 0.0)
            o2 = (delta * math.cos(phi2), delta * math.sin(phi2))
            closed = geo.on_circle_pair_lens(delta, phi2)
            triple = geo.triple_disk_intersection_area((0.0, 0.0), o1, o2)
            assert abs(closed - triple) <= 1e-12

    def test_matches_direct_omitted_area(self):
        frame = geo.SectorFrame(geo.Point2D(0.0, 0.0), 5000)
        phi2 = 1.1
        d = frame.delta
        direct = geo.omitted_area(
            frame.center,
            (-d, 0.0),
            (d * math.cos(phi2), d * math.sin(phi2)),
        )
        assert geo.omitted_area_at_angle(frame.delta, phi2) == direct

    def test_mc_agreement_mid_angle(self):
        delta, phi2 = 0.1, math.pi / 2
        v = geo.omitted_area_at_angle(delta, phi2)
        q, u = (-delta, 0.0), (delta * math.cos(phi2), delta * math.sin(phi2))
        est = geo.mc_area_oracle(
            geo.region_membership(((0.0, 0.0),), (q, u)),
            (-1.0, 1.0, -1.0, 1.0),
            10**6,
            seed=23,
        )
        assert abs(v - est.value) <= 3.0 * est.std_error

    @pytest.mark.parametrize("fn", [geo.omitted_area_at_angle, geo.on_circle_pair_lens])
    @pytest.mark.parametrize("delta", [0.0, 1.0])
    def test_delta_domain(self, fn, delta):
        with pytest.raises(ValueError, match="delta must lie in"):
            fn(delta, 0.5)


class TestOnCirclePairLens:
    def test_opposite_centers_identity(self):
        for delta in np.linspace(0.01, 0.9, 20):
            assert abs(geo.on_circle_pair_lens(delta, 0.0) - geo.lens_area(2 * delta)) <= 1e-12

    def test_coincident_centers_give_pi(self):
        for delta in np.linspace(0.01, 0.9, 20):
            assert abs(geo.on_circle_pair_lens(delta, math.pi) - math.pi) <= 1e-12


class TestTruncatedDiskArea:
    def test_interior_is_full_disk(self):
        sq = geo.SquareRegion(10.0)
        assert geo.truncated_disk_area((5.0, 5.0), sq) == pytest.approx(math.pi, abs=1e-15)
        assert geo.truncated_disk_area((1.0, 1.0), sq) == pytest.approx(math.pi, abs=1e-12)

    def test_corner_quarter_disk(self):
        sq = geo.SquareRegion(10.0)
        assert geo.truncated_disk_area((0.0, 0.0), sq) == pytest.approx(math.pi / 4, abs=1e-15)

    def test_single_edge_cut(self):
        sq = geo.SquareRegion(10.0)
        assert geo.truncated_disk_area((0.5, 5.0), sq) == pytest.approx(EDGE_TRUNCATED, abs=1e-13)

    def test_outside_center_rejected(self):
        with pytest.raises(ValueError):
            geo.truncated_disk_area((-0.1, 5.0), geo.SquareRegion(10.0))

    def test_range_for_wide_squares(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            side = float(rng.uniform(2.0, 8.0))
            o = rng.uniform(0.0, side, 2)
            v = geo.truncated_disk_area(o, geo.SquareRegion(side))
            assert math.pi / 4 - 1e-12 <= v <= math.pi + 1e-12

    def test_small_square_fully_inside_disk(self):
        sq = geo.SquareRegion(0.5)
        assert geo.truncated_disk_area((0.25, 0.25), sq) == pytest.approx(0.25, abs=1e-12)

    def test_caps_are_cut_below_one(self, monkeypatch):
        # `_quadrant_area` returns 0 for x >= 1 or y >= 1 before it asks for
        # a cap, so centres on the edges, at the corners and at -0.0 never
        # reach a cap at t >= 1; -0.0 and 0.0 give the same area
        seen = []
        cap = geo._cap_area
        monkeypatch.setattr(geo, "_cap_area", lambda t: seen.append(t) or cap(t))
        for side in (0.5, 1.0, 2.0, 10.0):
            square = geo.SquareRegion(side)
            coords = (0.0, 1.0, side / 2, side - 1.0, side)
            for x in coords:
                for y in coords:
                    if square.contains((x, y)):
                        area = geo.truncated_disk_area((x, y), square)
                        assert 0.0 < area <= math.pi
                        assert geo.truncated_disk_area((x or -0.0, y or -0.0), square) == area
        assert len(seen) > 0 and max(seen) < 1.0


class TestTruncatedOmittedArea:
    def test_self_coverage_is_zero(self):
        sq = geo.SquareRegion(10.0)
        est = geo.truncated_omitted_area((5, 5), (5, 5), (5, 5), sq, samples=20_000, seed=1)
        assert est.value == 0.0 and est.std_error == 0.0

    def test_interior_matches_unclipped(self):
        sq = geo.SquareRegion(10.0)
        o, q, u = (5.0, 5.0), (5.4, 5.1), (4.8, 4.5)
        est = geo.truncated_omitted_area(o, q, u, sq, samples=400_000, seed=2)
        assert abs(est.value - geo.omitted_area(o, q, u)) <= 3.0 * est.std_error

    def test_corner_adjacent_bounded_by_lens_complement(self):
        sq = geo.SquareRegion(10.0)
        o = (0.3, 0.3)
        q = u = (0.8, 0.3)
        est = geo.truncated_omitted_area(o, q, u, sq, samples=400_000, seed=3)
        assert est.value <= math.pi - geo.lens_area(0.5) + 3.0 * est.std_error

    def test_outside_center_rejected(self):
        with pytest.raises(ValueError):
            geo.truncated_omitted_area((11.0, 5.0), (5, 5), (5, 5), geo.SquareRegion(10.0))


class TestSectorFrame:
    def test_derived_quantities(self):
        frame = geo.SectorFrame(geo.Point2D(0, 0), 1000)
        assert frame.delta == pytest.approx(1.0 / (10.0 * math.log(1000.0)), abs=1e-15)
        assert frame.count == math.floor(10.0 * math.log(1000.0) ** 1.5)
        assert frame.theta * frame.count == pytest.approx(math.pi, abs=1e-12)

    def test_too_small_b_rejected(self):
        with pytest.raises(ValueError):
            geo.SectorFrame(geo.Point2D(0, 0), 2)

    @pytest.mark.parametrize(
        "b,problem", [(1, "integer >= 2, got 1"), (10**400, "exceeds the float range")], ids=["b1", "b1e400"]
    )
    def test_b_outside_the_domain_rejected(self, b, problem):
        # past the float range b ** (1/3) would overflow in the count
        with pytest.raises(ValueError, match=problem):
            geo.SectorFrame(geo.Point2D(0, 0), b)


class TestSectorOf:
    @pytest.fixture()
    def frame(self):
        return geo.SectorFrame(geo.Point2D(0.0, 0.0), 1000)

    def test_sector_center_is_q0(self, frame):
        assert geo.sector_of(frame, (frame.delta / 2, 0.0)) == ("Q", 0)

    def test_reflection_is_r0(self, frame):
        assert geo.sector_of(frame, (-frame.delta / 2, 0.0)) == ("R", 0)

    def test_outside(self, frame):
        assert geo.sector_of(frame, (2 * frame.delta, 0.0)) is None

    def test_center_rejected(self, frame):
        with pytest.raises(ValueError):
            geo.sector_of(frame, (0.0, 0.0))

    def test_boundary_tie_goes_to_lower_index(self):
        # power-of-two sector count makes the shared edge angle exact
        frame = geo.SectorFrame(geo.Point2D(0.0, 0.0), 1000)
        t = frame.theta
        r = frame.delta / 2
        # angle exactly halfway between sectors 2 and 3
        p = (r * math.cos(2.5 * t), r * math.sin(2.5 * t))
        fam, idx = geo.sector_of(frame, p)
        assert fam == "Q" and idx in (2, 3)  # ties resolve low modulo fp rounding
        exact = geo.sector_of(frame, (r, 0.0))
        assert exact == ("Q", 0)

    @pytest.mark.parametrize(
        "b,edges",
        [
            # count 1: the edges point straight up and straight down; the last
            # point's quotient is the float just above -1/2, where t - 1/2
            # would round to -1
            (3, {(0, 1): ("Q", 0), (0, -1): ("Q", 0), (2.0**-52, -1): ("Q", 0)}),
            # count 2: the diagonals, whose quotients are exactly 0.5, 1.5, -1.5, -0.5
            (4, {(1, 1): ("Q", 0), (-1, 1): ("Q", 1), (-1, -1): ("R", 0), (1, -1): ("Q", 0)}),
        ],
    )
    def test_exact_edges_go_to_the_lower_index_or_q0(self, b, edges):
        frame = geo.SectorFrame(geo.Point2D(0.0, 0.0), b)
        r = frame.delta / 2
        assert {u: geo.sector_of(frame, (r * u[0], r * u[1])) for u in edges} == edges

    @pytest.mark.parametrize("b", [3, 10, 1000])
    def test_midpoints_read_in_angle_order(self, b):
        # counterclockwise from angle 0: (Q, 0) ... (Q, count - 1), (R, 0) ... (R, count - 1)
        frame = geo.SectorFrame(geo.Point2D(1.0, 2.0), b)
        r = frame.delta / 2
        labels = [
            geo.sector_of(frame, (1.0 + r * math.cos(j * frame.theta), 2.0 + r * math.sin(j * frame.theta)))
            for j in range(2 * frame.count)
        ]
        assert labels == [("Q", i) for i in range(frame.count)] + [("R", i) for i in range(frame.count)]

    @pytest.mark.parametrize("b", [3, 10, 1000])
    def test_both_sides_of_the_negative_axis_read_r0(self, b):
        frame = geo.SectorFrame(geo.Point2D(0.0, 0.0), b)
        r = frame.delta / 2
        assert geo.sector_of(frame, (-r, 0.0)) == ("R", 0)  # angle pi
        assert geo.sector_of(frame, (-r, -r * 2.0**-40)) == ("R", 0)  # just above -pi

    @pytest.mark.parametrize("b", [3, 10, 1000])
    def test_reflection_through_the_center_swaps_the_family(self, b):
        c = (5.0, 5.0)
        frame = geo.SectorFrame(geo.Point2D(*c), b)
        rng = np.random.default_rng(b)
        for i in range(frame.count):
            a = (i + rng.uniform(-0.4, 0.4)) * frame.theta  # strictly inside (Q, i)
            r = frame.delta * rng.uniform(0.1, 0.9)
            p = (c[0] + r * math.cos(a), c[1] + r * math.sin(a))
            assert geo.sector_of(frame, p) == ("Q", i)
            assert geo.sector_of(frame, (2 * c[0] - p[0], 2 * c[1] - p[1])) == ("R", i)

    def test_partition_covers_small_disk(self, frame):
        rng = np.random.default_rng(8)
        for _ in range(500):
            r = frame.delta * math.sqrt(rng.uniform(0, 1))
            a = rng.uniform(-math.pi, math.pi)
            label = geo.sector_of(frame, (r * math.cos(a), r * math.sin(a)))
            assert label is not None
            fam, idx = label
            assert fam in ("Q", "R") and 0 <= idx < frame.count


class TestExtremePoints:
    def test_radius_and_separation(self):
        frame = geo.SectorFrame(geo.Point2D(1.0, 2.0), 4000)
        for i in (0, 1, frame.count - 1):
            qt, ut = geo.extreme_points(frame, i)
            assert geo.dist(frame.center, qt) == pytest.approx(frame.delta, abs=1e-15)
            assert geo.dist(frame.center, ut) == pytest.approx(frame.delta, abs=1e-15)
            aq = math.atan2(qt[1] - 2.0, qt[0] - 1.0)
            au = math.atan2(ut[1] - 2.0, ut[0] - 1.0)
            sep = (au - aq) % (2 * math.pi)
            assert sep == pytest.approx(math.pi + frame.theta, abs=1e-12)

    def test_definition_unfold_at_origin(self):
        frame = geo.SectorFrame(geo.Point2D(0.0, 0.0), 4000)
        qt, ut = geo.extreme_points(frame, 0)
        d, t = frame.delta, frame.theta
        assert qt == pytest.approx((d * math.cos(-t / 2), d * math.sin(-t / 2)), abs=1e-15)
        assert ut == pytest.approx(
            (d * math.cos(t / 2 + math.pi), d * math.sin(t / 2 + math.pi)), abs=1e-15
        )

    def test_index_out_of_range(self):
        frame = geo.SectorFrame(geo.Point2D(0.0, 0.0), 4000)
        with pytest.raises(ValueError):
            geo.extreme_points(frame, frame.count)
        with pytest.raises(ValueError):
            geo.extreme_points(frame, -1)


class TestRegionMembership:
    def test_matches_the_disk_predicates(self):
        rng = np.random.default_rng(4)
        xs, ys = rng.uniform(-2.0, 2.0, (2, 20_000))
        o, q, u = (0.0, 0.0), (0.7, 0.2), (-0.4, 0.9)
        mo, mq, mu = ((xs - c[0]) ** 2 + (ys - c[1]) ** 2 <= 1.0 for c in (o, q, u))
        assert (geo.region_membership((o, q, u), ())(xs, ys) == (mo & mq & mu)).all()
        assert (geo.region_membership((o,), (q, u))(xs, ys) == (mo & ~mq & ~mu)).all()

    def test_open_chain_area_against_oracle(self):
        # two inside and one outside circle through one common point: cut
        # angles rounded inconsistently there leave a boundary chain that
        # does not close, and `_region_area` places its vertices relative
        # to inside[0] (placed relative to the chain's first vertex, the
        # area comes out 1.6772)
        inside = ((-1.80179550462934, -0.7164972080802163), (-1.928265375108372, -0.33540082214719746))
        outside = ((-0.1261330378571789, -0.8050389978139187),)
        area = geo._region_area(inside, outside)
        assert area == pytest.approx(2.27655, abs=1e-5)
        x, y = inside[0]
        est = geo.mc_area_oracle(geo.region_membership(inside, outside), (x - 1, x + 1, y - 1, y + 1), 4 * 10**6, seed=5)
        assert abs(area - est.value) <= 3.0 * est.std_error


class TestMcAreaOracle:
    def test_full_predicate(self):
        est = geo.mc_area_oracle(lambda xs, ys: np.ones_like(xs, bool), (0, 2, 0, 3), 1000, 0)
        assert est.value == 6.0 and est.std_error == 0.0

    def test_empty_predicate(self):
        est = geo.mc_area_oracle(lambda xs, ys: np.zeros_like(xs, bool), (0, 2, 0, 3), 1000, 0)
        assert est.value == 0.0 and est.std_error == 0.0

    def test_unit_disk_self_check(self):
        member = geo.region_membership(((0.0, 0.0),), ())
        est = geo.mc_area_oracle(member, (-1, 1, -1, 1), 10**6, seed=42)
        assert abs(est.value - math.pi) <= 3.0 * est.std_error

    def test_deterministic(self):
        member = geo.region_membership(((0.0, 0.0),), ())
        a = geo.mc_area_oracle(member, (-1, 1, -1, 1), 50_000, seed=9)
        b = geo.mc_area_oracle(member, (-1, 1, -1, 1), 50_000, seed=9)
        assert a == b

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError):
            geo.mc_area_oracle(lambda xs, ys: xs > 0, (1, 1, 0, 2), 100, 0)

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            geo.mc_area_oracle(lambda xs, ys: xs > 0, (0, 1, 0, 1), 0, 0)
