"""The colored-sample local coverage experiment."""

import math

import numpy as np
import pytest

from udgprune import local_coverage as lc
from udgprune.geometry import Point2D, SectorFrame, SquareRegion, sector_of
from udgprune.util import derived_seed, wilson_interval

SQUARE = SquareRegion(10.0)
CENTER = (5.0, 5.0)


def _fixture_sample(blue, white=None, b_param=1000, center=CENTER):
    frame = SectorFrame(Point2D(*center), b_param)
    return lc.ColoredSample(
        center=Point2D(*center),
        square=SQUARE,
        white=np.asarray(white if white is not None else np.empty((0, 2)), dtype=float),
        blue=np.asarray(blue, dtype=float),
        frame=frame,
    )


class TestSampleColored:
    def test_single_blue_point(self):
        s = lc.sample_colored(CENTER, SQUARE, w=0, b=1, seed=0)
        assert s.w == 0 and s.b == 1
        assert (s.blue[0][0] - 5.0) ** 2 + (s.blue[0][1] - 5.0) ** 2 <= 1.0

    def test_membership_at_boundary_adjacent_center(self):
        center = (0.4, 0.7)
        s = lc.sample_colored(center, SQUARE, w=100, b=100, seed=5)
        for pts in (s.white, s.blue):
            assert (pts >= 0.0).all() and (pts <= 10.0).all()
            d2 = (pts[:, 0] - 0.4) ** 2 + (pts[:, 1] - 0.7) ** 2
            assert (d2 <= 1.0).all()

    def test_interior_acceptance_rate_near_quarter_pi(self):
        rng = np.random.default_rng(0)
        _, proposals = lc.sample_truncated_disk(CENTER, SQUARE, 100_000, rng)
        rate = 100_000 / proposals
        assert abs(rate - math.pi / 4) < 0.01

    def test_deterministic(self):
        a = lc.sample_colored(CENTER, SQUARE, w=10, b=20, seed=7)
        b = lc.sample_colored(CENTER, SQUARE, w=10, b=20, seed=7)
        assert (a.white == b.white).all() and (a.blue == b.blue).all()

    def test_prefix_extension_in_b(self):
        small = lc.sample_colored(CENTER, SQUARE, w=30, b=50, seed=9)
        large = lc.sample_colored(CENTER, SQUARE, w=30, b=300, seed=9)
        assert (small.white == large.white).all()
        assert (small.blue == large.blue[:50]).all()

    def test_core_blue_count_monotone_under_extension(self):
        for seed in range(30):
            prev = 0
            for b in (100, 400, 1600):
                s = lc.sample_colored(CENTER, SQUARE, w=0, b=b, seed=seed)
                # classify against the *same* frame to compare like with like
                frame = SectorFrame(Point2D(*CENTER), 1600)
                d2 = (s.blue[:, 0] - 5.0) ** 2 + (s.blue[:, 1] - 5.0) ** 2
                count = int((d2 <= frame.delta**2).sum())
                assert count >= prev
                prev = count

    def test_core_lists_the_blue_points_in_the_core_disk(self):
        total = 0
        for seed in range(50):
            s = lc.sample_colored(CENTER, SQUARE, w=3, b=8, seed=seed)
            d = np.hypot(s.blue[:, 0] - 5.0, s.blue[:, 1] - 5.0)
            assert list(s.core) == list(np.flatnonzero(d <= s.frame.delta))
            total += len(s.core)
        assert total > 0

    def test_colored_trials_redraw_one_trial_alone(self):
        trials = list(lc.colored_trials(CENTER, SQUARE, 5, 40, trials=4, seed=8))
        assert len(trials) == 4
        for t, sample in enumerate(trials):
            alone = lc.sample_colored(CENTER, SQUARE, 5, 40, seed=derived_seed(8, t))
            assert (sample.white == alone.white).all() and (sample.blue == alone.blue).all()

    def test_core_disk_must_fit(self):
        with pytest.raises(ValueError):
            lc.sample_colored((0.001, 5.0), SQUARE, w=0, b=1000, seed=0)

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            lc.sample_colored(CENTER, SQUARE, w=-1, b=10, seed=0)
        with pytest.raises(ValueError):
            lc.sample_colored(CENTER, SQUARE, w=0, b=0, seed=0)


class TestSectorStats:
    def test_all_blues_outside_core(self):
        s = _fixture_sample(blue=[[5.9, 5.0], [5.0, 4.2]])
        st = lc.sector_stats(s)
        assert st.tau == 0 and st.first_match == -1 and st.core_blue == 0
        assert st.matched == ()

    def test_hand_placed_matched_pair(self):
        frame = SectorFrame(Point2D(5.0, 5.0), 1000)
        t, d = frame.theta, frame.delta
        blue = [
            [5 + 0.5 * d * math.cos(3 * t), 5 + 0.5 * d * math.sin(3 * t)],  # (Q, 3)
            [5 + 0.6 * d * math.cos(3 * t + math.pi), 5 + 0.6 * d * math.sin(3 * t + math.pi)],  # (R, 3)
            [5.9, 5.0],
            [5.0, 4.3],
        ]
        st = lc.sector_stats(_fixture_sample(blue))
        assert st.tau == 1 and st.matched == (3,) and st.first_match == 3
        assert st.core_blue == 2
        assert st.counts_q[3] == 1 and st.counts_r[3] == 1

    def test_first_pair_comes_from_one_labelling_pass(self, monkeypatch):
        calls = []

        def counting(frame, p):
            calls.append(1)
            return sector_of(frame, p)

        monkeypatch.setattr(lc, "sector_of", counting)
        matched = 0
        for seed in range(400):
            s = lc.sample_colored(CENTER, SQUARE, w=5, b=8, seed=seed)
            calls.clear()
            st = lc.sector_stats(s)
            lc.x_b_indicator(s, st)
            lc.blue_pair_dominates(s)
            assert len(calls) == st.core_blue  # one sector_of call per core point
            if st.tau == 0:
                assert st.first_pair is None
                continue
            matched += 1
            q, r = st.first_pair
            assert sector_of(s.frame, s.blue[q]) == ("Q", st.first_match)
            assert sector_of(s.frame, s.blue[r]) == ("R", st.first_match)
        assert matched > 0  # x_b_indicator got past its no-match exit

    def test_partition_accounts_for_every_core_blue(self):
        for seed in range(50):
            s = lc.sample_colored(CENTER, SQUARE, w=0, b=2000, seed=seed)
            st = lc.sector_stats(s)
            assert st.counts_q.sum() + st.counts_r.sum() == st.core_blue

    def test_tau_bounded_by_count_and_half_core(self):
        for seed in range(50):
            s = lc.sample_colored(CENTER, SQUARE, w=0, b=3000, seed=seed + 100)
            st = lc.sector_stats(s)
            assert st.tau <= min(s.frame.count, st.core_blue // 2)

    def test_matched_sector_mean_follows_exact_law(self):
        # at b=10 the sectors are wide enough for the matched count to be
        # observable; the binomial law gives the exact mean
        b = 10
        delta = 1.0 / (b ** (1 / 3) * math.log(b))
        L = math.floor(b ** (1 / 3) * math.log(b) ** 1.5)
        p = delta**2 / (2 * L)  # interior center: sector area over disk area
        exact = L * b * (b - 1) * p**2 * (1 - 2 * p) ** (b - 2)
        trials = 20_000
        taus = np.empty(trials)
        for t in range(trials):
            s = lc.sample_colored(CENTER, SQUARE, 0, b, seed=derived_seed(31415, t))
            taus[t] = lc.sector_stats(s).tau
        emp = taus.mean()
        se = taus.std(ddof=1) / math.sqrt(trials)
        assert abs(emp - exact) <= 3.0 * se
        assert abs(emp - exact) <= 0.3 * exact


class TestBluePairDominates:
    def test_single_blue_cannot_form_pair(self):
        s = lc.sample_colored(CENTER, SQUARE, w=0, b=1, seed=3)
        found, pair = lc.blue_pair_dominates(s)
        assert not found and pair is None

    def test_two_blues_at_center_dominate(self):
        s0 = lc.sample_colored(CENTER, SQUARE, w=50, b=50, seed=4)
        blue = np.vstack([[[5.0, 5.0], [5.0, 5.0]], s0.blue])
        s = _fixture_sample(blue, white=s0.white, b_param=len(blue))
        found, pair = lc.blue_pair_dominates(s)
        assert found and pair == (0, 1)

    def test_pair_outside_core_does_not_count(self):
        # two blues that dominate but sit outside the core disk
        blue = [[5.5, 5.0], [4.5, 5.0]]
        s = _fixture_sample(blue)
        found, _ = lc.blue_pair_dominates(s)
        assert not found

    def test_pilot_calibrated_rate_at_b_1e4(self):
        # asymptotically the success probability tends to one, but at
        # reachable b it is dominated by the chance of seeing two core
        # blues at all; the pilot (seed 1234, 2000 trials) measured 0.006,
        # so the frozen floor is three successes
        est = lc.local_coverage_probability(CENTER, SQUARE, w=10**4, b=10**4, trials=2000, seed=1234)
        assert est.successes >= 3


class TestXbIndicator:
    def test_zero_when_no_match(self):
        s = _fixture_sample(blue=[[5.9, 5.0]])
        assert lc.x_b_indicator(s) == 0

    def test_one_on_dominating_fixture(self):
        frame = SectorFrame(Point2D(5.0, 5.0), 1000)
        t, d = frame.theta, frame.delta
        blue = [
            [5 + 0.5 * d * math.cos(0.0), 5 + 0.5 * d * math.sin(0.0)],  # (Q, 0)
            [5 - 0.5 * d, 5.0],                                          # (R, 0)
            [5.9, 5.0],
        ]
        s = _fixture_sample(blue)
        assert lc.x_b_indicator(s) == 1

    def test_implies_pair_domination(self):
        hits = 0
        for t in range(1000):
            s = lc.sample_colored(CENTER, SQUARE, w=10, b=10, seed=derived_seed(999, t))
            st = lc.sector_stats(s)
            if lc.x_b_indicator(s, st) == 1:
                hits += 1
                found, _ = lc.blue_pair_dominates(s)
                assert found
        assert hits > 0  # the audit must not be vacuous


class TestLocalCoverageProbability:
    def test_no_pair_possible(self):
        est = lc.local_coverage_probability(CENTER, SQUARE, w=0, b=1, trials=10, seed=0)
        assert est.estimate == 0.0 and est.successes == 0

    def test_injected_fixture_gives_one(self):
        s0 = lc.sample_colored(CENTER, SQUARE, w=20, b=20, seed=4)
        blue = np.vstack([[[5.0, 5.0], [5.0, 5.0]], s0.blue])
        fx = _fixture_sample(blue, white=s0.white, b_param=len(blue))
        est = lc.local_coverage_probability(
            CENTER, SQUARE, w=0, b=2, trials=8, seed=0, sample_fn=lambda t: fx
        )
        assert est.estimate == 1.0
        assert est.wilson_high == 1.0

    def test_estimate_carries_its_wilson_interval(self):
        est = lc.CoverageEstimate.of(3, 40)
        assert (est.successes, est.trials, est.estimate) == (3, 40, 3 / 40)
        assert (est.wilson_low, est.wilson_high) == wilson_interval(3, 40)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            lc.local_coverage_probability(CENTER, SQUARE, w=0, b=2, trials=0, seed=0)

    def test_failure_rate_trend_is_non_increasing(self):
        rates = []
        for b in (10**3, 10**4):
            est = lc.local_coverage_probability(CENTER, SQUARE, w=b, b=b, trials=200, seed=777)
            rates.append((1.0 - est.estimate, est))
        (f1, e1), (f2, e2) = rates
        ci = 1.96 * math.sqrt(
            f1 * (1 - f1) / e1.trials + f2 * (1 - f2) / e2.trials
        )
        assert f2 <= f1 + max(ci, 1e-6)


class TestCoreTail:
    def test_tail_zero_when_threshold_exceeds_count(self):
        # tiny b keeps the core bound far above any possible count
        rep = lc.z_tail_check(CENTER, SQUARE, b=30, trials=50, seed=0)
        assert 0.0 <= rep.empirical_tail <= 1.0

    def test_bound_respected_at_b_1e4(self):
        rep = lc.z_tail_check(CENTER, SQUARE, b=10**4, trials=2000, seed=6)
        assert rep.tail_ok
        assert rep.mean_ok

    def test_core_count_mean_matches_binomial(self):
        rep = lc.z_tail_check(CENTER, SQUARE, b=3000, trials=2000, seed=8)
        assert rep.mean_ok
        # interior center: density is exactly 1
        delta = 1.0 / (3000 ** (1 / 3) * math.log(3000))
        assert rep.expected_core == pytest.approx(3000 * delta**2, rel=1e-12)

    def test_b_2_uses_the_borrowed_frame(self):
        # sample_colored draws b = 2 on the b = 3 frame; the expected core
        # count must use that frame's radius, not a b = 2 frame (which has
        # no sectors and raises)
        rep = lc.z_tail_check(CENTER, SQUARE, b=2, trials=3, seed=0)
        delta = SectorFrame(Point2D(*CENTER), 3).delta
        assert rep.trials == 3
        assert rep.expected_core == pytest.approx(2 * delta**2, rel=1e-12)

    def test_b_1_rejected_before_any_trial(self, monkeypatch):
        # the Chernoff bound divides by ln b, which is 0 at b = 1
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(lc, "colored_trials", no_trials)
        with pytest.raises(ValueError, match="b=1 too small"):
            lc.z_tail_check(CENTER, SQUARE, b=1, trials=3, seed=0)


class TestDensityBounds:
    def test_density_between_one_and_four(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            side = float(rng.uniform(2.0, 6.0))
            sq = SquareRegion(side)
            o = tuple(rng.uniform(0.0, side, 2))
            lam = lc.clipped_disk_density(o, sq)
            assert 1.0 - 1e-12 <= lam <= 4.0 + 1e-12

    def test_interior_density_is_one(self):
        assert lc.clipped_disk_density(CENTER, SQUARE) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "at b=1e5 the matched-sector count has mean ~5e-6, so its zero/one "
        "tail threshold b^(1/3)/(16 ln^6 b) < 1 reduces the event to tau=0, "
        "which happens almost always at this scale; the asymptotic tail bound "
        "only bites at astronomically large b (see notes in the test body)"
    ),
)
def test_matched_count_tail_at_desk_scale():
    # Literal desk-scale transcription: Pr(tau < b^(1/3) / (16 ln^6 b))
    # should be small for large b.  E(tau) = b^(1/3) density^2 / (4 ln^6 b)
    # first exceeds 1 near b ~ e^85, so every reachable b sees tau = 0 in
    # essentially all trials and the empirical frequency is ~1, not <= 0.2.
    b = 10**5
    threshold = b ** (1 / 3) / (16.0 * math.log(b) ** 6)
    below = 0
    trials = 500
    for t in range(trials):
        s = lc.sample_colored(CENTER, SQUARE, w=0, b=b, seed=derived_seed(161, t))
        below += lc.sector_stats(s).tau < threshold
    assert below / trials <= 0.2
