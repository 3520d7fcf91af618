"""Schedules, per-vertex statistics, trials, and sweeps."""

import math

import numpy as np
import pytest

from udgprune import harness as hz
from udgprune import rgg
from udgprune.geometry import SquareRegion, truncated_disk_area


def _sqrt_schedule(n):
    return hz.make_schedule(n, rgg.ell_sqrt(n), "sqrt")


def _power_schedule(n, t=0.4):
    return hz.make_schedule(n, rgg.ell_power(n, t), "power")


class TestDefaultAlpha:
    def test_sqrt_profile_formula(self):
        n = 10**4
        expected = 32.0 * n / math.log(math.log(n)) ** 1.5
        assert hz.default_alpha(n, "sqrt") == pytest.approx(expected)

    def test_power_profile_formula(self):
        n = 10**4
        assert hz.default_alpha(n, "power") == pytest.approx(
            n / math.log(n)
        )

    def test_degenerate_n_rejected(self):
        with pytest.raises(ValueError):
            hz.default_alpha(10, "sqrt")

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            hz.default_alpha(100, "geometric")

    def test_power_profile_needs_ln_n_above_one(self):
        with pytest.raises(ValueError, match="power profile needs n >= 3, got 2"):
            hz.default_alpha(2, "power")


class TestSchedule:
    def test_derived_fields(self):
        sch = _power_schedule(10**4)
        assert sch.margin == pytest.approx(1.0 / math.log(sch.alpha / sch.ell**2) ** 1.5)

    def test_small_xi_rejected(self):
        with pytest.raises(ValueError):
            hz.Schedule(n=100, ell=10.0, alpha=50.0)  # xi = 0.5

    def test_power_profile_on_sqrt_habitat_names_the_pairing(self):
        # alpha = ell^2 up to rounding: xi comes out 1 or one ulp away
        for n in range(16, 2000):
            with pytest.raises(ValueError, match=r"'power' alpha profile with ell = sqrt"):
                hz.make_schedule(n, rgg.ell_sqrt(n), "power")

    @pytest.mark.parametrize(
        "n,ell,problem",
        [(0, 10.0, "n must be >= 1"), (100, 0.0, "ell must be positive"), (100, -1.0, "ell must be positive"),
         (100, math.nan, "ell must be positive")],
        ids=["n0", "ell0", "ell-1", "ell-nan"],
    )
    def test_bad_size_rejected(self, n, ell, problem):
        with pytest.raises(ValueError, match=problem):
            hz.Schedule(n=n, ell=ell, alpha=1000.0)

    def test_narrow_habitat_warns(self):
        with pytest.warns(UserWarning, match="below ln n"):
            hz.Schedule(n=10**6, ell=5.0, alpha=1000.0)


class TestVertexStats:
    @pytest.fixture(scope="class")
    @staticmethod
    def graph_and_schedule():
        n = 3000
        side = rgg.ell_sqrt(n)
        sq = SquareRegion(side)
        g = rgg.build_udg(rgg.sample_points(n, sq, seed=31), sq, seed=31)
        return g, _sqrt_schedule(n)

    def test_counts_add_up_to_degree(self, graph_and_schedule):
        g, sch = graph_and_schedule
        for vid in (1, 57, 1500, 3000):
            vs = hz.vertex_stats(g, vid, sch)
            assert vs.higher_count + vs.lower_count == len(g.neighbors(vid))

    def test_mean_identity(self, graph_and_schedule):
        g, sch = graph_and_schedule
        stats = hz.all_vertex_stats(g, sch)
        areas = np.array([truncated_disk_area(g.points[j], g.square) for j in range(g.n)])
        expected = (g.n - 1) * areas / g.square.side**2
        assert np.allclose(stats.higher_mean + stats.lower_mean, expected, atol=1e-12)

    def test_highest_label_never_concentrated(self, graph_and_schedule):
        g, sch = graph_and_schedule
        vs = hz.vertex_stats(g, g.n, sch)
        assert vs.higher_count == 0 and vs.higher_mean == 0.0
        assert not vs.concentrated  # strict inequality unsatisfiable at zero mean

    def test_interior_mean_is_untruncated(self, graph_and_schedule):
        g, sch = graph_and_schedule
        inner = [
            j + 1
            for j in range(g.n)
            if 1.0 <= g.points[j, 0] <= g.square.side - 1.0
            and 1.0 <= g.points[j, 1] <= g.square.side - 1.0
        ]
        vid = inner[0]
        vs = hz.vertex_stats(g, vid, sch)
        assert vs.higher_mean == pytest.approx((g.n - vid) * math.pi / g.square.side**2)

    def test_bulk_matches_single(self, graph_and_schedule):
        # the bulk path clips only vertices nearer than 1 to a side, so the
        # hand-made graph puts vertices on and next to that line
        side = 5.0
        low = (0.0, 0.9, math.nextafter(1.0, 0.0), 1.0)
        high = (side - 1.0, math.nextafter(side - 1.0, side), side - 0.9, side)
        coords = (*low, 2.5, *high)
        pts = np.array([(x, y) for x in coords for y in coords])
        lattice = rgg.build_udg(pts, SquareRegion(side))
        lattice_schedule = hz.Schedule(n=lattice.n, ell=side, alpha=40.0)
        for g, sch in (graph_and_schedule, (lattice, lattice_schedule)):
            stats = hz.all_vertex_stats(g, sch)
            assert not np.shares_memory(stats.lower_count, g.nbr_low)
            for vid in range(1, g.n + 1):
                assert stats.single(vid) == hz.vertex_stats(g, vid, sch)

    def test_bulk_single_checks_the_id(self, graph_and_schedule):
        g, sch = graph_and_schedule
        stats = hz.all_vertex_stats(g, sch)
        for vid in (0, -1, g.n + 1):
            with pytest.raises(ValueError, match=f"out of range 1..{g.n}"):
                stats.single(vid)

    def test_bulk_matches_single_in_passes_of_one_edge(self, monkeypatch):
        # graphs built in passes of one candidate or edge, so the lower
        # counts come from rows filled over more than 2n passes
        rng = np.random.default_rng(23)
        for seed in range(10):
            n = int(rng.integers(200, 800))
            side = math.sqrt(n * math.pi / rng.uniform(5.0, 8.0))
            sq = SquareRegion(side)
            pts = rgg.sample_points(n, sq, seed=seed)
            with monkeypatch.context() as m:
                m.setattr(rgg, "_JOIN_BLOCK", 1)
                g = rgg.build_udg(pts, sq)
            assert len(g.edges) > 2 * n
            sch = hz.Schedule(n=n, ell=side, alpha=2.0 * side * side)
            stats = hz.all_vertex_stats(g, sch)
            for vid in range(1, n + 1):
                assert stats.single(vid) == hz.vertex_stats(g, vid, sch)

    def test_interior_frequency_matches_exact_probability(self, graph_and_schedule):
        g, sch = graph_and_schedule
        stats = hz.all_vertex_stats(g, sch)
        side = g.square.side
        p = max(0.0, side - 2 * sch.margin) ** 2 / side**2
        emp = stats.interior.mean()
        se = math.sqrt(p * (1 - p) / g.n)
        assert abs(emp - p) <= 3.0 * se

    def test_unknown_vertex_rejected(self, graph_and_schedule):
        g, sch = graph_and_schedule
        with pytest.raises(ValueError):
            hz.vertex_stats(g, 0, sch)


class TestRunTrial:
    def test_single_vertex(self):
        res = hz.run_trial(1, 2.0, seed=0)
        assert res.cds_size == 1
        assert res.report.dominating and res.report.component_preserving

    def test_deterministic_and_conserving(self):
        a = hz.run_trial(500, rgg.ell_sqrt(500), seed=7)
        b = hz.run_trial(500, rgg.ell_sqrt(500), seed=7)
        assert a == b  # runtime_ms is excluded from comparison

    def test_graph_trial_of_a_sampled_graph_is_run_trial(self):
        n, side, seed = 300, rgg.ell_sqrt(300), 11
        sq = SquareRegion(side)
        g = rgg.build_udg(rgg.sample_points(n, sq, seed), sq, seed=seed)
        assert hz.graph_trial(g) == hz.run_trial(n, side, seed)


class TestSweep:
    def _config(self, trials=3):
        return hz.SweepConfig.from_dict(
            {
                "schedules": [
                    {
                        "n": 400,
                        "ell_rule": {"kind": "sqrt", "value": 1.0},
                        "trials": trials,
                        "seed": 21,
                    }
                ]
            }
        )

    def test_empty_config_gives_header_only(self):
        rows = hz.sweep(hz.SweepConfig.from_dict({"schedules": []}))
        text = hz.sweep_rows_to_csv(rows)
        assert text == ",".join(hz.CSV_COLUMNS) + "\n"

    def test_rows_have_full_schema(self):
        rows = hz.sweep(self._config())
        assert len(rows) == 3
        for row in rows:
            assert list(row.keys()) == hz.CSV_COLUMNS
            assert row["U"] + row["cds_size"] == row["n"]
            assert row["dominating"] is True or row["dominating"] is np.True_
            assert row["millis"] == 0

    def test_byte_identical_reruns(self):
        a = hz.sweep_rows_to_csv(hz.sweep(self._config()))
        b = hz.sweep_rows_to_csv(hz.sweep(self._config()))
        assert a == b

    def test_parallel_matches_sequential(self):
        a = hz.sweep_rows_to_csv(hz.sweep(self._config(trials=4), parallel=1))
        b = hz.sweep_rows_to_csv(hz.sweep(self._config(trials=4), parallel=3))
        assert a == b

    def test_sizes_with_one_seed_draw_independently(self):
        # trial 0 at n = 2000 must not reuse the first rows of trial 0's
        # unit draws at n = 8000
        schedule = {"ell_rule": {"kind": "sqrt", "value": 1.0}, "trials": 1, "seed": 7}
        config = hz.SweepConfig.from_dict({"schedules": [{**schedule, "n": n} for n in (2000, 8000)]})
        small, large = (np.random.default_rng(r["seed"]).random((r["n"], 2)) for r in hz.sweep(config))
        assert not np.array_equal(small, large[:2000])

    def test_aggregates(self):
        rows = hz.sweep(self._config())
        aggs = hz.aggregate_rows(rows)
        assert len(aggs) == 1
        agg = aggs[0]
        assert agg["trials"] == 3
        assert agg["mean_frac_pruned"] == pytest.approx(
            sum(r["frac_pruned"] for r in rows) / 3
        )
        assert agg["all_dominating"] is True

    def test_config_errors_name_the_entry(self):
        with pytest.raises(ValueError, match=r"schedules\[0\]"):
            hz.SweepConfig.from_dict({"schedules": [{"n": 100}]})
        with pytest.raises(ValueError, match=r"schedules\[1\]"):
            hz.SweepConfig.from_dict(
                {
                    "schedules": [
                        {
                            "n": 100,
                            "ell_rule": {"kind": "sqrt", "value": 1.0},
                            "trials": 1,
                            "seed": 0,
                        },
                        {
                            "n": 100,
                            "ell_rule": {"kind": "cubic", "value": 1.0},
                            "trials": 1,
                            "seed": 0,
                        },
                    ]
                }
            )
        with pytest.raises(ValueError, match="schedules"):
            hz.SweepConfig.from_dict([1, 2, 3])
        entry = {"n": 100, "ell_rule": {"kind": "sqrt", "value": 1.0}, "trials": 1, "seed": 0}
        for key in ("alpha_profile", "trails"):
            with pytest.raises(ValueError, match=rf"schedules\[0\]: unknown key '{key}'"):
                hz.SweepConfig.from_dict({"schedules": [dict(entry, **{key: 1})]})
        rule = {"kind": "sqrt", "value": 1.0, "vaule": 3}
        with pytest.raises(ValueError, match=r"schedules\[0\]: unknown ell_rule key 'vaule'"):
            hz.SweepConfig.from_dict({"schedules": [dict(entry, ell_rule=rule)]})
        with pytest.raises(ValueError, match="'schedules' list of objects"):
            hz.SweepConfig.from_dict({"schedules": 5})
        with pytest.raises(ValueError, match=r"schedules\[0\]: expected an object, got 5"):
            hz.SweepConfig.from_dict({"schedules": [5]})
        with pytest.raises(ValueError, match=r"schedules\[0\]: ell_rule expected an object"):
            hz.SweepConfig.from_dict({"schedules": [dict(entry, ell_rule=[1.0])]})
        for key, value in [("n", 1), ("n", 100.7), ("n", True), ("n", "100"),
                           ("trials", 1.9), ("trials", -1), ("seed", 2.5), ("seed", -1)]:
            with pytest.raises(ValueError, match=rf"schedules\[1\]: {key} must be an integer"):
                hz.SweepConfig.from_dict({"schedules": [entry, dict(entry, **{key: value})]})
        # n is bounded by the int32 index limit when read, before any trial is sized
        for n in (2**31, 10**30):
            with pytest.raises(ValueError, match=r"schedules\[1\]: .*must be below 2147483648"):
                hz.SweepConfig.from_dict({"schedules": [entry, dict(entry, n=n)]})
        assert hz.SweepConfig.from_dict({"schedules": [dict(entry, n=2**31 - 1)]}).schedules[0].n == 2**31 - 1
        for kind, value, message in [
            ("sqrt", "nan", "ell_rule value must be a number"),
            ("sqrt", True, "ell_rule value must be a number"),
            ("sqrt", None, "ell_rule value must be a number"),
            ("sqrt", float("nan"), "square side must be positive and finite"),
            ("sqrt", -1, "square side must be positive and finite"),
            ("sqrt", 1e308, "square side must be positive and finite"),
            ("power", -1e6, "square side must be positive and finite"),
            ("power", 1e6, "out of range"),  # OverflowError from the power
            ("sqrt", 1e9, "square side 4659906017.846561: cell keys are int64"),
        ]:
            rule = {"kind": kind, "value": value}
            with pytest.raises(ValueError, match=rf"schedules\[1\]: .*{message}"):
                hz.SweepConfig.from_dict({"schedules": [entry, dict(entry, ell_rule=rule)]})


class TestConcentrationCheck:
    def test_vacuous_at_small_n(self):
        n = 5000
        side = rgg.ell_sqrt(n)
        sq = SquareRegion(side)
        g = rgg.build_udg(rgg.sample_points(n, sq, seed=31), sq)
        rep = hz.concentration_check(g, _sqrt_schedule(n))
        assert rep.vacuous and rep.ok

    def test_positive_bound_respected_in_crowded_regime(self):
        # a long window and a relatively small habitat make the
        # Chebyshev-style floor positive for mid-range labels
        n = 40_000
        side = 12.0
        sq = SquareRegion(side)
        sch = hz.Schedule(n=n, ell=side, alpha=hz.default_alpha(n, "power"))
        g = rgg.build_udg(rgg.sample_points(n, sq, seed=13), sq)
        rep = hz.concentration_check(g, sch)
        assert not rep.vacuous
        assert rep.checked > 1000
        assert rep.ok
