"""Tests of the benchmark's own arithmetic and checks, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import argparse
import dataclasses
import itertools
import math
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import checks
import reference
import spans
import worker
import workloads
from udgprune import geometry, local_coverage, rgg, rule2

BENCH = Path(__file__).resolve().parents[1]


# ------------------------------------------------------------------ spans


def test_self_time_subtracts_children_once_and_within_parent():
    s = [
        ["unit", 0, None, 0.0, 10.0],
        ["a", 0, 0, 1.0, 4.0],
        ["a.inner", 0, 1, 2.0, 3.0],
        ["b", 0, 0, 5.0, 9.0],
        ["c", 0, 0, 8.0, 11.0],  # overlaps b and overhangs the unit
    ]
    assert spans.self_times(s) == pytest.approx([2.0, 2.0, 1.0, 4.0, 3.0])
    per_unit = spans.self_time_by_unit(s)
    assert per_unit[0] == pytest.approx({"unit": 2.0, "a": 2.0, "a.inner": 1.0, "b": 4.0, "c": 3.0})


def test_tracer_records_unit_and_child_spans():
    t = spans.Tracer()
    t.begin_unit(7)
    assert t.call("m.f", lambda x: x + 1, 1) == 2
    with pytest.raises(ZeroDivisionError):
        t.call("m.g", lambda: 1 / 0)
    wall = t.end_unit()
    names = [sp[0] for sp in t.spans]
    assert names == ["unit", "m.f", "m.g"]
    assert [sp[1] for sp in t.spans] == [7, 7, 7]
    assert [sp[2] for sp in t.spans] == [None, 0, 0]
    own = spans.self_time_by_unit(t.spans)[7]
    assert sum(own.values()) == pytest.approx(wall)


def test_percentile_rule():
    assert spans.percentile([4, 1, 3, 2], 50) == 2.5
    assert spans.percentile([1, 2, 3, 4], 90) == pytest.approx(3.7)
    assert spans.percentile([5], 90) == 5
    assert spans.percentile(range(101), 90) == 90
    assert spans.tail_percentile(list(range(99)), 90) is None
    assert spans.tail_percentile(list(range(100)), 90) == pytest.approx(89.1)


# ------------------------------------------------------------ graph checks


@pytest.fixture(scope="module")
def small_graph():
    n = 300
    square = geometry.SquareRegion(math.sqrt(n / math.log(n)))
    g = rgg.build_udg(rgg.sample_points(n, square, 5), square, seed=5)
    return g, rule2.prune(g)


def test_gateway_check_accepts_the_oracle_and_catches_a_dropped_vertex(small_graph):
    g, cds = small_graph
    oracle = rule2.brute_force_prune(g)
    assert checks.check_gateways(cds, oracle, rule2.verify_cds(g, cds)) == []
    dropped = rule2.GatewaySet(members=cds.members[:3] + cds.members[4:])
    fails = checks.check_gateways(dropped, oracle, rule2.verify_cds(g, dropped))
    assert any("differs from brute force" in f for f in fails)


def test_adjacency_checks_catch_a_perturbed_edge(small_graph):
    g, _ = small_graph
    v = int(np.argmax(np.diff(g.nbr_offsets))) + 1
    assert checks.check_neighbour_rows(g, [v]) == []
    flat = g.nbr_flat.copy()
    lo = g.nbr_offsets[v - 1]
    flat[lo] = v  # one neighbour of v replaced by v itself
    broken = dataclasses.replace(g, nbr_flat=flat, edges=np.delete(g.edges, 0, axis=0))
    assert checks.check_neighbour_rows(broken, [v])
    assert checks.check_same_graph(g, g) == []
    assert checks.check_same_graph(g, broken)


def test_graph_counters_on_a_triangle():
    pts = np.array([[0.5, 0.5], [1.0, 0.5], [0.75, 0.9], [3.5, 3.5], [3.9, 3.5]])
    square = geometry.SquareRegion(4.0)
    g = rgg.build_udg(pts, square)
    c = checks.graph_counters(g)
    # one triangle {1, 2, 3}, counted at vertex 1 whose closed neighbourhood has 3 vertices
    assert c == {"edges": 4, "degree_max": 2, "up_pairs": 1, "coverage_tests": 3}


# ---------------------------------------------------------- colored checks


def test_colored_check_catches_a_wrong_domination_answer():
    square = geometry.SquareRegion(10.0)
    sample = local_coverage.sample_colored((5.0, 5.0), square, 200, 3000, seed=11)
    stats = local_coverage.sector_stats(sample)
    found, _ = local_coverage.blue_pair_dominates(sample)
    x_b = local_coverage.x_b_indicator(sample, stats)
    fails, counts = checks.check_colored(sample, stats, found, x_b)
    assert fails == []
    assert counts["core_blue"] == stats.core_blue
    bad, _ = checks.check_colored(sample, stats, not found, x_b)
    assert any("blue_pair_dominates" in f for f in bad)
    wrong_core = dataclasses.replace(stats, core_blue=stats.core_blue + 1)
    bad, _ = checks.check_colored(sample, wrong_core, found, x_b)
    assert any("core_blue" in f for f in bad)


# --------------------------------------------------------- area references


@mpmath.workdps(reference.DIGITS)
def test_reference_areas_match_closed_forms():
    d = mpmath.mpf(0.7)  # the float the reference receives
    lens = 2 * mpmath.acos(d / 2) - (d / 2) * mpmath.sqrt(4 - d * d)
    assert abs(reference.disk_region_area([(0, 0), (0.7, 0)], []) - lens) < mpmath.mpf(10) ** -50
    assert abs(reference.truncated_disk_area((2.5, 2.5), 5.0) - mpmath.pi) < mpmath.mpf(10) ** -50
    assert abs(reference.truncated_disk_area((0.0, 0.0), 5.0) - mpmath.pi / 4) < mpmath.mpf(10) ** -50
    # omitted area is the disk minus both lenses plus the triple intersection
    o, q, u = (0.1, 0.2), (0.9, 0.4), (-0.3, 1.1)
    by_parts = (mpmath.pi - reference.disk_region_area([o, q], []) - reference.disk_region_area([o, u], [])
                + reference.disk_region_area([o, q, u], []))
    assert abs(reference.omitted_area(o, q, u) - by_parts) < mpmath.mpf(10) ** -50


def _extreme_pair(b, i):
    frame = geometry.SectorFrame(geometry.Point2D(0.0, 0.0), b)
    return ((0.0, 0.0),) + geometry.extreme_points(frame, i)


def test_area_check_catches_a_false_area_at_b_1e12():
    o, q, u = _extreme_pair(10**12, 5)
    ref = float(reference.omitted_area(o, q, u))
    assert 3.0e-17 < ref < 3.4e-17  # omitted * b ln^3 b ~ 0.679
    assert checks.check_area("b=1e12", ref, ref) == []
    assert checks.check_area("b=1e12", ref * (1 + 1e-6), ref) == []
    assert checks.check_area("b=1e12", 1.4e-5, ref)
    assert checks.check_area("b=1e12", ref * 1.01, ref)


def test_float64_omitted_area_passes_at_small_b_and_fails_at_1e12():
    """The known cancellation defect, seen by the same check."""
    for b, ok in ((10**3, True), (10**12, False)):
        o, q, u = _extreme_pair(b, 3)
        ref = float(reference.omitted_area(o, q, u))
        assert (checks.check_area(str(b), geometry.omitted_area(o, q, u), ref) == []) is ok


def test_invariant_check_catches_asymmetry_and_oversized_triple():
    assert checks.check_omitted_invariants("x", 1.0, 1.0, 0.5, [0.6, 0.7, 0.8]) == []
    assert checks.check_omitted_invariants("x", 1.0, 1.1, 0.5, [0.6, 0.7, 0.8])
    assert checks.check_omitted_invariants("x", -0.1, -0.1, 0.5, [0.6, 0.7, 0.8])
    assert checks.check_omitted_invariants("x", 1.0, 1.0, math.pi, [0.6, 0.7, 0.8])


def test_same_compares_nested_results():
    a = {"g": "graph", "x": [np.arange(3), (1, 2.0)]}
    assert checks.same(a, {"g": "graph", "x": [np.arange(3), (1, 2.0)]})
    assert not checks.same(a, {"g": "graph", "x": [np.arange(3) + 1, (1, 2.0)]})
    assert not checks.same(rule2.GatewaySet((1, 2)), rule2.GatewaySet((1, 3)))


# ------------------------------------------------------------------ loop


class _Pooled(workloads.Workload):
    """Three inputs in a pool; input 0 is a known failure."""

    name, counter_units, pool = "pooled", 2, 3

    def __init__(self, outputs):
        super().__init__(0, "")
        self.outputs = outputs

    def unit_input(self, k):
        return k % self.pool

    def run(self, call, inp):
        return {"v": self.outputs(inp)}

    def check(self, inp, out, count):
        return ([workloads.KNOWN + "x"] if inp == 0 else []), ({"n": 1} if count else {})

    def _aggregate(self, counts):
        return {"n": len(counts)}


def _run_loop(wl):
    return worker._loop(wl, argparse.Namespace(trace=0, seconds=0.001))


def test_loop_counts_each_pool_input_once():
    res = _run_loop(_Pooled(lambda inp: inp))
    assert len(res["unit_s"]) > 3 * _Pooled.pool
    assert (res["attempted"], res["failed"], res["unexpected"]) == (3, 1, [])
    assert res["counters"] == {"n": 2}


def test_loop_fails_a_repeat_that_changes_its_answer():
    tick = itertools.count()
    res = _run_loop(_Pooled(lambda inp: next(tick)))
    assert res["attempted"] == len(res["unit_s"])
    assert res["failed"] == len(res["unit_s"]) - 2  # all but the two passing first units
    assert res["unexpected"]


# ------------------------------------------------------------------ launcher


def test_launcher_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-sqrt", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
