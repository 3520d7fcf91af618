"""Random point sampling and unit-disk-graph construction."""

import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from udgprune import rgg, rule2
from udgprune.geometry import SquareRegion

# a committed file in the `save_graph` format, so any change to how lines
# are formatted shows as a byte difference: 20 vertices, side 2.5, with
# coordinates 0.0, exactly the side, 5e-05, 1e-07 and 1/3
GOLDEN = Path(__file__).parent / "data" / "golden_graph.txt"


class TestSamplePoints:
    def test_single_point_inside(self):
        sq = SquareRegion(4.0)
        pts = rgg.sample_points(1, sq, seed=0)
        assert pts.shape == (1, 2)
        assert (pts >= 0).all() and (pts <= 4.0).all()

    def test_zero_points_rejected(self):
        with pytest.raises(ValueError):
            rgg.sample_points(0, SquareRegion(4.0), seed=0)

    def test_index_limit_checked_before_drawing(self, monkeypatch):
        monkeypatch.setattr(rgg, "_MAX_N", 3)
        sq = SquareRegion(3.0)
        assert rgg.sample_points(2, sq, seed=0).shape == (2, 2)
        with pytest.raises(ValueError, match="must be below 3"):
            rgg.sample_points(3, sq, seed=0)

    def test_side_limit_checked_before_drawing(self, monkeypatch):
        def no_rng(seed):
            raise AssertionError("np.random.default_rng was called")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        with pytest.raises(ValueError, match=r"square side 1e\+19: cell keys are int64"):
            rgg.sample_points(5, SquareRegion(1e19), 1)

    def test_deterministic(self):
        sq = SquareRegion(9.0)
        a = rgg.sample_points(1000, sq, seed=123)
        b = rgg.sample_points(1000, sq, seed=123)
        assert (a == b).all()

    def test_uniformity_chi_square(self):
        # 1e5 points on a 10x10 super-grid; alpha = 0.001, seed recorded
        sq = SquareRegion(50.0)
        pts = rgg.sample_points(100_000, sq, seed=2718)
        cells = np.floor(pts / 5.0).astype(int)
        counts = np.bincount(cells[:, 0] * 10 + cells[:, 1], minlength=100)
        _, pvalue = stats.chisquare(counts)
        assert pvalue > 0.001, pvalue


class TestBuildUdg:
    def test_close_pair_gets_edge(self):
        sq = SquareRegion(3.0)
        g = rgg.build_udg(np.array([[1.0, 1.0], [1.5, 1.0]]), sq)
        assert len(g.edges) == 1
        assert list(g.neighbors(1)) == [2] and list(g.neighbors(2)) == [1]

    def test_far_pair_gets_no_edge(self):
        sq = SquareRegion(3.0)
        g = rgg.build_udg(np.array([[0.5, 1.0], [2.0, 1.0]]), sq)
        assert len(g.edges) == 0

    def test_unit_distance_is_adjacent(self):
        # closed predicate: distance exactly 1 joins
        sq = SquareRegion(3.0)
        g = rgg.build_udg(np.array([[1.0, 1.0], [2.0, 1.0]]), sq)
        assert len(g.edges) == 1

    def test_outside_point_rejected(self):
        with pytest.raises(ValueError):
            rgg.build_udg(np.array([[1.0, 5.0]]), SquareRegion(3.0))

    @pytest.mark.parametrize(
        "pts,problem",
        [(np.ones((4, 3)), r"must be an \(n, 2\) array, got shape \(4, 3\)"),
         ([[1.0, 1.0], [np.nan, 2.0]], "non-finite coordinates")],
        ids=["three-columns", "nan"],
    )
    def test_malformed_points_rejected(self, pts, problem):
        with pytest.raises(ValueError, match=problem):
            rgg.build_udg(np.array(pts), SquareRegion(3.0))

    def test_matches_brute_force_2000(self):
        sq = SquareRegion(18.0)
        pts = rgg.sample_points(2000, sq, seed=55)
        g = rgg.build_udg(pts, sq)
        expected = rgg.brute_force_edges(pts)
        assert set(map(tuple, g.edges)) == set(map(tuple, expected))

    @pytest.mark.parametrize("seed,n,side", [(0, 100, 4.0), (1, 400, 7.5), (2, 900, 2.5)])
    def test_matches_brute_force_various(self, seed, n, side):
        sq = SquareRegion(side)
        pts = rgg.sample_points(n, sq, seed=seed)
        g = rgg.build_udg(pts, sq)
        # the same pairs, and in the same lexicographic (i, j) order
        assert np.array_equal(g.edges, rgg.brute_force_edges(pts))

    @pytest.mark.parametrize("side", [5.0, 4.5])
    def test_matches_brute_force_on_lattice(self, side):
        # a half-unit lattice: many pairs at distance exactly 1, every
        # point on a cell edge or corner, and a row and a column at
        # x == side and y == side; shuffled so ID order is not cell order
        ticks = np.arange(0.0, side + 0.25, 0.5)
        lattice = np.array([(x, y) for x in ticks for y in ticks])
        rim = np.column_stack([np.full(7, side), np.linspace(0.1, side - 0.1, 7)])
        pts = np.concatenate([lattice, rim, rim[:, ::-1]])
        pts = pts[np.random.default_rng(int(side * 10)).permutation(len(pts))]
        g = rgg.build_udg(pts, SquareRegion(side))
        expected = rgg.brute_force_edges(pts)
        assert np.array_equal(g.edges, expected)
        assert int(np.sum(np.sum((pts[expected[:, 0]] - pts[expected[:, 1]]) ** 2, axis=1) == 1.0)) > 50
        _check_row_split(g)

    @pytest.mark.parametrize("side", [0.5, 1.0, 1.5, 1.99])
    def test_matches_brute_force_in_one_or_two_columns(self, side):
        # below side 2 the square has one or two cell columns, and only the
        # empty key above each column keeps a run of keys from reaching a
        # cell twice: a quarter-unit lattice plus 200 random points, shuffled
        ticks = np.arange(0.0, side + 1e-9, 0.25)
        lattice = np.array([(x, y) for x in ticks for y in ticks])
        rng = np.random.default_rng(int(side * 100))
        pts = np.concatenate([lattice, rng.random((200, 2)) * side])
        pts = pts[rng.permutation(len(pts))]
        g = rgg.build_udg(pts, SquareRegion(side))
        assert np.array_equal(g.edges, rgg.brute_force_edges(pts))

    @staticmethod
    def _coincident():
        # 40 distinct points, each drawn 1 to 6 times, shuffled: exact key
        # ties, so the order the key sort leaves within a cell is free
        rng = np.random.default_rng(21)
        base = rng.random((40, 2)) * 4.0
        return SquareRegion(4.0), base[rng.permutation(np.repeat(np.arange(40), rng.integers(1, 7, 40)))]

    @staticmethod
    def _one_cell():
        # 200 points in the unit cell [2, 3)^2, a complete graph
        return SquareRegion(6.0), 2.0 + np.random.default_rng(22).random((200, 2))

    @staticmethod
    def _far_apart():
        # 50 points in a square of side 1e4: long runs of empty keys between
        # the occupied cells, and one close pair across a cell edge
        pts = np.random.default_rng(23).random((50, 2)) * 1e4
        pts[1] = pts[0] + 0.6
        assert (np.floor(pts[0]) != np.floor(pts[1])).any()
        return SquareRegion(1e4), pts

    @staticmethod
    def _single():
        return SquareRegion(2.0), np.array([[2.0, 2.0]])

    @pytest.mark.parametrize("make", ["_coincident", "_one_cell", "_far_apart", "_single"])
    def test_cell_ranges_match_brute_force(self, make):
        # each occupied cell's run bounds are searched once and read back
        # per point through its cell
        sq, pts = getattr(self, make)()
        g = rgg.build_udg(pts, sq)
        expected = rgg.brute_force_edges(pts)
        assert np.array_equal(g.edges, expected)
        assert len(expected) > 0 or len(pts) == 1
        _check_row_split(g)

    def test_index_dtypes(self):
        sq = SquareRegion(6.0)
        g = rgg.build_udg(rgg.sample_points(300, sq, seed=12), sq)
        assert g.edges.dtype == np.int32 and g.edges.shape == (len(g.edges), 2)
        assert g.nbr_flat.dtype == np.int32 and len(g.nbr_flat) == 2 * len(g.edges)
        assert g.nbr_offsets.dtype == np.int64 and len(g.nbr_offsets) == g.n + 1
        assert g.nbr_low.dtype == np.intp and len(g.nbr_low) == g.n

    @pytest.mark.parametrize(
        "pts",
        [np.empty((0, 2)), [[1.0, 1.0]], [[0.5, 0.5], [2.0, 0.5], [0.5, 2.0], [2.0, 2.0]]],
        ids=["n0", "n1", "far-apart"],
    )
    def test_graph_without_edges(self, pts):
        g = rgg.build_udg(np.array(pts), SquareRegion(3.0))
        assert g.edges.shape == (0, 2) and g.edges.dtype == np.int32
        assert len(g.nbr_flat) == 0 and (g.nbr_offsets == 0).all() and len(g.nbr_offsets) == g.n + 1
        assert all(len(g.neighbors(v)) == 0 for v in range(1, g.n + 1))
        _check_row_split(g)
        # every vertex keeps itself, and is a component of its own
        cds = rule2.prune(g)
        assert cds.members == tuple(range(1, g.n + 1))
        assert rule2.verify_cds(g, cds) == rule2.CdsReport(True, True, g.n, g.n)

    def test_small_passes_build_the_same_graph(self, monkeypatch):
        # passes of 7 candidates or edges: many passes per run of keys, and
        # single points with more candidates than one pass holds
        sq = SquareRegion(4.0)
        pts = rgg.sample_points(400, sq, seed=13)
        g = rgg.build_udg(pts, sq)
        monkeypatch.setattr(rgg, "_JOIN_BLOCK", 7)
        small = rgg.build_udg(pts, sq)
        assert np.array_equal(small.edges, g.edges)
        assert np.array_equal(small.edges, rgg.brute_force_edges(pts))
        assert np.array_equal(small.nbr_flat, g.nbr_flat)
        assert np.array_equal(small.nbr_offsets, g.nbr_offsets)
        assert np.array_equal(small.nbr_low, g.nbr_low)

    def test_lower_counts_match_the_rows(self, monkeypatch):
        # passes of 7 candidates or edges, so each row's lower neighbours are
        # filled over many passes; graphs from a few vertices to dense ones
        monkeypatch.setattr(rgg, "_JOIN_BLOCK", 7)
        rng = np.random.default_rng(41)
        for seed in range(12):
            n, side = int(rng.integers(1, 400)), float(rng.uniform(1.0, 12.0))
            sq = SquareRegion(side)
            _check_row_split(rgg.build_udg(rgg.sample_points(n, sq, seed=seed), sq))

    def test_n_at_the_index_limit_rejected(self, monkeypatch):
        # the limit is 2^31; a lowered one shows the check without the memory
        monkeypatch.setattr(rgg, "_MAX_N", 3)
        sq = SquareRegion(3.0)
        assert len(rgg.build_udg(np.array([[1.0, 1.0], [1.5, 1.0]]), sq).edges) == 1
        with pytest.raises(ValueError, match="must be below 3"):
            rgg.build_udg(np.array([[1.0, 1.0], [1.5, 1.0], [2.0, 1.0]]), sq)

    def test_matches_brute_force_just_below_the_side_limit(self):
        # the largest key searched for comes within two columns of keys of
        # 2^63: a quarter-unit lattice over the top 3x3 cells, every point on
        # a cell edge, plus random points in the same corner, shuffled
        side = rgg._MAX_SIDE - 0.5
        ticks = np.arange(math.floor(side) - 2.0, side + 1e-9, 0.25)
        lattice = np.array([(x, y) for x in ticks for y in ticks])
        rng = np.random.default_rng(7)
        pts = np.concatenate([lattice, side - 3.0 * rng.random((200, 2))])
        pts = pts[rng.permutation(len(pts))]
        g = rgg.build_udg(pts, SquareRegion(side))
        assert np.array_equal(g.edges, rgg.brute_force_edges(pts))

    @pytest.mark.parametrize("side", [float(rgg._MAX_SIDE), 5e9, 1e19])
    def test_side_at_the_key_limit_rejected(self, side):
        # cell keys are int64: a side from the limit up raises `ValueError`
        # before any key is made
        pts = np.array([[side - 0.5, side - 0.5], [side, side]])
        message = f"square side {side!r}: cell keys are int64, so the side must be below 3037000498"
        with pytest.raises(ValueError, match=re.escape(message)):
            rgg.build_udg(pts, SquareRegion(side))

    def test_traced_peak_stays_small(self):
        # the paper's regime at n = 16000 (mean degree ~30, m ~ 240k): the
        # graph's adjacency holds ~4.1 MB; the per-pass transients are
        # bounded, and the joined edge codes add 8 bytes per edge
        n = 16000
        sq = SquareRegion(rgg.ell_sqrt(n))
        pts = rgg.sample_points(n, sq, seed=14)
        tracemalloc.start()
        try:
            g = rgg.build_udg(pts, sq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(g.edges) > 200_000
        assert peak <= 15e6, peak

    def test_adjacency_symmetric_and_irreflexive(self):
        sq = SquareRegion(8.0)
        g = rgg.build_udg(rgg.sample_points(600, sq, seed=9), sq)
        for vid in range(1, g.n + 1):
            nb = g.neighbors(vid)
            assert vid not in nb
            assert (np.diff(nb) > 0).all() or len(nb) <= 1
        # symmetry via the edge list
        pairs = set(map(tuple, g.edges))
        for i, j in pairs:
            assert j + 1 in g.neighbors(i + 1) and i + 1 in g.neighbors(j + 1)

    def test_closed_neighborhood_contains_center(self):
        sq = SquareRegion(5.0)
        g = rgg.build_udg(rgg.sample_points(50, sq, seed=3), sq)
        nb = g.closed_neighborhood(7)
        assert 7 in nb
        assert set(nb) == {7} | set(int(x) for x in g.neighbors(7))
        _check_row_split(g)

    def test_neighbors_checks_the_id(self):
        sq = SquareRegion(5.0)
        g = rgg.build_udg(rgg.sample_points(50, sq, seed=3), sq)
        for vid in (0, -1, 51):
            with pytest.raises(ValueError, match="out of range 1..50"):
                g.neighbors(vid)

    def test_byte_identical_graphs_from_same_seed(self, tmp_path):
        sq = SquareRegion(6.0)
        g1 = rgg.build_udg(rgg.sample_points(200, sq, seed=4), sq, seed=4)
        g2 = rgg.build_udg(rgg.sample_points(200, sq, seed=4), sq, seed=4)
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        rgg.save_graph(g1, f1)
        rgg.save_graph(g2, f2)
        assert f1.read_bytes() == f2.read_bytes()


class TestComponents:
    def test_triangle_is_one_component(self):
        sq = SquareRegion(3.0)
        g = rgg.build_udg(np.array([[1.0, 1.0], [1.5, 1.0], [1.2, 1.4]]), sq)
        count, labels = rgg.components(g)
        assert count == 1 and len(set(labels)) == 1

    def test_far_pair_is_two_components(self):
        sq = SquareRegion(5.0)
        g = rgg.build_udg(np.array([[0.5, 0.5], [3.5, 3.5]]), sq)
        count, labels = rgg.components(g)
        assert count == 2 and labels[0] != labels[1]

    def test_dense_regime_is_usually_connected(self):
        # side sqrt(n / ln n) keeps the density at ln n per unit square,
        # comfortably above the connectivity threshold
        n = 5000
        side = rgg.ell_sqrt(n)
        sq = SquareRegion(side)
        connected = 0
        for seed in range(100):
            g = rgg.build_udg(rgg.sample_points(n, sq, seed=seed), sq)
            count, _ = rgg.components(g)
            connected += count == 1
        assert connected >= 95, connected

    def test_labels_match_scipy(self):
        rng = np.random.default_rng(2024)
        for seed in range(300):
            # sides up to 80 leave many components and isolated vertices
            n, side = int(rng.integers(1, 3001)), float(rng.uniform(0.5, 80.0))
            sq = SquareRegion(side)
            g = rgg.build_udg(rgg.sample_points(n, sq, seed=seed), sq)
            _check_against_scipy(rgg.components(g), n, g.edges)
            sub = g.edges[rng.random(len(g.edges)) < rng.random()]
            _check_against_scipy(rgg._component_labels(n, sub), n, sub)
        for n in (1, 500):
            none = np.empty((0, 2), dtype=np.int32)
            _check_against_scipy(rgg._component_labels(n, none), n, none)
        # about 516k edges: four passes of max(n, _JOIN_BLOCK) edges
        sq = SquareRegion(3.0)
        g = rgg.build_udg(rgg.sample_points(2000, sq, seed=7), sq)
        assert len(g.edges) > 3 * max(g.n, rgg._JOIN_BLOCK)
        _check_against_scipy(rgg.components(g), g.n, g.edges)

    def test_labels_match_scipy_in_passes_of_n_edges(self, monkeypatch):
        # passes of n edges, so a sparse graph with many components is
        # labelled in several passes, each joining what earlier ones left
        rng = np.random.default_rng(99)
        passes = []
        for seed in range(60):
            n = int(rng.integers(200, 1500))
            sq = SquareRegion(math.sqrt(n * math.pi / rng.uniform(2.5, 5.0)))
            g = rgg.build_udg(rgg.sample_points(n, sq, seed=seed), sq)
            passes.append(-(-len(g.edges) // n))
            with monkeypatch.context() as m:
                m.setattr(rgg, "_JOIN_BLOCK", 1)
                _check_against_scipy(rgg.components(g), n, g.edges)
        assert min(passes) >= 2


def _check_row_split(g):
    """Assert that ``nbr_low`` counts each row's lower neighbours and that
    `closed_neighborhood` is the row with the vertex inserted in order."""
    assert g.nbr_low.shape == (g.n,)
    for v in range(1, g.n + 1):
        nbr = g.neighbors(v)
        assert g.nbr_low[v - 1] == (nbr < v).sum()
        assert np.array_equal(g.closed_neighborhood(v), np.sort(np.append(nbr, v)))


def _check_against_scipy(got, n, edges):
    """Assert that ``got`` equals scipy's count and int32 labels."""
    # scipy is a test dependency only; the labelling it checks is numpy
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    ones = np.ones(len(edges), dtype=np.int8)
    count, labels = connected_components(coo_matrix((ones, edges.T), shape=(n, n)), directed=False)
    assert got[0] == count and got[1].dtype == np.int32
    assert np.array_equal(got[1], labels)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        sq = SquareRegion(7.0)
        g = rgg.build_udg(rgg.sample_points(150, sq, seed=77), sq, seed=77)
        path = tmp_path / "graph.txt"
        rgg.save_graph(g, path)
        g2 = rgg.load_graph(path)
        assert g2.n == g.n and g2.square.side == g.square.side and g2.seed == 77
        assert (g2.points == g.points).all()
        assert np.array_equal(g2.edges, g.edges)
        _check_row_split(g2)

    def test_golden_file_reads_and_rewrites_byte_for_byte(self, tmp_path):
        g = rgg.load_graph(GOLDEN)
        assert g.n == 20 and g.square.side == 2.5 and g.seed == 7
        assert g.points[1].tolist() == [2.5, 2.5]
        assert g.points[2].tolist() == [5e-05, 1e-07]
        assert g.points[3].tolist() == [1 / 3, 2 / 3]
        path = tmp_path / "again.txt"
        rgg.save_graph(g, path)
        assert path.read_bytes() == GOLDEN.read_bytes()

    def test_shuffled_ids_and_blank_lines_load(self, tmp_path):
        path = tmp_path / "shuffled.txt"
        path.write_text("3 5.0 0\n\n3 3.0 3.5\n   \n1 1.0 1.5\n2 1.5 1.0\n\n")
        g = rgg.load_graph(path)
        assert g.points.tolist() == [[1.0, 1.5], [1.5, 1.0], [3.0, 3.5]]
        assert g.edges.tolist() == [[0, 1]]

    @pytest.mark.filterwarnings("error")
    def test_empty_body_reports_missing_vertices(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("3 5.0 0\n\n")
        with pytest.raises(ValueError, match=r"graph file .*empty\.txt is missing 3 vertices"):
            rgg.load_graph(path)

    def test_missing_vertices_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 5.0 0\n1 1.0 1.0\n2 2.0 2.0\n")
        with pytest.raises(ValueError):
            rgg.load_graph(path)

    def test_repeated_vertex_id_rejected(self, tmp_path):
        # all three IDs present, but ID 2 listed twice: the second line
        # would overwrite the first point
        path = tmp_path / "dup.txt"
        path.write_text("3 5.0 0\n1 1.0 1.0\n2 2.0 2.0\n2 3.0 3.0\n3 4.0 4.0\n")
        with pytest.raises(ValueError, match=r"vertex id 2 appears twice in .*dup\.txt"):
            rgg.load_graph(path)

    def test_first_repeating_line_is_named(self, tmp_path):
        # IDs 3, 1, 3, 1: the third line is the first to repeat an ID
        path = tmp_path / "dup.txt"
        path.write_text("3 5.0 0\n3 1.0 1.0\n1 2.0 2.0\n3 3.0 3.0\n1 4.0 4.0\n")
        with pytest.raises(ValueError, match=r"vertex id 3 appears twice in .*dup\.txt"):
            rgg.load_graph(path)

    @pytest.mark.parametrize(
        "body,lineno",
        [
            ("1 1.0 1.0\n\n2 2.0\n3 3.0 3.0\n", 4),
            ("1 1.0 1.0\n2 2.0 2.0 7\n3 3.0 3.0\n", 3),
            ("1 1.0 1.0\n\n\n1.5 2.0 2.0\n3 3.0 3.0\n", 5),
            ("# note\n1 1.0 1.0\n2 2.0 2.0\n3 3.0 3.0\n", 2),
            ("1 1.0 1.0\n2 2.0 2.0\n3 x 3.0\n", 4),
        ],
        ids=["two-fields", "four-fields", "float-id", "comment", "bad-float"],
    )
    def test_malformed_line_named(self, tmp_path, body, lineno):
        path = tmp_path / "bad.txt"
        path.write_text("3 5.0 0\n" + body)
        with pytest.raises(ValueError, match=rf"bad vertex line in .*bad\.txt: line {lineno}:"):
            rgg.load_graph(path)

    def test_out_of_range_id_rejected(self, tmp_path):
        path = tmp_path / "range.txt"
        path.write_text("3 5.0 0\n1 1.0 1.0\n4 2.0 2.0\n3 3.0 3.0\n")
        with pytest.raises(ValueError, match=r"vertex id 4 out of range 1\.\.3 in .*range\.txt"):
            rgg.load_graph(path)

    def test_nan_coordinate_rejected(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("2 5.0 0\n1 1.0 1.0\n2 nan 2.0\n")
        with pytest.raises(ValueError, match=r"bad point in .*nan\.txt: line 3: vertex 2 has non-finite"):
            rgg.load_graph(path)

    @pytest.mark.parametrize(
        "line,problem",
        [
            ("3 2.0 -inf", r"has non-finite coordinates"),
            ("3 5.0 5.000000000000001", r"at \(5\.0, 5\.000000000000001\) lies outside the square of side 5\.0"),
            ("3 -0.5 1.0", r"at \(-0\.5, 1\.0\) lies outside"),
        ],
        ids=["-inf", "above-side", "negative"],
    )
    def test_bad_point_names_file_line_and_vertex(self, tmp_path, line, problem):
        # the bad line is the second body line but file line 4, after a blank
        # line, and the later bad line 5 is not the one named
        path = tmp_path / "pts.txt"
        path.write_text(f"3 5.0 0\n2 1.0 1.0\n\n{line}\n1 7.0 7.0\n")
        with pytest.raises(ValueError, match=rf"bad point in .*pts\.txt: line 4: vertex 3 {problem}"):
            rgg.load_graph(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 5.0\n")
        with pytest.raises(ValueError):
            rgg.load_graph(path)

    @pytest.mark.parametrize(
        "header", ["0 5.0 0", "-1 5.0 0", "1 5.0 x", "1 -5.0 0"], ids=["n0", "n-1", "seed-x", "side<0"]
    )
    def test_bad_header_values_rejected(self, tmp_path, header):
        path = tmp_path / "hdr.txt"
        path.write_text(header + "\n1 1.0 1.0\n")
        with pytest.raises(ValueError, match=r"bad graph header in .*hdr\.txt"):
            rgg.load_graph(path)


class TestSideHelpers:
    def test_sqrt_rule(self):
        assert rgg.ell_sqrt(1000) == pytest.approx(math.sqrt(1000 / math.log(1000)))
        assert rgg.ell_sqrt(1000, c=2.0) == pytest.approx(2 * math.sqrt(1000 / math.log(1000)))

    def test_power_rule(self):
        assert rgg.ell_power(1000, 0.4) == pytest.approx((1000 / math.log(1000)) ** 0.4)
