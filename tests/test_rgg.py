"""Random point sampling and unit-disk-graph construction."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from udgprune import rgg
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
        with pytest.raises(ValueError, match="non-finite"):
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
