"""The pruning rule, its brute-force oracle, and CDS verification."""

import math
import tracemalloc

import numpy as np
import pytest

from udgprune import rgg, rule2
from udgprune.geometry import SquareRegion


def _graph(points, side=10.0):
    return rgg.build_udg(np.asarray(points, dtype=float), SquareRegion(side))


@pytest.fixture()
def triangle():
    # IDs 1, 2, 3 pairwise within distance 1
    return _graph([[1.0, 1.0], [1.8, 1.0], [1.4, 1.5]])


@pytest.fixture()
def broken_path():
    # 1 - 2 - 3 with the endpoints out of range of each other
    return _graph([[1.0, 1.0], [1.9, 1.0], [2.8, 1.0]])


class TestIsExcluded:
    def test_isolated_vertex_kept(self):
        g = _graph([[1.0, 1.0], [5.0, 5.0]])
        assert rule2.is_excluded(g, 1) is None
        assert rule2.is_excluded(g, 2) is None

    def test_triangle_lowest_id_excluded(self, triangle):
        assert rule2.is_excluded(triangle, 1) == (3, 2)

    def test_triangle_higher_ids_kept(self, triangle):
        assert rule2.is_excluded(triangle, 2) is None
        assert rule2.is_excluded(triangle, 3) is None

    def test_broken_path_keeps_everything(self, broken_path):
        for vid in (1, 2, 3):
            assert rule2.is_excluded(broken_path, vid) is None

    def test_unknown_id_rejected(self, triangle):
        with pytest.raises(ValueError):
            rule2.is_excluded(triangle, 0)
        with pytest.raises(ValueError):
            rule2.is_excluded(triangle, 4)

    def test_witness_invariants_hold(self):
        sq = SquareRegion(6.0)
        for seed in range(30):
            pts = rgg.sample_points(120, sq, seed=seed)
            g = rgg.build_udg(pts, sq)
            for vid in range(1, g.n + 1):
                w = rule2.is_excluded(g, vid)
                if w is None:
                    continue
                i1, i2 = w
                assert i1 > i2 > vid
                # the pair is adjacent
                assert i2 in g.neighbors(i1)
                # and covers the closed neighborhood
                target = set(map(int, g.closed_neighborhood(vid)))
                union = set(map(int, g.closed_neighborhood(i1))) | set(
                    map(int, g.closed_neighborhood(i2))
                )
                assert target <= union

    def test_names_the_lexicographically_largest_pair(self):
        # every valid pair of every vertex, against the one reported
        rng = np.random.default_rng(808)
        named = 0
        for seed in range(60):
            n, side = int(rng.integers(2, 61)), float(rng.uniform(1.2, 4.0))
            sq = SquareRegion(side)
            g = rgg.build_udg(rgg.sample_points(n, sq, seed=seed + 8000), sq)
            closed = {v: set(g.closed_neighborhood(v).tolist()) for v in range(1, n + 1)}
            for i in range(1, n + 1):
                valid = [
                    (i1, i2)
                    for i1 in closed[i]
                    for i2 in closed[i] & closed[i1]
                    if i1 > i2 > i and closed[i] <= closed[i1] | closed[i2]
                ]
                assert rule2.is_excluded(g, i) == max(valid, default=None), (seed, i)
                named += len(valid) > 1
        # most witnesses are one of several valid pairs
        assert named > 1000

    def test_degree_le_one_never_excluded(self):
        # a covering pair needs two higher-ID neighbors
        sq = SquareRegion(8.0)
        for seed in range(20):
            pts = rgg.sample_points(80, sq, seed=seed)
            g = rgg.build_udg(pts, sq)
            for vid in range(1, g.n + 1):
                if len(g.neighbors(vid)) <= 1:
                    assert rule2.is_excluded(g, vid) is None


class TestPrune:
    def test_single_vertex(self):
        g = _graph([[1.0, 1.0]])
        assert rule2.prune(g).members == (1,)

    def test_triangle(self, triangle):
        assert rule2.prune(triangle).members == (2, 3)

    def test_members_sorted_and_sized(self):
        sq = SquareRegion(7.0)
        g = rgg.build_udg(rgg.sample_points(300, sq, seed=1), sq)
        cds = rule2.prune(g)
        assert list(cds.members) == sorted(cds.members)
        assert cds.size == len(cds.members)

    def test_random_graph_produces_valid_cds(self):
        side = rgg.ell_sqrt(500)
        sq = SquareRegion(side)
        g = rgg.build_udg(rgg.sample_points(500, sq, seed=42), sq)
        report = rule2.verify_cds(g, rule2.prune(g))
        assert report.dominating and report.component_preserving

    def test_keeps_exactly_the_vertices_without_a_witness(self):
        for seed, (n, side) in enumerate([(300, 7.0), (400, 4.0), (200, 2.0)]):
            sq = SquareRegion(side)
            g = rgg.build_udg(rgg.sample_points(n, sq, seed=seed + 700), sq)
            kept = tuple(i for i in range(1, g.n + 1) if rule2.is_excluded(g, i) is None)
            assert rule2.prune(g).members == kept


def _triple_loop_prune(g):
    """The rule as a triple loop over plain sets: every candidate pair
    (i1, i2) of N[i] in turn, then the adjacency and the union.  Reference
    for `rule2.brute_force_prune`, which draws i2 from fewer candidates."""
    closed: dict[int, set[int]] = {}

    def nset(v: int) -> set[int]:
        if v not in closed:
            closed[v] = {v} | {int(w) for w in g.neighbors(v)}
        return closed[v]

    kept = []
    for i in range(1, g.n + 1):
        neighborhood = nset(i)
        excluded = False
        for i1 in sorted(neighborhood):
            if i1 <= i or excluded:
                continue
            for i2 in sorted(neighborhood):
                if not (i < i2 < i1):
                    continue
                if i2 not in nset(i1):
                    continue  # the pair must be adjacent
                if neighborhood <= (nset(i1) | nset(i2)):
                    excluded = True
                    break
        if not excluded:
            kept.append(i)
    return tuple(kept)


def _word_boundary_graph(size):
    """Vertex 1 with |N[1]| = ``size``: a tight cluster (IDs 2..size-1) on
    one side and, as the highest ID, a far neighbour that no higher
    neighbour of 1 reaches.  Only that last member keeps vertex 1, and it
    sits in slot size-1 of the closed neighbourhood."""
    rng = np.random.default_rng(size)
    cluster = np.array([1.5, 2.0]) + rng.uniform(-0.05, 0.05, (size - 2, 2))
    return _graph(np.vstack([[2.0, 2.0], cluster, [2.9, 2.0]]), side=4.0)


class TestBruteForceOracle:
    def test_empty_edge_set(self):
        g = _graph([[0.5, 0.5], [3.0, 0.5], [5.5, 0.5], [8.0, 0.5]])
        assert rule2.brute_force_prune(g).members == (1, 2, 3, 4)

    def test_triangle(self, triangle):
        assert rule2.brute_force_prune(triangle).members == (2, 3)

    @pytest.mark.parametrize("size", [63, 64, 65, 130])
    def test_matches_at_mask_word_boundaries(self, size):
        g = _word_boundary_graph(size)
        assert len(g.closed_neighborhood(1)) == size
        members = rule2.prune(g).members
        assert members[0] == 1
        assert members == rule2.brute_force_prune(g).members
        assert members == _triple_loop_prune(g)

    def test_matches_fast_path_on_dense_graphs(self):
        # closed neighbourhoods of up to 200 members: up to four mask words
        for seed, (n, side) in enumerate([(150, 1.2), (200, 1.6)]):
            sq = SquareRegion(side)
            g = rgg.build_udg(rgg.sample_points(n, sq, seed=seed + 900), sq)
            assert np.diff(g.nbr_offsets).max() + 1 > 128
            assert rule2.prune(g).members == rule2.brute_force_prune(g).members
            assert rule2.prune(g).members == _triple_loop_prune(g)

    def test_matches_the_triple_loop_on_random_graphs(self):
        rng = np.random.default_rng(404)
        excluded = kept_candidates = 0
        for seed in range(400):
            n, side = int(rng.integers(2, 201)), float(rng.uniform(1.2, 6.0))
            sq = SquareRegion(side)
            g = rgg.build_udg(rgg.sample_points(n, sq, seed=seed + 7000), sq)
            kept = _triple_loop_prune(g)
            assert rule2.brute_force_prune(g).members == kept, (seed, n, side)
            excluded += g.n - len(kept)
            kept_candidates += int((_up_counts(g)[np.array(kept) - 1] >= 2).sum())
        # both decisions are made many times, on vertices that have a pair
        assert excluded > 20_000 and kept_candidates > 5_000

    def test_matches_fast_path_on_random_graphs(self):
        for seed in range(150):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 31))
            side = float(rng.uniform(1.5, 4.5))
            sq = SquareRegion(side)
            pts = rgg.sample_points(n, sq, seed=seed + 5000)
            g = rgg.build_udg(pts, sq)
            assert rule2.prune(g).members == rule2.brute_force_prune(g).members

    def test_lower_counts_in_passes_of_one_edge(self, monkeypatch):
        # graphs built in passes of one candidate or edge, so the
        # lower-neighbour counts `prune` reads come from a build whose rows
        # are filled over more than 2n passes
        rng = np.random.default_rng(17)
        for seed in range(20):
            n = int(rng.integers(200, 800))
            sq = SquareRegion(math.sqrt(n * math.pi / rng.uniform(5.0, 8.0)))
            pts = rgg.sample_points(n, sq, seed=seed)
            with monkeypatch.context() as m:
                m.setattr(rgg, "_JOIN_BLOCK", 1)
                g = rgg.build_udg(pts, sq)
            assert len(g.edges) > 2 * n
            assert rule2.prune(g).members == rule2.brute_force_prune(g).members

    def test_matches_fast_path_on_small_dense_graphs(self):
        # each graph has candidates on both sides of the witness cut-off, so
        # both the witness pair and the miss masks decide some vertices
        rng = np.random.default_rng(61)
        for seed in range(12):
            n, side = int(rng.integers(60, 201)), float(rng.uniform(2.0, 4.0))
            sq = SquareRegion(side)
            g = rgg.build_udg(rgg.sample_points(n, sq, seed=seed + 6000), sq)
            up = _up_counts(g)
            assert ((up >= 2) & (up < rule2._WITNESS_MIN_UP)).any()
            assert (up >= rule2._WITNESS_MIN_UP).any()
            assert rule2.prune(g).members == rule2.brute_force_prune(g).members


def _up_counts(g):
    """Higher-ID neighbours of each vertex (0-based index)."""
    return np.diff(g.nbr_offsets) - np.bincount(g.edges[:, 1], minlength=g.n)


def _padded_columns(g):
    """The point coordinates with the NaN that `rule2._closed_rows` pads with."""
    return tuple(np.append(col, np.nan) for col in g.points.T)


def _record(monkeypatch, log, *names):
    """Patch each named function of `rule2` to append (name, args) to
    ``log`` before it runs."""
    for name in names:

        def recorded(*args, name=name, fn=getattr(rule2, name)):
            log.append((name, args))
            return fn(*args)

        monkeypatch.setattr(rule2, name, recorded)


def _mixed_degree_graph():
    """A dense cluster inside a sparse field: degrees from a few to ~60, so
    one degree-ordered block can hold rows of very different widths."""
    rng = np.random.default_rng(5)
    pts = np.vstack([rng.random((200, 2)) * 10.0, rng.normal(5.0, 0.4, (60, 2))])
    return _graph(rng.permutation(pts))


class TestDegreeOrderedBlocks:
    @pytest.mark.parametrize("cells", [7, 64])
    def test_small_blocks_match_the_oracle(self, monkeypatch, cells):
        g = _mixed_degree_graph()
        deg = np.diff(g.nbr_offsets)
        assert deg[deg > 0].min() <= 2 and deg.max() >= 50
        monkeypatch.setattr(rule2, "_WITNESS_CELLS", cells)
        monkeypatch.setattr(rule2, "_MASK_CELLS", cells)
        assert rule2.prune(g).members == rule2.brute_force_prune(g).members

    @pytest.mark.parametrize("seed", [2, 3])
    def test_paper_regime_matches_the_oracle(self, monkeypatch, seed):
        # n = 16000 at mean degree ~30: both loops run over many blocks
        n = 16000
        sq = SquareRegion(rgg.ell_sqrt(n))
        g = rgg.build_udg(rgg.sample_points(n, sq, seed=seed), sq)
        log = []
        _record(monkeypatch, log, "_witness_covers", "_masks_cover")
        assert rule2.prune(g).members == rule2.brute_force_prune(g).members
        loops = [name for name, _ in log]
        assert loops.count("_witness_covers") >= 5 and loops.count("_masks_cover") >= 5

    def test_mask_loop_gathers_what_the_witness_loop_left(self, monkeypatch):
        n = 2000
        sq = SquareRegion(rgg.ell_sqrt(n))
        g = rgg.build_udg(rgg.sample_points(n, sq, seed=4), sq)
        deg, up = np.diff(g.nbr_offsets), _up_counts(g)
        # the witness pairs on all their candidates at once, as one block
        first = np.flatnonzero(up >= rule2._WITNESS_MIN_UP)
        xs, ys = rule2._closed_rows(g, *_padded_columns(g), first, deg[first])
        left = first[~rule2._witness_covers(xs, ys, deg[first] - up[first])]
        assert 0 < len(left) < len(first)

        monkeypatch.setattr(rule2, "_WITNESS_CELLS", 1 << 10)
        monkeypatch.setattr(rule2, "_MASK_CELLS", 1 << 10)
        log = []
        _record(monkeypatch, log, "_closed_rows", "_witness_covers", "_masks_cover")
        rule2.prune(g)
        # each block gathers its rows, then one loop decides them
        assert [name for name, _ in log[::2]] == ["_closed_rows"] * (len(log) // 2)
        loops = [name for name, _ in log[1::2]]
        n_first = loops.count("_witness_covers")
        assert n_first > 1 and loops == ["_witness_covers"] * n_first + ["_masks_cover"] * (len(loops) - n_first)
        verts = [args[3] for _, args in log[::2]]
        np.testing.assert_array_equal(np.sort(np.concatenate(verts[:n_first])), first)
        want = np.union1d(np.flatnonzero((up >= 2) & (up < rule2._WITNESS_MIN_UP)), left)
        np.testing.assert_array_equal(np.sort(np.concatenate(verts[n_first:])), want)

    def test_rows_are_i_then_neighbours_then_nan(self):
        g = _mixed_degree_graph()
        deg = np.diff(g.nbr_offsets)
        # IDs out of order, with isolated and high-degree vertices
        verts = np.random.default_rng(1).permutation(g.n)[:40]
        assert deg[verts].min() == 0 and deg[verts].max() >= 50
        xs, ys = rule2._closed_rows(g, *_padded_columns(g), verts, deg[verts])
        assert xs.shape == ys.shape == (40, deg[verts].max() + 1)
        for row, i in enumerate(verts):
            members = np.append(i, g.neighbors(i + 1) - 1)
            want = np.full((2, xs.shape[1]), np.nan)
            want[:, : len(members)] = g.points[members].T
            np.testing.assert_array_equal(xs[row], want[0])
            np.testing.assert_array_equal(ys[row], want[1])

    def test_traced_peak_stays_small(self):
        # the paper's regime at n = 16000 (mean degree ~30): the blocks'
        # transients and the two padded coordinate columns
        n = 16000
        sq = SquareRegion(rgg.ell_sqrt(n))
        g = rgg.build_udg(rgg.sample_points(n, sq, seed=1), sq)
        tracemalloc.start()
        try:
            rule2.prune(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6, peak


class TestWitnessPhase:
    def test_masks_decide_what_the_witness_pair_misses(self):
        n = 500
        sq = SquareRegion(rgg.ell_sqrt(n))
        g = rgg.build_udg(rgg.sample_points(n, sq, seed=8), sq)
        deg, up = np.diff(g.nbr_offsets), _up_counts(g)
        verts = np.flatnonzero(up >= rule2._WITNESS_MIN_UP)
        xs, ys = rule2._closed_rows(g, *_padded_columns(g), verts, deg[verts])
        by_pair = set((verts[rule2._witness_covers(xs, ys, deg[verts] - up[verts])] + 1).tolist())

        members = rule2.prune(g).members
        assert members == rule2.brute_force_prune(g).members
        excluded = set(range(1, n + 1)) - set(members)
        assert by_pair and by_pair <= excluded
        # vertices the witness pair was tried on and missed, which only the
        # miss masks exclude
        assert (excluded & set((verts + 1).tolist())) - by_pair

    def test_second_pair_excludes_what_the_first_misses(self, monkeypatch):
        n = 500
        sq = SquareRegion(rgg.ell_sqrt(n))
        g = rgg.build_udg(rgg.sample_points(n, sq, seed=8), sq)
        deg, up = np.diff(g.nbr_offsets), _up_counts(g)
        verts = np.flatnonzero(up >= rule2._WITNESS_MIN_UP)
        xs, ys = rule2._closed_rows(g, *_padded_columns(g), verts, deg[verts])
        # the first call tests (a, b) on every row, the second (a, b') on
        # the rows the first missed
        tries = []
        pair_covers = rule2._pair_covers

        def recorded(*args):
            covered = pair_covers(*args)
            tries.append(covered.copy())
            return covered

        monkeypatch.setattr(rule2, "_pair_covers", recorded)
        by_either = rule2._witness_covers(xs, ys, deg[verts] - up[verts])
        first, second = tries
        by_second = verts[np.flatnonzero(~first)[second]] + 1
        assert (by_either == first | np.isin(verts + 1, by_second)).all()

        members = rule2.brute_force_prune(g).members
        excluded = set(range(1, n + 1)) - set(members)
        assert len(by_second) and set(by_second.tolist()) <= excluded
        # and the miss masks still decide some vertex both pairs missed
        assert excluded & set((verts[~by_either] + 1).tolist())

    def test_witness_pair_must_cover_exactly(self):
        # vertex 2 has six higher neighbours on a line through it; its
        # witness pair is a (+0.05) and b (-0.0501), and vertex 1 lies
        # just outside both of their disks (squared distances 1.00005 and
        # 1.00006), as it does for every other pair, so vertex 2 is kept
        above = np.sqrt(0.99755)
        offsets = [0.05, -0.0501, 0.06, 0.07, 0.08, -0.09]
        g = _graph([[2.0, 2.0 + above], [2.0, 2.0]] + [[2.0 + d, 2.0] for d in offsets], side=4.0)
        assert _up_counts(g)[1] == rule2._WITNESS_MIN_UP
        assert 2 in rule2.brute_force_prune(g).members
        assert rule2.prune(g).members == rule2.brute_force_prune(g).members


class TestVerifyCds:
    def test_all_vertices_always_valid(self):
        sq = SquareRegion(6.0)
        g = rgg.build_udg(rgg.sample_points(60, sq, seed=2), sq)
        report = rule2.verify_cds(g, rule2.GatewaySet(members=tuple(range(1, 61))))
        assert report.dominating and report.component_preserving

    def test_empty_set_fails_dominating(self, triangle):
        report = rule2.verify_cds(triangle, rule2.GatewaySet(members=()))
        assert not report.dominating
        assert not report.component_preserving

    def test_triangle_pair(self, triangle):
        report = rule2.verify_cds(triangle, rule2.GatewaySet(members=(2, 3)))
        assert report.dominating and report.component_preserving

    def test_missing_isolated_vertex_detected(self):
        g = _graph([[1.0, 1.0], [1.5, 1.0], [6.0, 6.0]])  # pair + isolated 3
        report = rule2.verify_cds(g, rule2.GatewaySet(members=(1,)))
        assert not report.dominating
        assert report.components_graph == 2 and report.components_induced == 1

    def test_component_count_must_match(self):
        # two separate pairs; picking both members of one pair only
        g = _graph([[1.0, 1.0], [1.5, 1.0], [6.0, 6.0], [6.5, 6.0]])
        report = rule2.verify_cds(g, rule2.GatewaySet(members=(1, 2)))
        assert not report.dominating  # 3, 4 uncovered
        assert report.components_graph == 2 and report.components_induced == 1

    def test_graph_without_edges(self):
        n = 4
        g = _graph([[0.5 + 2.5 * k, 0.5] for k in range(n)])
        assert len(g.edges) == 0
        report = rule2.verify_cds(g, rule2.GatewaySet(members=tuple(range(1, n + 1))))
        assert report.dominating and report.component_preserving
        assert report.components_graph == report.components_induced == n
        report = rule2.verify_cds(g, rule2.GatewaySet(members=tuple(range(2, n + 1))))
        assert not report.dominating and not report.component_preserving
        assert report.components_graph == n and report.components_induced == n - 1

    def test_foreign_member_rejected(self, triangle):
        with pytest.raises(ValueError):
            rule2.verify_cds(triangle, rule2.GatewaySet(members=(1, 9)))

    @pytest.mark.parametrize(
        "members,bad",
        [
            ((1.7,), 1.7),
            ((True,), True),
            ((1.0,), 1.0),
            ((2, 1.7), 1.7),
            ((2, "1"), "1"),
            ((2, True), True),
            ((2**70,), 2**70),
        ],
    )
    def test_non_integer_member_rejected(self, members, bad):
        # an int64 conversion would read 1.7, True and 1.0 as vertex 1, and
        # numpy promotes a bool among ints to an int
        g = _graph([[1.0, 1.0], [1.5, 1.0]])
        with pytest.raises(ValueError, match=f"not a 64-bit integer: {bad!r}$"):
            rule2.verify_cds(g, rule2.GatewaySet(members=members))

    def test_numpy_integer_member_accepted(self):
        g = _graph([[1.0, 1.0], [1.5, 1.0]])
        assert rule2.verify_cds(g, rule2.GatewaySet(members=(np.int64(1),))).dominating
        assert rule2.verify_cds(g, rule2.GatewaySet(members=(np.int32(1),))).dominating


class TestIdPermutationSensitivity:
    def test_any_relabeling_still_yields_a_cds(self):
        # the pruned set depends on the ID order, but it must stay a valid
        # CDS under every relabeling
        sq = SquareRegion(5.0)
        base = rgg.sample_points(120, sq, seed=10)
        rng = np.random.default_rng(99)
        for _ in range(10):
            perm = rng.permutation(len(base))
            g = rgg.build_udg(base[perm], sq)
            report = rule2.verify_cds(g, rule2.prune(g))
            assert report.dominating and report.component_preserving

    def test_pruned_set_depends_on_labels(self):
        # sanity: relabeling usually changes which vertices survive
        sq = SquareRegion(5.0)
        base = rgg.sample_points(120, sq, seed=11)
        g1 = rgg.build_udg(base, sq)
        g2 = rgg.build_udg(base[::-1], sq)
        m1 = {tuple(np.round(g1.points[m - 1], 9)) for m in rule2.prune(g1).members}
        m2 = {tuple(np.round(g2.points[m - 1], 9)) for m in rule2.prune(g2).members}
        assert m1 != m2


class TestWuLiCorrectness:
    def test_thirty_seeded_trials(self):
        side = rgg.ell_sqrt(500)
        sq = SquareRegion(side)
        for seed in range(30):
            g = rgg.build_udg(rgg.sample_points(500, sq, seed=seed), sq)
            report = rule2.verify_cds(g, rule2.prune(g))
            assert report.dominating and report.component_preserving, seed
