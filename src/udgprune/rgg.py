"""Random point sets in a square and the induced unit disk graph.

Vertices carry 1-based integer IDs; ID order is the total order the
pruning rule uses.  Adjacency joins vertices at Euclidean distance <= 1.
It is built by a cell join: the points are sorted by unit-side cell key,
and each point is joined with two runs of consecutive keys, whose slot
bounds are found by ``searchsorted`` once per occupied cell and read back
per point through its cell, so a radius-1 query touches at most a 3x3
block of cells and no Python loop runs per cell.  The join and the
adjacency fill run in passes of bounded size, and vertex indices are
int32; the join's passes are cut by `_blocks`, which cuts `rule2.prune`'s
blocks too.
`components` is a union-find over passes of edges, in numpy alone.  A
constructed graph is immutable and safe to share across workers.
`save_graph` and `load_graph` move a graph through a text file of its
points in bulk: lines are formatted and written in blocks, and the body
is parsed by one ``np.loadtxt`` call and checked with array operations.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .geometry import SquareRegion, _sq_dist

__all__ = [
    "UnitDiskGraph",
    "sample_points",
    "build_udg",
    "brute_force_edges",
    "components",
    "save_graph",
    "load_graph",
    "ell_sqrt",
    "ell_power",
]


def ell_sqrt(n: int, c: float = 1.0) -> float:
    """Habitat side c * sqrt(n / ln n)."""
    return c * math.sqrt(n / math.log(n))


def ell_power(n: int, t: float) -> float:
    """Habitat side (n / ln n)^t for a fixed exponent t < 1/2."""
    return (n / math.log(n)) ** t


def sample_points(n: int, square: SquareRegion, seed: int) -> np.ndarray:
    """Draw ``n`` i.i.d. uniform points in the square; row j is vertex j+1.

    Deterministic given the seed.  Raises `ValueError` for n >= 2^31 or
    a side of at least ``_MAX_SIDE`` before drawing anything, as
    `build_udg` would reject the points.
    """
    if n < 1:
        raise ValueError(f"need at least one point, got n={n}")
    _check_vertex_count(n)
    _check_side(square.side)
    rng = np.random.default_rng(seed)
    return rng.random((n, 2)) * square.side


@dataclass(frozen=True)
class UnitDiskGraph:
    """Immutable unit disk graph over ID-labeled points.

    ``points[j]`` holds the position of vertex ID j+1.  ``edges`` is an
    (m, 2) int32 array of 0-based index pairs with i < j, in lexicographic
    order; the CSR-style arrays ``nbr_flat`` (int32, 2m) and
    ``nbr_offsets`` (int64, n + 1, since 2m can pass 2^31) give each
    vertex's sorted neighbor IDs.  So n < 2^31.  ``nbr_low`` (intp, n)
    counts each row's neighbours with a lower ID, so the higher ones of
    vertex index v start at ``nbr_offsets[v] + nbr_low[v]``.  ``edges``
    holds every edge a second time: `components` labels it in passes, and
    `rule2.verify_cds` gathers its whole columns.
    """

    points: np.ndarray
    square: SquareRegion
    seed: int
    edges: np.ndarray
    nbr_flat: np.ndarray = field(repr=False)
    nbr_offsets: np.ndarray = field(repr=False)
    nbr_low: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.points)

    def neighbors(self, vid: int) -> np.ndarray:
        """Sorted array of 1-based neighbor IDs of vertex ``vid``."""
        if not 1 <= vid <= self.n:
            raise ValueError(f"vertex id {vid} out of range 1..{self.n}")
        return self.nbr_flat[self.nbr_offsets[vid - 1] : self.nbr_offsets[vid]]

    def closed_neighborhood(self, vid: int) -> np.ndarray:
        """Sorted IDs of ``vid`` and everything adjacent to it."""
        return np.insert(self.neighbors(vid), self.nbr_low[vid - 1], vid)


# candidate pairs per pass of the cell join, and edges per pass of the CSR
# fill: each pass's arrays are a small multiple of this, but the edge codes
# the join keeps grow with the edge count (see `build_udg`)
_JOIN_BLOCK = 1 << 17


def _blocks(cost, cells) -> list[slice]:
    """Consecutive slices of the items costed by ``cost``, a new slice
    starting at each multiple of ``cells`` in the running sum of ``cost``:
    a slice costs less than ``cells`` plus the cost of its last item.
    `build_udg`'s join passes and `rule2.prune`'s blocks are cut by it."""
    if not len(cost):
        return []
    block = (np.cumsum(cost) - cost) // cells
    cuts = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), len(cost)]
    return [slice(s, e) for s, e in itertools.pairwise(cuts)]


# vertex indices and IDs are stored as int32, so n must stay below this
_MAX_N = 1 << 31


def _check_vertex_count(n: int) -> None:
    """Raise `ValueError` unless n < ``_MAX_N``, the int32 index limit."""
    if n >= _MAX_N:
        raise ValueError(f"{n} points: vertex indices are int32, so n must be below {_MAX_N}")


# the largest cell key searched for is ncell * (ncell + 2), with ncell =
# floor(side) + 1; it fits in int64 exactly when the side is below this
_MAX_SIDE = math.isqrt(1 << 63) - 1


def _check_side(side: float) -> None:
    """Raise `ValueError` unless side < ``_MAX_SIDE``, the int64 cell-key limit."""
    if side >= _MAX_SIDE:
        raise ValueError(f"square side {side!r}: cell keys are int64, so the side must be below {_MAX_SIDE}")


# an edge code is (i << 32) | j; this mask takes j back out
_LOW_WORD = (1 << 32) - 1


def _key_runs(skey: np.ndarray, stride: int):
    """Per point of the sorted keys ``skey``, its partner slot range [lo, hi)
    in each of its two runs of keys: the rest of its own cell and its N
    cell, then its SE, E and NE cells (a NW pair is the other point's SE
    pair).  A run's bounds are searched once per occupied cell, over the
    distinct keys, and read back per point through its cell; the per-cell
    arrays are freed when the second run is done."""
    n = len(skey)
    # the occupied cells in key order: each one's first slot, and each
    # point's cell; ``start`` ends with n, the end of the last cell
    new = np.diff(skey, prepend=-1) != 0
    start = np.append(np.flatnonzero(new), n)
    ukey = np.take(skey, start[:-1])
    cell = np.cumsum(new)
    cell -= 1

    def bound(last, side):
        # the slot where the cells up to key + ``last`` end ("right") or
        # the cells from it start ("left")
        return np.take(np.take(start, np.searchsorted(ukey, ukey + last, side=side)), cell)

    yield np.arange(1, n + 1), bound(1, "right")
    yield bound(stride - 1, "left"), bound(stride + 1, "right")


def build_udg(points: np.ndarray, square: SquareRegion, seed: int = 0) -> UnitDiskGraph:
    """Build the unit disk graph on ``points`` (edge iff distance <= 1).

    The points are sorted by unit-cell key ``cx * (ncell + 1) + cy``, in
    any order within a cell, and each point is joined with two runs of
    consecutive keys: the points after it in its own cell and its N cell,
    then its SE, E and NE cells.  A NW pair is the other point's SE pair,
    so each pair of neighbouring cells is joined exactly once.  A run's
    slot ranges come from `_key_runs`, and it is joined in passes of about
    ``_JOIN_BLOCK`` candidate pairs, cut by `_blocks`, with no Python loop
    over cells or points.  Candidates are filtered on squared distance, no
    square root is taken, and a pass keeps only the int64 codes
    (i << 32) | j of its edges.  Sorting the codes gives ``edges`` in
    lexicographic (i, j) order, whatever order the points had within a
    cell, and the CSR is filled from ``edges`` in passes too.  So no
    transient array grows with the candidate set, but the codes do grow
    with the edge count: 8 bytes per edge, joined into one array that is
    alive together with ``edges`` until ``edges`` is written from it.

    Raises `ValueError` for n >= 2^31 or a side of at least ``_MAX_SIDE``
    (about 3.04e9), before any array is made: vertex indices are int32,
    and cell keys are int64.
    """
    _check_vertex_count(len(points))
    _check_side(square.side)
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must be an (n, 2) array, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError("points contain non-finite coordinates")
    if (points < 0).any() or (points > square.side).any():
        raise ValueError("some points lie outside the square")

    n = len(points)
    ncell = int(math.floor(square.side)) + 1
    # a point in the square has floor(x) <= floor(side) = ncell - 1
    cx = np.floor(points[:, 0]).astype(np.int64)
    cy = np.floor(points[:, 1]).astype(np.int64)
    # column stride ncell + 1 leaves an empty key above each column's top
    # cell, so a run of keys never reaches a cell that is not a neighbour
    stride = ncell + 1
    key = cx * stride + cy
    # the order within a cell is free: the edge codes are sorted below
    order = np.argsort(key).astype(np.int32)
    skey = np.take(key, order)
    sx, sy = np.take(points, order, axis=0).T.copy()

    codes = [np.empty(0, dtype=np.int64)]  # so that n = 0, with no pass, joins too
    for lo, hi in _key_runs(skey, stride):
        count = hi - lo
        for blk in _blocks(count, _JOIN_BLOCK):
            # one candidate per (point in blk, partner slot sj)
            c = count[blk]
            sj = np.repeat(lo[blk] - (np.cumsum(c) - c), c)
            sj += np.arange(len(sj))
            dx = np.repeat(sx[blk], c)
            dx -= np.take(sx, sj)
            dy = np.repeat(sy[blk], c)
            dy -= np.take(sy, sj)
            keep = np.flatnonzero(_sq_dist(dx, dy) <= 1.0)
            i, j = np.take(np.repeat(order[blk], c), keep), np.take(order, np.take(sj, keep))
            code = np.minimum(i, j).astype(np.int64)
            code <<= 32
            code |= np.maximum(i, j)
            codes.append(code)
    codes = np.concatenate(codes)
    codes.sort()
    m = len(codes)
    edges = np.empty((m, 2), dtype=np.int32)
    np.right_shift(codes, 32, out=edges[:, 0])
    np.bitwise_and(codes, _LOW_WORD, out=edges[:, 1])
    del codes

    # CSR adjacency with per-vertex sorted 1-based neighbor IDs: row v holds
    # its lower neighbours, then its higher ones
    up = np.bincount(edges[:, 0], minlength=n)
    low = np.bincount(edges[:, 1], minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(up + low, out=offsets[1:])
    nbr_flat = np.empty(2 * m, dtype=np.int32)
    # edge k = (i, j) fills slot up_slot[i] + k of row i: the edges of i are
    # consecutive and in j order, and end where the row ends
    up_slot = offsets[1:] - np.cumsum(up)
    # next free lower-neighbour slot of each row; every later pass holds
    # larger i, so each row's lower neighbours are appended in order
    low_next = offsets[:-1].copy()
    for s in range(0, m, _JOIN_BLOCK):
        i, j = edges[s : s + _JOIN_BLOCK].T
        nbr_flat[up_slot[i] + np.arange(s, s + len(i))] = j + 1
        # the pass's edges in (j, i) order: i appended to row j
        code = j.astype(np.int64)
        code <<= 32
        code |= i
        code.sort()
        j = code >> 32
        first = np.flatnonzero(np.concatenate(([True], j[1:] != j[:-1])))
        size = np.diff(first, append=len(j))
        j = j[first]
        slot = np.repeat(low_next[j] - first, size)
        slot += np.arange(len(code))
        code &= _LOW_WORD
        code += 1
        nbr_flat[slot] = code
        low_next[j] += size

    return UnitDiskGraph(
        points=points,
        square=square,
        seed=seed,
        edges=edges,
        nbr_flat=nbr_flat,
        nbr_offsets=offsets,
        nbr_low=low,
    )


def brute_force_edges(points: np.ndarray) -> np.ndarray:
    """All-pairs adjacency oracle: (m, 2) sorted index pairs with d <= 1."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    # the same float expression as `_sq_dist`, so the comparison is exact
    pi, pj = np.triu_indices(n, 1)
    d2 = np.sum((points[pi] - points[pj]) ** 2, axis=1)
    keep = d2 <= 1.0
    return np.column_stack([pi[keep], pj[keep]])


def components(g: UnitDiskGraph) -> tuple[int, np.ndarray]:
    """Connected-component count and per-vertex int32 labels (0-based),
    numbered in order of each component's smallest vertex."""
    return _component_labels(g.n, g.edges)


def _component_labels(n: int, edges: np.ndarray) -> tuple[int, np.ndarray]:
    """Union-find over ``edges`` (an (m, 2) array of index pairs) on n
    vertices, in passes of ``max(n, _JOIN_BLOCK)`` edges: each pass costs
    O(n) for its pointer jumps, so the pass size grows with n."""
    parent = np.arange(n, dtype=np.intp)
    step = max(n, _JOIN_BLOCK)
    for s in range(0, len(edges), step):
        lo, hi = edges[s : s + step].T
        ru, rv = np.take(parent, lo), np.take(parent, hi)
        while True:
            join = np.flatnonzero(ru != rv)
            if not len(join):
                break
            ru, rv = np.take(ru, join), np.take(rv, join)
            # both ends are roots; hang the larger on the smaller.  Where hi
            # repeats, one lo wins and the others' edges stay for the next
            # round, but every candidate is below hi, so pointers only fall
            # and no cycle forms
            lo = np.minimum(ru, rv)
            hi = np.maximum(ru, rv, out=rv)
            parent[hi] = lo
            while True:
                jumped = np.take(parent, parent)
                if np.array_equal(jumped, parent):
                    break
                parent = jumped
            ru, rv = np.take(parent, lo), np.take(parent, hi)
    # each root is its component's smallest vertex
    roots = parent == np.arange(n)
    labels = np.cumsum(roots, dtype=np.int32)
    labels -= 1
    return int(np.count_nonzero(roots)), np.take(labels, parent)


# vertices formatted per write in `save_graph`: a block's floats and lines
# are small Python objects, and 4096-vertex blocks left the process ~1 MB
# bigger
_SAVE_BLOCK = 1024


def save_graph(g: UnitDiskGraph, path) -> None:
    """Write the line-oriented text format: header ``n side seed`` then one
    ``id x y`` line per vertex, in ID order.

    Coordinates are written as Python's shortest round-trip ``repr`` of the
    float (``0.0``, ``5e-05``, ``0.3333333333333333``), so `load_graph`
    recovers every bit.  Lines are formatted and written in blocks of
    ``_SAVE_BLOCK`` vertices.  Adjacency is not stored; it is recomputed on
    load.
    """
    with open(path, "w") as fh:
        fh.write(f"{g.n} {float(g.square.side)!r} {g.seed}\n")
        for s in range(0, g.n, _SAVE_BLOCK):
            xs, ys = g.points[s : s + _SAVE_BLOCK].T.tolist()
            ids = range(s + 1, s + 1 + len(xs))
            fh.write("".join([f"{j} {x!r} {y!r}\n" for j, x, y in zip(ids, xs, ys)]))


def load_graph(path) -> UnitDiskGraph:
    """Read the format written by `save_graph` and rebuild adjacency.

    The header must be ``n side seed`` with an integer n >= 1, a positive
    finite side and an integer seed.  Every other non-blank line must be
    ``id x y`` with an integer id; the ids must be 1..n, each exactly once,
    in any order.  Blank lines are ignored; there are no comments, so a
    ``#`` line is malformed.  Every violation raises `ValueError` naming
    the file, and for a malformed line or a point that is not finite or
    lies outside the square, the 1-based file line (and the vertex id).
    """
    points, square, seed = _read_points(path)
    return build_udg(points, square, seed=seed)


def _read_points(path) -> tuple[np.ndarray, SquareRegion, int]:
    """Parse and check a graph file; its parsed rows are freed on return,
    before `load_graph` rebuilds adjacency."""
    with open(path) as fh:
        header = fh.readline().split()
        try:
            if len(header) != 3:
                raise ValueError("expected 'n side seed'")
            n, square, seed = int(header[0]), SquareRegion(float(header[1])), int(header[2])
            if n < 1:
                raise ValueError(f"need n >= 1, got n={n}")
        except ValueError as exc:
            raise ValueError(f"bad graph header in {path}: {exc}") from None

        lineno, line = 1, ""

        def body():
            nonlocal lineno, line
            for lineno, line in enumerate(fh, start=2):
                yield line

        try:
            with warnings.catch_warnings():
                # an empty body is reported below as missing vertices
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                dtype = [("id", "i8"), ("x", "f8"), ("y", "f8")]
                rows = np.loadtxt(body(), dtype=dtype, comments=None, ndmin=1)
        except ValueError:
            # numpy pulls one line at a time and fails on the last one pulled
            raise ValueError(
                f"bad vertex line in {path}: line {lineno}: expected 'id x y', got {line.rstrip()!r}"
            ) from None

    ids = rows["id"]
    outside = (ids < 1) | (ids > n)
    if outside.any():
        raise ValueError(f"vertex id {ids[outside.argmax()]} out of range 1..{n} in {path}")
    first = np.zeros(len(ids), dtype=bool)
    first[np.unique(ids, return_index=True)[1]] = True
    if not first.all():
        # the earliest line whose id an earlier line already gave
        raise ValueError(f"vertex id {ids[first.argmin()]} appears twice in {path}")
    if len(ids) < n:
        raise ValueError(f"graph file {path} is missing {n - len(ids)} vertices")
    x, y = rows["x"], rows["y"]
    inside = (x >= 0) & (x <= square.side) & (y >= 0) & (y <= square.side)  # false for NaN
    if not inside.all():
        k = int(inside.argmin())
        if np.isfinite([x[k], y[k]]).all():
            problem = f"at ({float(x[k])!r}, {float(y[k])!r}) lies outside the square of side {square.side!r}"
        else:
            problem = "has non-finite coordinates"
        raise ValueError(f"bad point in {path}: line {_body_line(path, k)}: vertex {ids[k]} {problem}")
    points = np.empty((n, 2), dtype=float)
    points[ids - 1, 0] = rows["x"]
    points[ids - 1, 1] = rows["y"]
    return points, square, seed


def _body_line(path, k: int) -> int:
    """1-based file line of the k-th (0-based) non-blank body line, the
    line `np.loadtxt` parsed into row k."""
    with open(path) as fh:
        fh.readline()
        body = (lineno for lineno, line in enumerate(fh, start=2) if line.strip())
        return next(itertools.islice(body, k, None))
