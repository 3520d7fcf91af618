"""Random point sets in a square and the induced unit disk graph.

Vertices carry 1-based integer IDs; ID order is the total order the
pruning rule uses.  Adjacency joins vertices at Euclidean distance <= 1.
It is built by a cell join: the points are sorted by unit-side cell, and
each cell is joined with itself and four of its neighbours through
``searchsorted`` ranges, so a radius-1 query touches at most a 3x3 block
of cells and no Python loop runs per cell.  A constructed graph is
immutable and safe to share across workers.  `save_graph` and `load_graph`
move a graph through a text file of its points in bulk: lines are
formatted and written in blocks, and the body is parsed by one
``np.loadtxt`` call and checked with array operations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .geometry import SquareRegion

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

    Deterministic given the seed.
    """
    if n < 1:
        raise ValueError(f"need at least one point, got n={n}")
    rng = np.random.default_rng(seed)
    return rng.random((n, 2)) * square.side


@dataclass(frozen=True)
class UnitDiskGraph:
    """Immutable unit disk graph over ID-labeled points.

    ``points[j]`` holds the position of vertex ID j+1.  ``edges`` is an
    (m, 2) array of 0-based index pairs with i < j; the CSR-style arrays
    ``nbr_flat``/``nbr_offsets`` give each vertex's sorted neighbor IDs.
    """

    points: np.ndarray
    square: SquareRegion
    seed: int | None
    edges: np.ndarray
    nbr_flat: np.ndarray = field(repr=False)
    nbr_offsets: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.points)

    def neighbors(self, vid: int) -> np.ndarray:
        """Sorted array of 1-based neighbor IDs of vertex ``vid``."""
        if not 1 <= vid <= self.n:
            raise ValueError(f"vertex id {vid} out of range 1..{self.n}")
        return self.nbr_flat[self.nbr_offsets[vid - 1] : self.nbr_offsets[vid]]

    def degree(self, vid: int) -> int:
        return int(self.nbr_offsets[vid] - self.nbr_offsets[vid - 1])

    def closed_neighborhood(self, vid: int) -> np.ndarray:
        """Sorted IDs of ``vid`` and everything adjacent to it."""
        return np.sort(np.append(self.neighbors(vid), vid))


def _sq_dist(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``dx * dx + dy * dy``, computed in place: the result is ``dx``, and
    ``dy`` is overwritten too.

    This is the one float expression of adjacency: vertices are adjacent
    when it is <= 1.  `build_udg` joins vertices with it and Rule 2 tests
    coverage with it, so "a covers x" and "a is adjacent to x" agree to
    the last bit.
    """
    dx *= dx
    dy *= dy
    dx += dy
    return dx


# candidate pairs per filtering pass; bounds transient memory in dense habitats
_JOIN_BLOCK = 4_000_000


def build_udg(points: np.ndarray, square: SquareRegion, seed: int | None = None) -> UnitDiskGraph:
    """Build the unit disk graph on ``points`` (edge iff distance <= 1).

    The points are sorted by unit-cell key, and each point is joined with
    the points after it in its own cell and with every point of its E, NE,
    N and NW cells, which covers each pair of neighbouring cells exactly
    once.  The cell ranges come from ``searchsorted`` on the sorted keys,
    so no Python loop runs over cells or points.  Candidates are filtered
    on squared distance, no square root is taken, and ``edges`` comes out
    in lexicographic (i, j) order.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must be an (n, 2) array, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError("points contain non-finite coordinates")
    if (points < 0).any() or (points > square.side).any():
        raise ValueError("some points lie outside the square")

    n = len(points)
    ncell = int(math.floor(square.side)) + 1
    cx = np.clip(np.floor(points[:, 0]).astype(np.int64), 0, ncell - 1)
    cy = np.clip(np.floor(points[:, 1]).astype(np.int64), 0, ncell - 1)
    # column stride ncell + 1 leaves an empty key above each column's top
    # cell, so the N, NE and NW offsets never wrap into the next column
    stride = ncell + 1
    key = cx * stride + cy
    order = np.argsort(key, kind="stable")
    skey = key[order]
    sx, sy = points[order].T.copy()

    # partner slot ranges [lo, hi) in sorted order, one per point and
    # joined cell: the rest of its own cell, then the E, NE, N, NW cells
    pos = np.arange(n, dtype=np.int64)
    lo = [pos + 1]
    hi = [np.searchsorted(skey, skey, side="right")]
    for offset in (stride, stride + 1, 1, 1 - stride):
        lo.append(np.searchsorted(skey, skey + offset, side="left"))
        hi.append(np.searchsorted(skey, skey + offset, side="right"))
    lo = np.concatenate(lo)
    count = np.concatenate(hi) - lo
    owner = np.tile(pos, 5)

    codes = []
    part_of = (np.cumsum(count) - count) // _JOIN_BLOCK
    for part in np.split(np.arange(len(count)), np.flatnonzero(np.diff(part_of)) + 1):
        c = count[part]
        si = np.repeat(owner[part], c)
        sj = np.repeat(lo[part] - (np.cumsum(c) - c), c) + np.arange(int(c.sum()))
        dx = sx[si]
        dx -= sx[sj]
        dy = sy[si]
        dy -= sy[sj]
        keep = _sq_dist(dx, dy) <= 1.0
        i, j = order[si[keep]], order[sj[keep]]
        codes.append(np.minimum(i, j) * n + np.maximum(i, j))
    codes = np.sort(np.concatenate(codes))
    edges = np.column_stack([codes // n, codes % n])

    # CSR adjacency with per-vertex sorted 1-based neighbor IDs
    deg = np.bincount(edges[:, 0], minlength=n) + np.bincount(edges[:, 1], minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=offsets[1:])
    both = np.concatenate([codes, edges[:, 1] * n + edges[:, 0]])
    both.sort()
    nbr_flat = both % n + 1

    return UnitDiskGraph(
        points=points,
        square=square,
        seed=seed,
        edges=edges,
        nbr_flat=nbr_flat,
        nbr_offsets=offsets,
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
    """Connected-component count and per-vertex labels (0-based)."""
    return _component_labels(g.n, g.edges)


def _component_labels(n: int, edges: np.ndarray) -> tuple[int, np.ndarray]:
    if n == 0:
        return 0, np.empty(0, dtype=np.int64)
    if len(edges) == 0:
        return n, np.arange(n, dtype=np.int64)
    data = np.ones(len(edges), dtype=np.int8)
    mat = coo_matrix((data, (edges[:, 0], edges[:, 1])), shape=(n, n))
    count, labels = connected_components(mat, directed=False)
    return int(count), labels


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
        seed = g.seed if g.seed is not None else 0
        fh.write(f"{g.n} {float(g.square.side)!r} {seed}\n")
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
    the file (and, for a malformed line, its 1-based line number); points
    outside the square or not finite are rejected by `build_udg`.
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
    points = np.empty((n, 2), dtype=float)
    points[ids - 1, 0] = rows["x"]
    points[ids - 1, 1] = rows["y"]
    return points, square, seed
