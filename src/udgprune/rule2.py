"""Wu-Li Rule 2 pruning and connected-dominating-set verification.

A vertex i is excluded when its closed neighborhood contains two adjacent
vertices i1 > i2 > i that jointly cover it.  Exclusion decisions are
evaluated independently per vertex against the original graph (the rule
is one-shot, never re-applied to the pruned graph), so `prune` decides
all vertices together as array operations, one block of vertices at a
time: each higher-ID neighbour a of i gets a bit mask over N[i] of the
members a does not cover, and i is excluded when two adjacent such
neighbours have masks with no common bit.  The retained vertices
("gateways") form a dominating set that preserves the host graph's
component count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .rgg import UnitDiskGraph, _component_labels, _sq_dist, components

__all__ = [
    "GatewaySet",
    "ExclusionWitness",
    "CdsReport",
    "is_excluded",
    "prune",
    "brute_force_prune",
    "verify_cds",
]


@dataclass(frozen=True)
class GatewaySet:
    """The retained vertices, as a sorted tuple of 1-based IDs."""

    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ExclusionWitness:
    """A covering pair proving vertex ``excluded`` is redundant.

    ``pair`` = (i1, i2) with i1 > i2 > excluded, i1 adjacent to i2, and
    the closed neighborhood of ``excluded`` contained in the union of the
    pair's closed neighborhoods.
    """

    excluded: int
    pair: tuple[int, int]


def is_excluded(g: UnitDiskGraph, i: int) -> Optional[ExclusionWitness]:
    """Return a witness if some higher-ID adjacent pair covers vertex ``i``,
    else None.

    Candidate pairs are scanned in descending (i1, i2) order and the scan
    stops at the first hit, so the reported pair is the lexicographically
    largest witness; the excluded/kept decision does not depend on that
    order.  Coverage tests run on a boolean matrix over the re-indexed
    local neighborhood.  `prune` reaches the same decisions without this
    function; it stays as the API that names a witness.
    """
    if not 1 <= i <= g.n:
        raise ValueError(f"vertex id {i} out of range 1..{g.n}")
    nbr = g.neighbors(i)
    if len(nbr) < 2:
        return None  # a covering pair needs two distinct neighbors
    blues = nbr[nbr > i]
    if len(blues) < 2:
        return None

    members = np.concatenate((np.array([i], dtype=nbr.dtype), nbr))
    x, y = g.points[members - 1].T
    cover = _sq_dist(x[:, None] - x[None, :], y[:, None] - y[None, :]) <= 1.0

    # rows of the coverage matrix for the higher-ID neighbors
    blue_pos = 1 + np.flatnonzero(nbr > i)      # offsets into members = [i] + nbr
    rows = cover[blue_pos]                      # (nb, m)
    adj = cover[np.ix_(blue_pos, blue_pos)]     # pairwise adjacency among blues
    joint = (rows[:, None, :] | rows[None, :, :]).all(axis=2)
    valid = adj & joint

    nb = len(blues)  # blues is ascending; want max i1, then max i2
    for a in range(nb - 1, 0, -1):
        for b in range(a - 1, -1, -1):
            if valid[a, b]:
                return ExclusionWitness(excluded=int(i), pair=(int(blues[a]), int(blues[b])))
    return None


# (up-pair, neighbourhood slot) cells per block of `prune`; every transient
# array of a block is a small multiple of this
_BLOCK_CELLS = 1 << 17


def prune(g: UnitDiskGraph) -> GatewaySet:
    """All vertices not excluded by the rule, in ascending ID order.

    For each up-pair (i, a), with a a neighbour of i and a > i, a miss
    mask over N[i] = [i] + nbr(i) has a bit for each member that a does
    not cover, packed into ceil(|N[i]| / 64) uint64 words.  The partners
    b of a are the members above a that a covers, which are exactly the
    higher neighbours of i adjacent to a; i is excluded when some partner
    has ``miss_a & miss_b == 0``.  Vertices are taken in blocks of about
    ``_BLOCK_CELLS`` (up-pair, slot) cells, so memory stays bounded at
    any degree.
    """
    n = g.n
    deg = np.diff(g.nbr_offsets)
    low = np.bincount(g.edges[:, 1], minlength=n)  # neighbours below each vertex
    up = deg - low
    excluded = np.zeros(n, dtype=bool)

    # a covering pair needs two higher-ID neighbours
    cand = np.flatnonzero(up >= 2)
    cost = up[cand] * (deg[cand] + 1)
    block = (np.cumsum(cost) - cost) // _BLOCK_CELLS
    for verts in np.split(cand, np.flatnonzero(np.diff(block)) + 1):
        if len(verts):
            excluded[verts[_covered(g, verts, deg[verts], low[verts], up[verts])]] = True
    return GatewaySet(members=tuple((np.flatnonzero(~excluded) + 1).tolist()))


def _covered(g: UnitDiskGraph, verts, deg, low, up) -> np.ndarray:
    """Mask over ``verts`` (0-based indices) of the vertices that some
    adjacent pair of their higher neighbours covers."""
    rows, width = len(verts), int(deg.max()) + 1
    # coordinates of N[i], one row per vertex: column 0 is i and columns
    # 1..deg are nbr(i) ascending, so the higher neighbours sit in columns
    # low+1..deg.  NaN padding compares false both ways, so a padded slot
    # is neither a miss nor a partner.
    xs = np.full((rows, width), np.nan)
    ys = np.full((rows, width), np.nan)
    r = np.repeat(np.arange(rows), deg)
    j = np.arange(len(r)) - np.repeat(np.cumsum(deg) - deg, deg)
    nbr = g.nbr_flat[g.nbr_offsets[verts][r] + j] - 1
    xs[:, 0], ys[:, 0] = g.points[verts].T
    xs[r, j + 1], ys[r, j + 1] = g.points[nbr].T

    # one row per up-pair (i, a); ``col`` is the column of a in row i
    row = np.repeat(np.arange(rows), up)
    col = np.arange(len(row)) + np.repeat(low + 1 - (np.cumsum(up) - up), up)
    dx = xs[row]
    dx -= xs[row, col][:, None]
    dy = ys[row]
    dy -= ys[row, col][:, None]
    d2 = _sq_dist(dx, dy)

    miss = np.zeros((len(row), -(-width // 64) * 64), dtype=bool)
    np.greater(d2, 1.0, out=miss[:, :width])
    words = np.packbits(miss, axis=1, bitorder="little").view(np.uint64)

    # partners of a: covered by a, in a column above a's
    partner = np.arange(width) > col[:, None]
    partner &= d2 <= 1.0
    flat = np.flatnonzero(partner)
    pair = flat // width
    # the up-pairs of a row are consecutive and in column order
    other = pair + flat % width - col[pair]
    hit = ~(words[pair] & words[other]).any(axis=1)
    covered = np.zeros(rows, dtype=bool)
    covered[row[pair[hit]]] = True
    return covered


def brute_force_prune(g: UnitDiskGraph) -> GatewaySet:
    """Literal transcription of the rule as a triple loop over plain sets.

    Oracle for `prune`; intended for graphs with n <= 200 or so.
    """
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
    return GatewaySet(members=tuple(kept))


@dataclass(frozen=True)
class CdsReport:
    dominating: bool
    component_preserving: bool
    components_graph: int
    components_induced: int


def verify_cds(g: UnitDiskGraph, c: GatewaySet) -> CdsReport:
    """Check that ``c`` dominates ``g`` and that the subgraph it induces has
    exactly as many components as ``g``.

    A singleton component of ``g`` can only be dominated by itself, so
    component preservation for isolated vertices is implied by the two
    checks together.
    """
    member_arr = np.asarray(c.members, dtype=np.int64)
    if len(member_arr) != len(set(c.members)):
        raise ValueError("gateway set contains duplicate ids")
    if len(member_arr) and (member_arr.min() < 1 or member_arr.max() > g.n):
        raise ValueError("gateway set contains ids outside the graph")

    in_c = np.zeros(g.n, dtype=bool)
    in_c[member_arr - 1] = True

    covered = in_c.copy()
    if len(g.edges):
        ei, ej = g.edges[:, 0], g.edges[:, 1]
        np.logical_or.at(covered, ei, in_c[ej])
        np.logical_or.at(covered, ej, in_c[ei])
    dominating = bool(covered.all())

    n_graph, _ = components(g)
    if len(member_arr) == 0:
        n_induced = 0
    else:
        remap = -np.ones(g.n, dtype=np.int64)
        remap[member_arr - 1] = np.arange(len(member_arr))
        if len(g.edges):
            both = in_c[g.edges[:, 0]] & in_c[g.edges[:, 1]]
            sub = g.edges[both]
            sub = np.column_stack([remap[sub[:, 0]], remap[sub[:, 1]]])
        else:
            sub = np.empty((0, 2), dtype=np.int64)
        n_induced, _ = _component_labels(len(member_arr), sub)

    return CdsReport(
        dominating=dominating,
        component_preserving=(n_induced == n_graph),
        components_graph=n_graph,
        components_induced=n_induced,
    )
