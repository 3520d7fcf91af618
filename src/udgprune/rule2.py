"""Wu-Li Rule 2 pruning and connected-dominating-set verification.

A vertex i is excluded when its closed neighborhood contains two adjacent
vertices i1 > i2 > i that jointly cover it.  Exclusion decisions are
evaluated independently per vertex against the original graph (the rule
is one-shot, never re-applied to the pruned graph), so `prune` decides
all vertices together as array operations.  It takes its candidates in
degree order, so the vertices of one block have rows of nearly equal
width, gathers each block's closed neighbourhoods with one padded index
pass, and decides them in two loops, each with its own block size.
First, each vertex with enough higher neighbours tries witness pairs, as
in the paper's argument: its nearest higher neighbour a and the higher
neighbour adjacent to a on the opposed side of i, and, if those miss a
member, a and the partner of a nearest the member farthest from a.  The
rows those pairs leave go straight on to the second loop, where they
join the rows of the vertices with too few higher neighbours for the
pairs: each vertex gets, for each higher-ID neighbour a, a bit mask over
N[i] of the members a does not cover, and it is excluded when two
adjacent such neighbours have masks with no common bit; the partners of
a are enumerated among the higher neighbours after it, which are
consecutive in i's row.  A witness pair costs a few passes over a row
where the masks cost one per higher neighbour, so only vertices with at
least ``_WITNESS_MIN_UP`` higher neighbours try them.  The retained
vertices ("gateways") form a dominating set that preserves the host
graph's component count.

`is_excluded` and the oracle `brute_force_prune` share one literal search
over closed-neighbourhood sets, and `verify_cds` counts induced components
over all n vertices.  Rows of 2-D arrays are gathered with `np.take` and
`np.compress` along axis 0, because ``a[idx]`` and ``a[mask]`` on narrow
rows measured about 10 times slower on numpy 2.4.6, and single cells with
`np.take` on flat indices row * width + column, which measured about
twice as fast as ``a[rows, cols]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import _sq_dist
from .rgg import UnitDiskGraph, _blocks, _component_labels, components

__all__ = [
    "GatewaySet",
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


def is_excluded(g: UnitDiskGraph, i: int) -> Optional[tuple[int, int]]:
    """The witness (i1, i2) if some higher-ID adjacent pair covers vertex
    ``i``, else None: i1 > i2 > i, i1 is adjacent to i2, and N[i] ⊆ N[i1] ∪
    N[i2].

    Runs `brute_force_prune`'s search on the members of N[i] alone, so the
    pair is the lexicographically largest witness.  `prune` reaches the same
    decisions without this function; it stays as the API that names a witness.
    A vertex id outside 1..n raises `ValueError` from ``g.closed_neighborhood``.
    """
    closed = {v: {v, *g.neighbors(v).tolist()} for v in g.closed_neighborhood(i).tolist()}
    return _witness(closed, i)


def _witness(closed, i: int) -> Optional[tuple[int, int]]:
    """The lexicographically largest adjacent pair i1 > i2 > i of N[i] with
    N[i] ⊆ N[i1] ∪ N[i2], or None; ``closed[v]`` is N[v] for each v of N[i].

    That is N[i] − N[i1] ⊆ N[i2], so i2 is adjacent to each member x of that
    rest, and the i2 tried are N[i] ∩ N[i1] ∩ N[x] for one x of it.
    """
    ni = closed[i]
    for i1 in sorted(ni, reverse=True):
        if i1 <= i:
            break
        rest = ni - closed[i1]
        pairs = ni & closed[i1]  # i2 adjacent to i1
        if rest:
            pairs &= closed[min(rest)]
        for i2 in sorted(pairs, reverse=True):
            if i < i2 < i1 and rest <= closed[i2]:
                return i1, i2
    return None


# (row, slot) cells per block of `prune`'s witness loop, and (up-pair,
# slot) cells per block of its mask loop: its blocks hold candidates of
# nearly equal degree, so every transient array of a block, padding
# included, is a small multiple of these
_WITNESS_CELLS = 1 << 15
_MASK_CELLS = 1 << 16

# fewest higher neighbours for which `prune` tries the witness pairs first:
# the tries cost a few passes over a row of width deg+1, and the miss masks
# they may save cost one such pass per higher neighbour, so below this the
# tries cost more than they save.  Measured with the rows the witness pairs
# leave handed straight to the masks, on sqrt-side graphs (medians of
# in-process alternating calls against 6; 40 rounds at n = 16000, 10 and 20
# at 256000): 8 took 0.8% and 0.5% less at 16000 (seeds 12345 and 7,
# faster in 29 of 40 rounds each) and 0.9%, 1.5% and 2.3% less at 256000
# (seeds 12345, 7 and 3; faster in 5 of 10, 6 of 10 and 13 of 20); 4 took
# 3.4-3.8% more at 16000 and 0.0-3.5% more at 256000.
_WITNESS_MIN_UP = 8


def prune(g: UnitDiskGraph) -> GatewaySet:
    """All vertices not excluded by the rule, in ascending ID order.

    The candidates (vertices with at least two higher neighbours) are
    taken in ascending degree order, by a stable sort, and decided by two
    loops, each over blocks cut by `rgg._blocks` (which cuts `build_udg`'s
    join passes too), so memory stays bounded at any degree.  The rows of
    a block have nearly equal width, so little of a block is padding.
    Each row of N[i] = [i] + nbr(i) is gathered once (`_closed_rows`): a
    witness block's rows that loop 1 leaves are handed to loop 2 by
    `_witness_then_masks`, and only the candidates with fewer than
    ``_WITNESS_MIN_UP`` higher neighbours are gathered by loop 2 itself.

    1. Witness pairs, in blocks of about ``_WITNESS_CELLS`` (row, slot)
       cells, over the candidates with at least ``_WITNESS_MIN_UP`` higher
       neighbours only: a is the nearest higher neighbour of i, and b the
       higher neighbour adjacent to a that lies nearest to 2 p_i - p_a,
       the reflection of a through i, so a and b sit on opposed sides as
       in the paper's argument.  i is excluded if D_a and D_b together
       cover N[i].  Where they do not, a second try takes the member x of
       N[i] farthest from a, and the partner b' of a nearest to x, and
       excludes i if D_a and D_b' cover N[i].  These settle most excluded
       vertices at a few passes per row.
    2. Miss masks, in blocks of about ``_MASK_CELLS`` (up-pair, slot)
       cells over the candidates loop 1 skipped, and in sub-blocks of that
       size over the rows of each witness block it did not exclude: each
       up-pair (i, a), with a a neighbour of i and a > i, gets a mask over
       N[i] with a bit for each member that a does not cover, packed into
       ceil(|N[i]| / 64) uint64 words.  The partners b of a are the higher
       neighbours of i above a that a covers; they are among the later
       up-pairs of i's row, which are consecutive, and i is excluded when
       some partner has ``miss_a & miss_b == 0``.

    Loop 1 only picks which pairs to test first and excludes only on an
    exact coverage test of an adjacent higher pair, and each vertex is
    decided alone, so neither the order nor the blocks change the kept
    set: it is the one loop 2 alone gives.  Single cells of a 2-D array
    are read with `np.take` on flat indices row * width + column, which
    measured about twice as fast as ``a[rows, cols]``.
    """
    n = g.n
    deg = np.diff(g.nbr_offsets)
    low = g.nbr_low
    up = deg - low
    excluded = np.zeros(n, dtype=bool)
    # slot n of each coordinate column is the NaN that pads the rows
    px, py = (np.append(col, np.nan) for col in g.points.T)

    # a covering pair needs two higher-ID neighbours
    cand = np.flatnonzero(up >= 2)
    cand = cand[np.argsort(deg[cand], kind="stable")]
    witness = up[cand] >= _WITNESS_MIN_UP
    first = np.compress(witness, cand)
    for blk in _blocks(deg[first] + 1, _WITNESS_CELLS):
        verts = first[blk]
        xs, ys = _closed_rows(g, px, py, verts, deg[verts])
        excluded[verts[_witness_then_masks(xs, ys, low[verts], up[verts])]] = True
    rest = np.compress(~witness, cand)
    for blk in _blocks(up[rest] * (deg[rest] + 1), _MASK_CELLS):
        verts = rest[blk]
        xs, ys = _closed_rows(g, px, py, verts, deg[verts])
        excluded[verts[_masks_cover(xs, ys, np.arange(len(verts)), low[verts], up[verts])]] = True
    return GatewaySet(members=tuple((np.flatnonzero(~excluded) + 1).tolist()))


def _closed_rows(g: UnitDiskGraph, px, py, verts, deg) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of N[i], one row per vertex of ``verts``: column 0 is i
    and columns 1..deg are nbr(i) ascending, so the higher neighbours sit
    in columns low+1..deg.  ``px`` and ``py`` are the point coordinates
    with a NaN appended, and rows are padded with that NaN to the widest.
    NaN compares false both ways, so a padded slot is neither covered nor
    missed by anything."""
    slot = np.arange(int(deg.max()) + 1)
    # column k of row i reads nbr_flat[offset + k - 1]; column 0 and the
    # padding are overwritten, so a clipped read there is harmless
    ids = np.take(g.nbr_flat, g.nbr_offsets[verts][:, None] + (slot - 1), mode="clip")
    ids -= 1
    ids[:, 0] = verts
    ids[slot > deg[:, None]] = g.n
    return np.take(px, ids), np.take(py, ids)


def _witness_covers(xs, ys, low) -> np.ndarray:
    """Loop 1 of `prune` on rows from `_closed_rows`: mask of the rows
    whose first witness pair (a, b) or second pair (a, b') covers N[i]."""
    width = xs.shape[1]
    # every real member of N[i] is within 1 of i, and padding is NaN
    higher = np.arange(width) > low[:, None]
    di = _sq_dist(xs - xs[:, :1], ys - ys[:, :1])
    higher &= di <= 1.0
    a = np.where(higher, di, np.inf).argmin(axis=1)
    a += np.arange(0, len(xs) * width, width)  # flat index of a
    da = _sq_dist(xs - np.take(xs, a)[:, None], ys - np.take(ys, a)[:, None])
    partner = higher & (da <= 1.0)
    np.put(partner, a, False)

    # |p - (2 p_i - p_a)|^2 = 2 |p - p_i|^2 - |p - p_a|^2 + const per row
    di *= 2.0
    di -= da
    covered = _pair_covers(xs, ys, da, partner, di)
    left = np.flatnonzero(~covered)
    xs, ys = np.take(xs, left, axis=0), np.take(ys, left, axis=0)
    da = np.fmax(np.take(da, left, axis=0), -1.0)  # padding at -1, below every real member
    far = da.argmax(axis=1)
    far += np.arange(0, len(left) * width, width)
    dfar = _sq_dist(xs - np.take(xs, far)[:, None], ys - np.take(ys, far)[:, None])
    covered[left] = _pair_covers(xs, ys, da, np.take(partner, left, axis=0), dfar)
    return covered


def _witness_then_masks(xs, ys, low, up) -> np.ndarray:
    """Both loops of `prune` on one witness block's rows from
    `_closed_rows`: mask of the rows excluded.  The rows the witness pairs
    leave go on to `_masks_cover` in sub-blocks of about ``_MASK_CELLS``
    (up-pair, slot) cells, which it takes from the block by `np.take`
    along axis 0, so no row is gathered twice."""
    covered = _witness_covers(xs, ys, low)
    left = np.flatnonzero(~covered)
    for blk in _blocks(up[left] * xs.shape[1], _MASK_CELLS):
        rows = left[blk]
        covered[rows] = _masks_cover(xs, ys, rows, low[rows], up[rows])
    return covered


def _pair_covers(xs, ys, da, partner, score) -> np.ndarray:
    """Mask of the rows where a and the partner b with the least ``score``
    cover N[i]; ``da`` holds the squared distances from a."""
    width = xs.shape[1]
    b = np.where(partner, score, np.inf).argmin(axis=1)
    b += np.arange(0, len(xs) * width, width)  # flat index of b
    missed = _sq_dist(xs - np.take(xs, b)[:, None], ys - np.take(ys, b)[:, None]) > 1.0
    missed &= da > 1.0
    return np.take(partner, b) & ~missed.any(axis=1)


def _masks_cover(xs, ys, rows, low, up) -> np.ndarray:
    """Loop 2 of `prune` on the rows ``rows`` of a block from
    `_closed_rows`, with their ``low`` and ``up``: mask over ``rows`` of
    those where some up-pair's miss mask and a partner's have no common
    bit."""
    width = xs.shape[1]
    # one row per up-pair (i, a): a is the rank-th higher neighbour of i,
    # in column ``col`` of row ``row`` of xs, the ``which``-th of ``rows``
    which = np.repeat(np.arange(len(rows)), up)
    row = np.take(rows, which)
    rank = np.arange(len(row)) - np.repeat(np.cumsum(up) - up, up)
    col = rank + np.repeat(low + 1, up)
    cell = row * width + col
    dx = np.take(xs, row, axis=0)
    dx -= np.take(xs, cell)[:, None]
    dy = np.take(ys, row, axis=0)
    dy -= np.take(ys, cell)[:, None]
    d2 = _sq_dist(dx, dy)
    # dy is spent: freed before the masks, which run beside the rows of the
    # witness block that handed them on
    del dy

    miss = np.zeros((len(row), -(-width // 64) * 64), dtype=bool)
    np.greater(d2, 1.0, out=miss[:, :width])
    words = np.packbits(miss, axis=1, bitorder="little").view(np.uint64)

    # the partners of up-pair p = (i, a) are the up-pairs q = (i, b) after it
    # in its row, which are consecutive, with b covered by a: (p, q) for q in
    # p+1..p+later, and b covered when d2[p, col[q]] <= 1
    later = np.repeat(up, up) - 1 - rank
    p = np.repeat(np.arange(len(row)), later)
    q = np.arange(len(p)) + np.repeat(np.arange(1, len(row) + 1) - (np.cumsum(later) - later), later)
    adjacent = np.take(d2, p * width + np.take(col, q)) <= 1.0
    p, q = np.compress(adjacent, p), np.compress(adjacent, q)
    hit = ~(np.take(words, p, axis=0) & np.take(words, q, axis=0)).any(axis=1)
    covered = np.zeros(len(rows), dtype=bool)
    covered[which[p[hit]]] = True
    return covered


def brute_force_prune(g: UnitDiskGraph) -> GatewaySet:
    """Literal transcription of the rule over plain adjacency sets: the
    vertices for which `_witness` finds no pair.

    Reads only ``neighbors``, never coordinates.  Oracle for `prune`; it
    takes about a second at n = 16000 with mean degree 30.
    """
    closed = [set()] + [{v, *g.neighbors(v).tolist()} for v in range(1, g.n + 1)]
    return GatewaySet(members=tuple(i for i in range(1, g.n + 1) if _witness(closed, i) is None))


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
    checks together.  A member that is neither an `int` nor a numpy
    integer (a bool is neither), that does not fit in int64, that repeats
    or that lies outside 1..n raises `ValueError`.
    """
    # each member's own type is tested, once per distinct type: `np.asarray`
    # would promote a bool among ints to an int, and `np.bool_` is not an
    # `np.integer`; the first bad member is looked for only if a type fails
    bad = None
    bad_types = {t for t in set(map(type, c.members)) if t is not int and not issubclass(t, np.integer)}
    if bad_types:
        bad = next(m for m in c.members if type(m) in bad_types)
    else:
        try:
            member_arr = np.fromiter(c.members, np.int64, len(c.members))
        except OverflowError:
            bad = next(m for m in c.members if not -(1 << 63) <= m < 1 << 63)
    if bad is not None:
        raise ValueError(f"gateway set contains an id that is not a 64-bit integer: {bad!r}")
    if len(member_arr) and (member_arr.min() < 1 or member_arr.max() > g.n):
        raise ValueError("gateway set contains ids outside the graph")
    in_c = np.zeros(g.n, dtype=bool)
    np.put(in_c, member_arr - 1, True)
    if np.count_nonzero(in_c) != len(member_arr):
        raise ValueError("gateway set contains duplicate ids")

    n_graph, _ = components(g)  # first, so ci and cj do not add 2m bytes to its peak

    ei, ej = g.edges[:, 0], g.edges[:, 1]
    ci, cj = np.take(in_c, ei), np.take(in_c, ej)
    covered = in_c.copy()
    np.put(covered, np.compress(cj, ei), True)
    np.put(covered, np.compress(ci, ej), True)
    dominating = bool(covered.all())
    # over all n vertices, each vertex outside C is a component of its own
    n_all, _ = _component_labels(g.n, np.compress(ci & cj, g.edges, axis=0))
    n_induced = n_all - (g.n - len(member_arr))

    return CdsReport(
        dominating=dominating,
        component_preserving=(n_induced == n_graph),
        components_graph=n_graph,
        components_induced=n_induced,
    )
