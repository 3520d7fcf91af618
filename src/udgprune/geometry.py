"""Geometry of unit-disk coverage.

Exact areas of lens (two-disk) and three-disk intersections, disks
truncated by a square habitat, and the "omitted region" of a disk left
uncovered by two other disks; plus the partition of a small central disk
into opposed angular sectors and a hit-or-miss Monte Carlo area oracle
used to cross-check every exact formula.

The three-disk intersection and the omitted region come from one scalar
routine, `_region_area` (Green's theorem over the boundary arcs, local to
the region), with no O(1) terms that cancel: the omitted area of extreme
sector pairs, ~1/(b ln^3 b), keeps its relative precision past b = 1e12.

All disks have radius 1, so lengths are expressed in units of the disk
radius.  Every function is a pure function of its arguments; the Monte
Carlo oracle derives all randomness from an explicit seed, so everything
here is safe to call concurrently.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

__all__ = [
    "Point2D",
    "SquareRegion",
    "SectorFrame",
    "AreaEstimate",
    "dist",
    "lens_area",
    "triple_disk_intersection_area",
    "omitted_area",
    "omitted_area_at_angle",
    "on_circle_pair_lens",
    "truncated_disk_area",
    "truncated_omitted_area",
    "sector_of",
    "extreme_points",
    "mc_area_oracle",
    "region_membership",
]

_TAU = 2.0 * math.pi
_MC_CHUNK = 1 << 20


class Point2D(NamedTuple):
    """Planar point.  Any (x, y) pair is accepted wherever a point is expected."""

    x: float
    y: float


@dataclass(frozen=True)
class SquareRegion:
    """The habitat square [0, side] x [0, side]."""

    side: float

    def __post_init__(self):
        if not (math.isfinite(self.side) and self.side > 0):
            raise ValueError(f"square side must be positive and finite, got {self.side!r}")

    def contains(self, p) -> bool:
        return 0.0 <= p[0] <= self.side and 0.0 <= p[1] <= self.side


@dataclass(frozen=True)
class AreaEstimate:
    """A Monte Carlo area estimate and its standard error."""

    value: float
    std_error: float = 0.0


@dataclass(frozen=True)
class SectorFrame:
    """Partition of the small disk of radius ``delta`` about ``center`` into
    ``2 * count`` angular sectors.

    For a size parameter ``b`` the derived quantities are

        delta = 1 / (b^(1/3) * ln b)
        count = floor(b^(1/3) * (ln b)^1.5)
        theta = pi / count

    Sector ``(Q, i)`` spans polar angles [(i - 1/2) theta, (i + 1/2) theta]
    about the center, and ``(R, i)`` is its reflection through the center.
    Logs are natural logs.  The literature also uses (ln b)^2 in the count,
    the exponent under which the matched-sector mean b^(1/3) / (4 ln^6 b)
    is exact; the colored-sample experiment uses 1.5.
    """

    center: Point2D
    b: int

    def __post_init__(self):
        _require_finite(self.center)
        if self.b < 2:
            raise ValueError(f"size parameter b must be an integer >= 2, got {self.b!r}")
        if self.b > sys.float_info.max:
            raise ValueError(f"size parameter b={self.b} exceeds the float range")
        if self.count < 1:
            raise ValueError(f"b={self.b} too small: derived sector count is zero")

    @property
    def delta(self) -> float:
        ln = math.log(self.b)
        return 1.0 / (self.b ** (1.0 / 3.0) * ln)

    @property
    def count(self) -> int:
        ln = math.log(self.b)
        return int(math.floor(self.b ** (1.0 / 3.0) * ln**1.5))

    @property
    def theta(self) -> float:
        return math.pi / self.count


def _require_finite(*points):
    for p in points:
        if not (math.isfinite(p[0]) and math.isfinite(p[1])):
            raise ValueError(f"non-finite point {tuple(p)!r}")


def _sq_dist(dx, dy):
    """``dx * dx + dy * dy``, computed in place on arrays: the result is
    ``dx``, and ``dy`` is overwritten too.  Scalars give the same value.

    This is the one float expression of "within distance 1": a point is
    in a unit disk when it is <= 1.  `rgg.build_udg` joins vertices with
    it, Rule 2 tests coverage with it, and every sampled region here and
    in `local_coverage` is decided by it, so "a covers x" and "a is
    adjacent to x" agree to the last bit.
    """
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def dist(p, q) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def lens_area(d: float) -> float:
    """Area of the intersection of two unit disks whose centers are ``d`` apart.

    Equals 2*arccos(d/2) - (d/2)*sqrt(4 - d^2) for d < 2, and 0 for
    disjoint or tangent disks; summed as two circular segments (the
    boundary-arc sum, whose chords coincide), precise as d approaches 2.
    """
    if not math.isfinite(d) or d < 0:
        raise ValueError(f"center distance must be finite and >= 0, got {d!r}")
    return 2.0 * _segment(2.0 * math.acos(0.5 * d)) if d < 2.0 else 0.0


def _segment(t: float) -> float:
    """(t - sin t) / 2, the area between a unit circle's arc of angle t and
    its chord; from its Taylor series below t = 1/2, precise as t -> 0."""
    if t > 0.5:
        return 0.5 * (t - math.sin(t))
    t2 = t * t
    s = 1.0
    for n in (210.0, 156.0, 110.0, 72.0, 42.0, 20.0):  # (2k)(2k+1), k = 7..2
        s = 1.0 - t2 / n * s
    return t * t2 / 12.0 * s


def _region_area(inside, outside) -> float:
    """Area of the points inside every unit disk about ``inside`` (non-empty)
    and outside every unit disk about ``outside``.

    Green's theorem over the boundary: each boundary arc is the piece of a
    circle between consecutive cuts by the others that meets every other
    disk's constraint, decided by the order of cut angles alone.  An arc
    adds its circular segment, negated on an outside circle (run
    clockwise), and its chord to the shoelace sum of the vertex polygon.
    Each loop is walked by adding up chords, so vertices sit relative to
    its first one: a sliver of width w keeps relative error near
    rounding / w, where absolute vertex coordinates give rounding / w^2.
    """
    ox, oy = float(inside[0][0]), float(inside[0][1])
    # [x, y, sign, cuts, violated]: center relative to inside[0]; +1 inside,
    # -1 outside; (angle, step, vertex) cuts by the other circles; the count
    # of other disks' constraints broken at angle pi.  Identical circles merge.
    circles = []
    for sign, centers in ((1, inside), (-1, outside)):
        for c in centers:
            x, y = float(c[0]) - ox, float(c[1]) - oy
            twin = next((k for k in circles if k[0] == x and k[1] == y), None)
            if twin is None:
                circles.append([x, y, sign, [], 0])
            elif twin[2] != sign:
                return 0.0  # inside and outside the same disk
    for i, ci in enumerate(circles):
        for j in range(i + 1, len(circles)):
            cj = circles[j]
            dx, dy = cj[0] - ci[0], cj[1] - ci[1]
            d = math.hypot(dx, dy)
            if d >= 2.0:  # each circle lies outside the other disk
                ci[4] += cj[2] > 0
                cj[4] += ci[2] > 0
                continue
            a = math.acos(0.5 * d)
            right = 2 * (len(circles) * i + j)  # crossing right of i -> j; right + 1: left
            # circle c meets the other disk on angles [toward - a, toward + a]
            for c, other, toward, enter, leave in (
                (ci, cj, math.atan2(dy, dx), right, right + 1),
                (cj, ci, math.atan2(-dy, -dx), right + 1, right),
            ):
                t_in = math.remainder(toward - a, _TAU)  # exact reduction to [-pi, pi]
                t_out = math.remainder(toward + a, _TAU)
                step = -1 if other[2] > 0 else 1  # entering meets an inside constraint
                c[3] += ((t_in, step, enter), (t_out, -step, leave))
                c[4] += (t_in > t_out) != (other[2] > 0)

    total = 0.0
    arcs = {}  # first vertex -> (last vertex, x, y, sign, t0, span); region on the left
    for x, y, sign, cuts, violated in circles:
        if not cuts:  # uncut: the whole circle bounds the region or none of it does
            total += 0.0 if violated else sign * math.pi
            continue
        cuts.sort()
        for k, (t0, step, v0) in enumerate(cuts):
            violated += step
            if not violated:
                t1, _, v1 = cuts[k + 1 - len(cuts)]  # the last arc wraps to the first cut
                span = t1 - t0 if k + 1 < len(cuts) else (t1 - t0) + _TAU
                arcs[v0 if sign > 0 else v1] = (v1 if sign > 0 else v0, x, y, sign, t0, span)
    while arcs:
        first, arc = arcs.popitem()
        loop = [arc]
        while loop[-1][0] != first and loop[-1][0] in arcs:
            loop.append(arcs.pop(loop[-1][0]))
        closed = loop[-1][0] == first
        px = py = 0.0  # the arc's first vertex, relative to the loop's
        for _, x, y, sign, t0, span in loop:
            if not closed:
                # cut angles rounded inconsistently near a point shared by
                # three circles: place vertices relative to inside[0]
                t = t0 if sign > 0 else t0 + span
                px, py = x + math.cos(t), y + math.sin(t)
            mid, h = t0 + 0.5 * span, 2.0 * sign * math.sin(0.5 * span)
            cx, cy = -h * math.sin(mid), h * math.cos(mid)  # the chord, along the travel
            total += 0.5 * (px * cy - py * cx) + sign * _segment(span)
            px, py = px + cx, py + cy
    return max(total, 0.0)


def triple_disk_intersection_area(o, q, u) -> float:
    """Exact area of the intersection of the three unit disks about o, q, u;
    coincident centers merge, so it reduces to a lens or a disk where due."""
    _require_finite(o, q, u)
    return _region_area((o, q, u), ())


def omitted_area(o, q, u) -> float:
    """Area of the part of the unit disk about ``o`` covered by neither the
    unit disk about ``q`` nor the one about ``u``.

    Computed from the omitted region's own boundary arcs, not as
    pi - lens - lens + triple, whose O(1) terms cancel; the result lies in
    [0, pi] and is symmetric in q and u.
    """
    _require_finite(o, q, u)
    if (q[0], q[1]) > (u[0], u[1]):
        q, u = u, q  # canonical order makes the symmetry bitwise exact
    return min(_region_area((o,), (q, u)), math.pi)


def _check_pair_angle(delta: float, phi2: float) -> None:
    """Raise `ValueError` unless 0 < ``delta`` < 1 and 0 <= ``phi2`` <= pi."""
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    if not (0.0 <= phi2 <= math.pi):
        raise ValueError(f"phi2 must lie in [0, pi], got {phi2!r}")


def omitted_area_at_angle(delta: float, phi2: float) -> float:
    """Omitted area of the unit disk about the origin for two disk centers
    on the radius-``delta`` circle about it, one at polar angle pi and one
    at ``phi2``.

    The uncovered area shrinks as the angle between the two centers
    grows, i.e. it is non-decreasing in ``phi2`` on [0, pi].
    """
    _check_pair_angle(delta, phi2)
    o2 = Point2D(delta * math.cos(phi2), delta * math.sin(phi2))
    return omitted_area((0.0, 0.0), Point2D(-delta, 0.0), o2)


def on_circle_pair_lens(delta: float, phi2: float) -> float:
    """Closed form 2y - sin(2y), cos y = delta*cos(phi2/2), for the
    intersection area of the two unit disks placed as in
    `omitted_area_at_angle`, about the origin.

    Valid as the full pairwise lens whenever that lens lies inside the
    central unit disk (small ``phi2``); at phi2 = 0 it equals
    ``lens_area(2*delta)`` and at phi2 = pi (coincident centers) it
    equals pi.  Kept as an independent code path for identity checks.
    """
    _check_pair_angle(delta, phi2)
    y = math.acos(delta * math.cos(0.5 * phi2))
    return 2.0 * y - math.sin(2.0 * y)


def _cap_area(t: float) -> float:
    """Area of the unit disk where one coordinate is >= t, for t < 1."""
    if t <= -1.0:
        return math.pi
    return math.acos(t) - t * math.sqrt(1.0 - t * t)


def _quadrant_area(x: float, y: float) -> float:
    """Area of the unit disk (about the origin) with X >= x and Y >= y."""
    if x >= 1.0 or y >= 1.0:
        return 0.0
    if x <= -1.0:
        return _cap_area(y)
    if y <= -1.0:
        return _cap_area(x)
    if x * x + y * y <= 1.0:
        # corner inside: right triangle-ish region plus one circular segment
        ux = math.sqrt(1.0 - y * y)
        uy = math.sqrt(1.0 - x * x)
        theta = math.atan2(uy, x) - math.atan2(y, ux)
        return 0.5 * (uy - y) * (ux - x) + 0.5 * (theta - math.sin(theta))
    if x >= 0.0 and y >= 0.0:
        return 0.0
    if x < 0.0 and y < 0.0:
        return _cap_area(x) + _cap_area(y) - math.pi
    return _cap_area(x) if x >= 0.0 else _cap_area(y)


def truncated_disk_area(o, square: SquareRegion) -> float:
    """Exact area of the unit disk about ``o`` clipped to the square.

    ``o`` must lie inside the square.  For sides >= 2 the result lies in
    [pi/4, pi], the quarter-disk minimum occurring at a corner.
    """
    _require_finite(o)
    if not square.contains(o):
        raise ValueError(f"center {tuple(o)!r} outside square of side {square.side}")
    # the square's sides relative to o: x runs from a to b, and y from c to d
    a, b = 0.0 - o[0], square.side - o[0]
    c, d = 0.0 - o[1], square.side - o[1]
    return _quadrant_area(a, c) - _quadrant_area(b, c) - _quadrant_area(a, d) + _quadrant_area(b, d)


def region_membership(inside, outside) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Vectorized predicate of the region `_region_area(inside, outside)`
    measures: the points in every closed unit disk about ``inside`` and in
    none about ``outside``."""

    def member(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        hit = np.ones(xs.shape, dtype=bool)
        for want, centers in ((True, inside), (False, outside)):
            for c in centers:
                hit &= (_sq_dist(xs - c[0], ys - c[1]) <= 1.0) == want
        return hit

    return member


def mc_area_oracle(
    membership: Callable[[np.ndarray, np.ndarray], np.ndarray],
    bounds: tuple[float, float, float, float],
    samples: int,
    seed: int,
) -> AreaEstimate:
    """Hit-or-miss Monte Carlo area estimate inside an axis-aligned box.

    Parameters
    ----------
    membership : vectorized predicate mapping coordinate arrays (xs, ys)
        to a boolean array.
    bounds : (xlo, xhi, ylo, yhi) sampling box.
    samples : number of uniform points to draw (>= 1).
    seed : RNG seed; the estimate is deterministic given the seed.

    Returns the unbiased estimate with its binomial standard error.
    """
    xlo, xhi, ylo, yhi = bounds
    if not (xhi > xlo and yhi > ylo):
        raise ValueError(f"empty sampling bounds {bounds!r}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    box = (xhi - xlo) * (yhi - ylo)
    hits = 0
    remaining = samples
    while remaining > 0:
        k = min(remaining, _MC_CHUNK)
        xs = rng.random(k) * (xhi - xlo) + xlo
        ys = rng.random(k) * (yhi - ylo) + ylo
        hits += int(np.count_nonzero(membership(xs, ys)))
        remaining -= k
    p = hits / samples
    return AreaEstimate(
        value=p * box,
        std_error=box * math.sqrt(p * (1.0 - p) / samples),
    )


def _disk_square_bounds(o, square: SquareRegion) -> tuple[float, float, float, float]:
    return (
        max(0.0, o[0] - 1.0),
        min(square.side, o[0] + 1.0),
        max(0.0, o[1] - 1.0),
        min(square.side, o[1] + 1.0),
    )


def truncated_omitted_area(
    o,
    q,
    u,
    square: SquareRegion,
    samples: int = 200_000,
    seed: int = 0,
) -> AreaEstimate:
    """Monte Carlo area of the part of the clipped disk about ``o`` covered
    by neither the disk about ``q`` nor the one about ``u``.

    The exact region has many arc/edge cases near the square boundary, so
    this is estimated by hit-or-miss sampling; the standard error is
    surfaced so callers can demand more samples when they need precision,
    and ``seed`` lets separate calls draw independent streams.
    Always at most ``omitted_area(o, q, u)`` up to sampling noise, since
    clipping only removes area.
    """
    _require_finite(o, q, u)
    if not square.contains(o):
        raise ValueError(f"center {tuple(o)!r} outside square of side {square.side}")
    return mc_area_oracle(region_membership((o,), (q, u)), _disk_square_bounds(o, square), samples, seed)


def sector_of(frame: SectorFrame, p) -> Optional[tuple[str, int]]:
    """Classify ``p`` into a sector of ``frame``.

    Returns ("Q", i) or ("R", i) for points inside the small disk, or
    None for points beyond radius ``delta``.  The center itself has no
    sector and raises.  Both families come from one quotient
    t = atan2(dy, dx) / theta in (-count, count]: the sector number
    k = ceil(t - 1/2) puts a point on an edge shared by two sectors in the
    lower one, a negative k wraps by 2 * count, and k < count is (Q, k),
    else (R, k - count).  The edge t = -1/2, between (R, count - 1) and
    (Q, 0), goes to (Q, 0).
    """
    _require_finite(p)
    dx, dy = p[0] - frame.center[0], p[1] - frame.center[1]
    r2 = _sq_dist(dx, dy)
    if r2 == 0.0:
        raise ValueError("the frame center has no sector")
    if r2 > frame.delta * frame.delta:
        return None
    t = math.atan2(dy, dx) / frame.theta
    # ceil(t - 1/2) as ceil(2t) // 2, which rounds nowhere
    k = 0 if t == -0.5 else (math.ceil(2.0 * t) // 2) % (2 * frame.count)
    return ("Q", k) if k < frame.count else ("R", k - frame.count)


def extreme_points(frame: SectorFrame, i: int) -> tuple[Point2D, Point2D]:
    """The opposed corner pair of sector pair ``i``: the point of (Q, i) at
    polar (delta, (i - 1/2)*theta) and the point of (R, i) at polar
    (delta, (i + 1/2)*theta + pi).

    Among all point pairs drawn from (Q, i) x (R, i) this pair maximizes
    the omitted area, which is why it drives the worst-case bounds.
    """
    if not (0 <= i < frame.count):
        raise ValueError(f"sector index {i} out of range [0, {frame.count})")
    a1 = (i - 0.5) * frame.theta
    a2 = (i + 0.5) * frame.theta + math.pi
    cx, cy, d = frame.center[0], frame.center[1], frame.delta
    return (
        Point2D(cx + d * math.cos(a1), cy + d * math.sin(a1)),
        Point2D(cx + d * math.cos(a2), cy + d * math.sin(a2)),
    )
