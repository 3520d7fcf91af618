"""Independent reference values for the benchmark's correctness checks.

Areas are computed at high precision with mpmath by Green's theorem: the
area of a region bounded by circle arcs and straight segments is the sum
of 1/2 * integral(x dy - y dx) over its oriented boundary pieces.  This
shares no formula with the program's inclusion-exclusion geometry, and
at 60 significant digits the cancellation of O(1) arc terms still leaves
far more digits than any float64 result can carry.
"""

from __future__ import annotations

import mpmath

DIGITS = 60


def _mpf_point(p):
    return (mpmath.mpf(float(p[0])), mpmath.mpf(float(p[1])))


def _arc_term(c, a, b):
    """1/2 * integral of (x dy - y dx) along the unit circle about ``c``
    from angle ``a`` to ``b`` counter-clockwise."""
    return ((b - a) + c[0] * (mpmath.sin(b) - mpmath.sin(a)) - c[1] * (mpmath.cos(b) - mpmath.cos(a))) / 2


def _inside(p, c):
    return (p[0] - c[0]) ** 2 + (p[1] - c[1]) ** 2 <= 1


def _circle_cuts(c, j):
    """Angles on the unit circle about ``c`` where it meets the one about ``j``."""
    dx, dy = j[0] - c[0], j[1] - c[1]
    d = mpmath.sqrt(dx * dx + dy * dy)
    if d == 0 or d >= 2:
        return []
    phi, half = mpmath.atan2(dy, dx), mpmath.acos(d / 2)
    return [phi - half, phi + half]


def disk_region_area(inside, outside) -> mpmath.mpf:
    """Area of the points inside every unit disk about ``inside`` and
    outside every unit disk about ``outside``.

    Each circle is cut where it meets the others; a piece is on the
    boundary when its midpoint satisfies every other disk's constraint.
    Pieces of an ``outside`` circle bound the region from without, so they
    are traversed clockwise and enter with a minus sign.
    """
    with mpmath.workdps(DIGITS):
        return _region_area(inside, outside)


def _region_area(inside, outside):
    circles = [(_mpf_point(c), +1) for c in inside] + [(_mpf_point(c), -1) for c in outside]
    total = mpmath.mpf(0)
    for k, (c, sign) in enumerate(circles):
        others = [circles[j] for j in range(len(circles)) if j != k]
        cuts = sorted(t % (2 * mpmath.pi) for j, _ in others for t in _circle_cuts(c, j))
        if not cuts:
            cuts = [mpmath.mpf(0)]
        bounds = cuts + [cuts[0] + 2 * mpmath.pi]
        for a, b in zip(bounds, bounds[1:]):
            if b == a:
                continue
            m = (a + b) / 2
            p = (c[0] + mpmath.cos(m), c[1] + mpmath.sin(m))
            if all(_inside(p, j) == (s > 0) for j, s in others):
                total += sign * _arc_term(c, a, b)
    return total


def omitted_area(o, q, u) -> mpmath.mpf:
    """Area of the unit disk about ``o`` covered by neither disk about ``q`` nor ``u``."""
    return disk_region_area([o], [q, u])


def truncated_disk_area(o, side) -> mpmath.mpf:
    """Area of the unit disk about ``o`` inside the square [0, side]^2.

    Boundary: the circle's arcs inside the square, plus the chord of
    each square edge that lies inside the disk, all counter-clockwise.
    """
    with mpmath.workdps(DIGITS):
        return _truncated_area(o, side)


def _truncated_area(o, side):
    c = _mpf_point(o)
    s = mpmath.mpf(float(side))
    cuts = []
    for x in (0, s):
        if abs(x - c[0]) < 1:
            t = mpmath.acos(x - c[0])
            cuts += [t, -t]
    for y in (0, s):
        if abs(y - c[1]) < 1:
            t = mpmath.asin(y - c[1])
            cuts += [t, mpmath.pi - t]
    cuts = sorted(t % (2 * mpmath.pi) for t in cuts) or [mpmath.mpf(0)]
    bounds = cuts + [cuts[0] + 2 * mpmath.pi]
    total = mpmath.mpf(0)
    for a, b in zip(bounds, bounds[1:]):
        m = (a + b) / 2
        px, py = c[0] + mpmath.cos(m), c[1] + mpmath.sin(m)
        if b > a and 0 <= px <= s and 0 <= py <= s:
            total += _arc_term(c, a, b)
    # square edges counter-clockwise: (start, end) corners
    corners = [(0, 0), (s, 0), (s, s), (0, s)]
    for (x0, y0), (x1, y1) in zip(corners, corners[1:] + corners[:1]):
        ex, ey = x1 - x0, y1 - y0  # edge vector, |e| = s
        # points x0 + t e with |p - c| <= 1, t in [0, 1]
        fx, fy = x0 - c[0], y0 - c[1]
        a2 = ex * ex + ey * ey
        b1 = fx * ex + fy * ey
        disc = b1 * b1 - a2 * (fx * fx + fy * fy - 1)
        if disc <= 0:
            continue
        root = mpmath.sqrt(disc)
        t0 = max(mpmath.mpf(0), (-b1 - root) / a2)
        t1 = min(mpmath.mpf(1), (-b1 + root) / a2)
        if t1 <= t0:
            continue
        ax, ay = x0 + t0 * ex, y0 + t0 * ey
        bx, by = x0 + t1 * ex, y0 + t1 * ey
        total += (ax * by - bx * ay) / 2
    return total
