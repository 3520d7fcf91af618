#!/usr/bin/env python3
"""Tour of the disk-coverage geometry.

Two unit disks can never cover a third unit disk completely, but a well
placed pair leaves only a sliver uncovered.  This script walks through
the quantities that make that precise: the pairwise lens, the exact
three-disk intersection, the omitted region, and how the worst-case
omitted area shrinks when the two covering centers are drawn from
opposed sectors of a small central disk.

Run:  python demos/omitted_region_geometry.py
"""

import math

import numpy as np

from udgprune import geometry as geo

print("=" * 70)
print("1. The lens: intersection area of two unit disks at distance d")
print("=" * 70)
for d in (0.0, 0.5, 1.0, 1.5, 2.0):
    print(f"   d = {d:4.2f}   lens_area = {geo.lens_area(d):.6f}")
print(f"   (d=0 gives the full disk pi = {math.pi:.6f}; tangent disks give 0)")

print()
print("=" * 70)
print("2. Exact three-disk intersection, cross-checked by Monte Carlo")
print("=" * 70)
o, q, u = (0.0, 0.0), (0.9, 0.0), (0.0, 0.9)
exact = geo.triple_disk_intersection_area(o, q, u)
est = geo.mc_area_oracle(geo.region_membership((o, q, u), ()), (-1, 1, -1, 1), 10**6, seed=1)
print(f"   centers {o}, {q}, {u}")
print(f"   exact        = {exact:.6f}")
print(f"   Monte Carlo  = {est.value:.6f} +- {est.std_error:.6f}   "
      f"(z = {(exact - est.value) / est.std_error:+.2f})")

print()
print("=" * 70)
print("3. The omitted region: the part of D(o) that two disks leave bare")
print("=" * 70)
print("   omitted_area sums the omitted region's own boundary arcs (Green's")
print("   theorem); inclusion-exclusion, pi - lens - lens + triple, agrees here")
print("   but cancels O(1) terms once the region is a thin sliver")
for dq in (0.2, 0.6, 1.0):
    q = (dq, 0.0)
    u = (-dq, 0.0)
    x = geo.omitted_area(o, q, u)
    parts = (math.pi - geo.lens_area(geo.dist(o, q)) - geo.lens_area(geo.dist(o, u))
             + geo.triple_disk_intersection_area(o, q, u))
    print(f"   opposed pair at distance {dq:3.1f}: omitted = {x:.6f}   (by parts {parts:.6f})")
q = u = (0.6, 0.0)
print(f"   both points on the SAME side at 0.6: omitted = {geo.omitted_area(o, q, u):.6f}")
print("   (opposed placement covers far better than a clustered pair)")

print()
print("=" * 70)
print("4. Monotonicity: omitted area grows as the pair angle closes")
print("=" * 70)
delta = 0.1
print(f"   two centers on a circle of radius {delta}; phi2 is the second")
print("   center's polar angle (the first sits at angle pi):")
for phi2 in np.linspace(0.0, math.pi, 7):
    x = geo.omitted_area_at_angle(delta, phi2)
    angle_between = math.pi - phi2
    print(f"   phi2 = {phi2:5.3f} (angle between = {angle_between:5.3f})   omitted = {x:.8f}")

print()
print("=" * 70)
print("5. Worst case over a sector pair, and how it scales")
print("=" * 70)
print("   A frame with parameter b partitions the radius-delta disk into")
print("   2L opposed sectors; the omitted area is maximized at the outer")
print("   sector corners, and that maximum decays like 1/(b ln^3 b):")
print(f"   {'b':>9}  {'delta':>10}  {'sectors':>8}  {'max omitted':>12}  {'x b ln^3 b':>10}")
for b in (10**3, 10**4, 10**5, 10**6):
    frame = geo.SectorFrame(geo.Point2D(0.0, 0.0), b)
    qt, ut = geo.extreme_points(frame, 0)
    x = geo.omitted_area(frame.center, qt, ut)
    print(f"   {b:>9}  {frame.delta:>10.6f}  {frame.count:>8}  {x:>12.3e}  {x * b * math.log(b)**3:>10.3f}")
print("   The right-hand column staying flat is the scaling law at work.")

print()
print("=" * 70)
print("6. Truncation at the habitat boundary")
print("=" * 70)
sq = geo.SquareRegion(10.0)
for label, center in (("interior", (5.0, 5.0)), ("edge", (0.5, 5.0)), ("corner", (0.0, 0.0))):
    a = geo.truncated_disk_area(center, sq)
    print(f"   {label:>8} center {center}: clipped disk area = {a:.6f}")
print(f"   (between pi/4 = {math.pi/4:.6f} and pi = {math.pi:.6f} for sides >= 2)")
