#!/usr/bin/env python3
"""Rule 2 pruning on one random unit disk graph, step by step.

Samples n points uniformly in a square, connects every pair at distance
at most one, prunes with the Wu-Li Rule 2 (a vertex retires when two
adjacent higher-ID neighbors jointly cover its closed neighborhood), and
verifies that the survivors form a connected dominating set.

Run:  python demos/rule2_on_random_udg.py
"""

import numpy as np

from udgprune import rgg, rule2
from udgprune.geometry import SquareRegion

n = 2000
side = rgg.ell_sqrt(n)  # sqrt(n / ln n): density ln n per unit square
seed = 42

print(f"n = {n}, habitat side = {side:.2f}, seed = {seed}")
square = SquareRegion(side)
points = rgg.sample_points(n, square, seed=seed)
g = rgg.build_udg(points, square, seed=seed)
degrees = np.diff(g.nbr_offsets)
print(f"edges = {len(g.edges)}, mean degree = {degrees.mean():.1f}, "
      f"min/max degree = {degrees.min()}/{degrees.max()}")

count, _ = rgg.components(g)
print(f"components before pruning: {count}")

cds = rule2.prune(g)
pruned = n - cds.size
print(f"\nRule 2 retains {cds.size} gateways and prunes {pruned} "
      f"({pruned / n:.1%} of the vertices)")

report = rule2.verify_cds(g, cds)
print(f"dominating: {report.dominating}")
print(f"component preserving: {report.component_preserving} "
      f"({report.components_induced} induced vs {report.components_graph} original)")

print("\nWhy a vertex retires: the first few exclusion witnesses")
shown = 0
for vid in range(1, n + 1):
    pair = rule2.is_excluded(g, vid)
    if pair is not None:
        i1, i2 = pair
        print(f"   vertex {vid:>5} covered by adjacent pair ({i1}, {i2}), both higher-ID")
        shown += 1
        if shown == 5:
            break

print("\nLow-ID vertices face many higher-ID neighbors and retire easily;")
print("high-ID vertices rarely find two higher-ID coverers:")
ids = np.arange(1, n + 1)
kept = np.zeros(n, dtype=bool)
kept[np.array(cds.members) - 1] = True
for lo, hi in ((1, n // 4), (n // 4 + 1, n // 2), (n // 2 + 1, 3 * n // 4), (3 * n // 4 + 1, n)):
    sel = (ids >= lo) & (ids <= hi)
    print(f"   IDs {lo:>5}..{hi:<5}: {1 - kept[sel].mean():.1%} pruned")
