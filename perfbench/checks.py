"""Independent checks of the program's outputs, and the work counters.

Every check returns a list of failure messages (empty when the output is
right).  None of them reuses the code path it checks: gateway sets are
compared with the brute-force oracle, adjacency with full numpy distance
rows, coverage results with direct numpy tests, and areas with the
mpmath references in `reference`.  All of this runs outside the timed
region of a unit.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy import sparse

RTOL = 1e-4  # relative tolerance of every area check against its 60-digit reference


def check_gateways(gateways, oracle, report) -> list[str]:
    """The pruned set must equal the brute-force one, and `verify_cds`
    must call it dominating and component-preserving."""
    fails = []
    if tuple(gateways.members) != tuple(oracle.members):
        missing = sorted(set(oracle.members) - set(gateways.members))
        extra = sorted(set(gateways.members) - set(oracle.members))
        fails.append(f"gateway set differs from brute force: missing {missing[:5]}, extra {extra[:5]}")
    if not report.dominating:
        fails.append("verify_cds: not dominating")
    if not report.component_preserving:
        fails.append(
            f"verify_cds: {report.components_induced} induced components, "
            f"graph has {report.components_graph}"
        )
    return fails


def check_neighbour_rows(g, vertices) -> list[str]:
    """For each 1-based vertex id, its neighbour row must equal the ids at
    squared distance <= 1 in a full numpy distance row."""
    fails = []
    for v in vertices:
        d2 = np.sum((g.points - g.points[v - 1]) ** 2, axis=1)
        want = np.flatnonzero(d2 <= 1.0) + 1
        want = want[want != v]
        got = np.asarray(g.neighbors(int(v)))
        if not np.array_equal(got, want):
            fails.append(f"neighbours of vertex {v}: got {got[:8].tolist()}, want {want[:8].tolist()}")
    return fails


def _edge_set(edges) -> np.ndarray:
    e = np.sort(np.asarray(edges, dtype=np.int64), axis=1)
    return e[np.lexsort((e[:, 1], e[:, 0]))]


def check_same_graph(built, loaded) -> list[str]:
    """A graph read back from its file must have the same points and edges."""
    fails = []
    if built.points.shape != loaded.points.shape or not np.array_equal(built.points, loaded.points):
        fails.append("loaded points differ from the saved graph")
    if not np.array_equal(_edge_set(built.edges), _edge_set(loaded.edges)):
        fails.append(f"loaded graph has {len(loaded.edges)} edges, saved graph {len(built.edges)}")
    if built.square.side != loaded.square.side:
        fails.append("loaded square side differs")
    return fails


def graph_counters(g) -> dict:
    """Work counters of one graph.

    ``up_pairs`` counts, over every vertex i, the adjacent pairs of
    neighbours with ids above i: each triangle once, at its lowest id.
    ``coverage_tests`` weights each such pair by |N[i]|, the closed
    neighbourhood a covering test ranges over.
    """
    n = g.n
    deg = np.diff(np.asarray(g.nbr_offsets))
    e = _edge_set(g.edges)
    up = sparse.csr_matrix((np.ones(len(e), dtype=np.int64), (e[:, 0], e[:, 1])), shape=(n, n))
    per_vertex = np.asarray((up @ up).multiply(up).sum(axis=1)).ravel()
    return {
        "edges": int(len(e)),
        "degree_max": int(deg.max()) if n else 0,
        "up_pairs": int(per_vertex.sum()),
        "coverage_tests": int((per_vertex * (deg + 1)).sum()),
    }


def check_colored(sample, stats, found, x_b) -> tuple[list[str], dict]:
    """Recompute the core count and the pair-domination answer directly.

    Returns the failures and the counts ``core_blue`` and ``core_pairs``
    (core blue pairs within distance 1).
    """
    fails = []
    c = sample.center
    delta = sample.frame.delta
    pts = np.concatenate([sample.white, sample.blue])
    r2 = (pts[:, 0] - c[0]) ** 2 + (pts[:, 1] - c[1]) ** 2
    side = sample.square.side
    if (r2 > 1.0).any() or (pts < 0).any() or (pts > side).any():
        fails.append("sample has points outside the clipped disk")
    blue = sample.blue
    core = blue[(blue[:, 0] - c[0]) ** 2 + (blue[:, 1] - c[1]) ** 2 <= delta * delta]
    if stats.core_blue != len(core):
        fails.append(f"sector_stats.core_blue = {stats.core_blue}, direct count {len(core)}")
    pairs = 0
    dominated = False
    for a in range(len(core)):
        for b in range(a + 1, len(core)):
            if np.sum((core[a] - core[b]) ** 2) > 1.0:
                continue
            pairs += 1
            near = (np.sum((pts - core[a]) ** 2, axis=1) <= 1.0) | (np.sum((pts - core[b]) ** 2, axis=1) <= 1.0)
            dominated = dominated or bool(near.all())
    if bool(found) != dominated:
        fails.append(f"blue_pair_dominates = {bool(found)}, direct test {dominated}")
    if x_b not in (0, 1) or (x_b == 1 and not dominated):
        fails.append(f"x_b_indicator = {x_b} without a dominating core pair")
    return fails, {"core_blue": len(core), "core_pairs": pairs}


def rel_error(value: float, ref: float) -> float:
    if ref == 0.0:
        return 0.0 if value == 0.0 else math.inf
    return abs(value - ref) / abs(ref)


def check_area(label: str, value: float, ref: float) -> list[str]:
    """A float64 area against its reference, at the fixed relative tolerance."""
    err = rel_error(value, ref)
    if not err <= RTOL:
        return [f"{label}: {value!r} vs reference {ref!r} (relative error {err:.2e})"]
    return []


def check_omitted_invariants(label, value, swapped, triple, lenses) -> list[str]:
    """0 <= omitted <= pi, symmetry in q and u, and triple <= min lens."""
    fails = []
    if not 0.0 <= value <= math.pi:
        fails.append(f"{label}: omitted area {value!r} outside [0, pi]")
    if swapped != value:
        fails.append(f"{label}: omitted(o,q,u) = {value!r} but omitted(o,u,q) = {swapped!r}")
    if triple > min(lenses) * (1.0 + RTOL):
        fails.append(f"{label}: triple intersection {triple!r} exceeds the smallest lens {min(lenses)!r}")
    return fails


def same(a, b) -> bool:
    """Deep equality over the results a unit returns: dicts, sequences,
    numpy arrays and (frozen) dataclasses of them."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    if dataclasses.is_dataclass(a) and type(a) is type(b):
        return all(same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[key], b[key]) for key in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b
