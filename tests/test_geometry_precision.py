"""Exact geometry against a 60-digit reference, in the paper's own regime.

The omitted area of an extreme sector pair shrinks like 1/(b ln^3 b);
float64 must still carry it to a small relative error.  The reference is
the benchmark's mpmath Green's-theorem computation (perfbench/reference.py,
loaded read-only), which shares no code with `udgprune.geometry`.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from udgprune import geometry as geo


def _load_reference():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("area_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = _load_reference()
ORIGIN = (0.0, 0.0)
# omitted * b ln^3 b at extreme pair 0 about the origin, from the reference
SCALING_RATIOS = {10**6: 0.857, 10**10: 0.714, 10**12: 0.679, 10**18: 0.619}


@pytest.mark.parametrize("b", [10**e for e in range(3, 13)])
def test_extreme_pairs_match_the_reference(b):
    frame = geo.SectorFrame(geo.Point2D(*ORIGIN), b)
    for i in (0, 3, frame.count // 2, frame.count - 1):
        q, u = geo.extreme_points(frame, i)
        ref = float(reference.omitted_area(ORIGIN, q, u))
        assert ref > 0.0
        assert abs(geo.omitted_area(ORIGIN, q, u) - ref) <= 1e-4 * ref, (b, i)


@pytest.mark.parametrize("b, ratio", SCALING_RATIOS.items())
def test_extreme_area_scaling_through_1e18(b, ratio):
    frame = geo.SectorFrame(geo.Point2D(*ORIGIN), b)
    q, u = geo.extreme_points(frame, 0)
    scale = b * math.log(b) ** 3
    exact = float(reference.omitted_area(ORIGIN, q, u)) * scale
    assert round(exact, 3) == ratio
    assert abs(geo.omitted_area(ORIGIN, q, u) * scale - exact) <= 0.01 * exact


@pytest.mark.parametrize("d", [1e-9, 0.3, 1.0, 1.7, 2.0 - 1e-6, 2.0 - 1e-9])
def test_lens_and_triple_match_the_reference(d):
    # the lens keeps its relative precision up to tangency, and the disk
    # about the midpoint of the two centers contains the whole lens
    ref = reference.disk_region_area([ORIGIN, (d, 0.0)], [])
    assert abs(geo.lens_area(d) - float(ref)) <= 1e-12 * float(ref)
    third = (0.5 * d, 0.0)
    triple = geo.triple_disk_intersection_area(ORIGIN, (d, 0.0), third)
    assert abs(triple - float(ref)) <= 1e-9 * float(ref) + 1e-15
