"""Local coverage by two disks: the colored-sample experiment.

Draw w white and b blue points uniformly from the unit disk about a
center o clipped to the square, classify the blue points that fall in
the small radius-delta core disk into opposed sectors, and ask whether
two adjacent blue points from the core dominate the whole sample.  The
sector statistics feed the tail/mean checks; the domination probability
is the quantity the pruning analysis ultimately leans on.

A sample finds its core points when it is built (`ColoredSample.core`);
`sector_stats` labels each once and keeps the first matched pair for
`x_b_indicator`.  `colored_trials` is the one loop that draws the
samples of a seeded experiment, trial t from ``derived_seed(seed, t)``.
`sample_colored` alone picks the sector frame, the paper's for b; every
reader takes it from ``sample.frame``.
`sample_truncated_disk` takes each batch's accepted rows with
`np.compress` along axis 0, because ``cand[keep]`` on (batch, 2) rows
measured about 10 times slower on numpy 2.4.6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .geometry import Point2D, SectorFrame, SquareRegion, _disk_square_bounds, _sq_dist, sector_of, truncated_disk_area
from .util import derived_seed, wilson_interval

__all__ = [
    "ColoredSample",
    "SectorStats",
    "CoverageEstimate",
    "CoreTailReport",
    "sample_colored",
    "colored_trials",
    "sample_truncated_disk",
    "sector_stats",
    "blue_pair_dominates",
    "x_b_indicator",
    "local_coverage_probability",
    "z_tail_check",
    "clipped_disk_density",
]


@dataclass(frozen=True)
class ColoredSample:
    """w white + b blue points drawn uniformly from the clipped unit disk
    about ``center`` = ``frame.center``, the frame that reads core statistics.

    ``core`` holds the indices, in increasing order, of the blue points
    within ``frame.delta`` of the center, decided by the float expression
    `sector_of` uses, so it labels every core point but the center.
    """

    square: SquareRegion
    white: np.ndarray  # (w, 2)
    blue: np.ndarray   # (b, 2)
    frame: SectorFrame
    core: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = self.center
        d2 = _sq_dist(self.blue[:, 0] - c[0], self.blue[:, 1] - c[1])
        object.__setattr__(self, "core", np.flatnonzero(d2 <= self.frame.delta * self.frame.delta))

    @property
    def center(self) -> Point2D:
        return self.frame.center

    @property
    def w(self) -> int:
        return len(self.white)

    @property
    def b(self) -> int:
        return len(self.blue)


@dataclass(frozen=True)
class SectorStats:
    """Sector statistics of the blue points in the core disk.

    ``tau`` counts sector indices whose Q- and R-sides each hold exactly
    one blue point, and ``first_match`` is the least of them (-1 when
    there are none).  ``first_pair`` holds the blue indices of the
    (Q, first_match) and (R, first_match) points (None when there is no
    match).  ``core_blue`` is the number of blue points in the core disk.
    """

    tau: int
    first_match: int
    first_pair: Optional[tuple[int, int]]
    core_blue: int


def clipped_disk_density(center, square: SquareRegion) -> float:
    """pi / area(clipped disk): 1 for interior centers, at most 4 at a corner."""
    return math.pi / truncated_disk_area(center, square)


def sample_truncated_disk(
    center, square: SquareRegion, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """Rejection-sample ``count`` uniform points from the clipped unit disk.

    Proposals come from the bounding box of disk-and-square; membership
    is an exact squared-distance test.  Returns (points, proposals), the
    second for acceptance-rate audits.  The accepted sequence is a prefix
    of a deterministic stream, so enlarging ``count`` with the same rng
    state extends the sample rather than reshuffling it.
    """
    xlo, xhi, ylo, yhi = _disk_square_bounds(center, square)
    out = np.empty((count, 2), dtype=float)
    got = 0
    proposals = 0
    batch = 8192  # fixed so the accepted stream does not depend on count
    while got < count:
        cand = rng.random((batch, 2))
        cand[:, 0] = cand[:, 0] * (xhi - xlo) + xlo
        cand[:, 1] = cand[:, 1] * (yhi - ylo) + ylo
        keep = _sq_dist(cand[:, 0] - center[0], cand[:, 1] - center[1]) <= 1.0
        hits = int(keep.sum())
        take = min(count - got, hits)
        if take:
            out[got : got + take] = np.compress(keep, cand, axis=0)[:take]
            got += take
        if take < hits:
            # count only proposals up to and including the last accepted one
            proposals += int(np.flatnonzero(keep)[take - 1]) + 1
        else:
            proposals += batch
    return out, proposals


def sample_colored(center, square: SquareRegion, w: int, b: int, seed: int) -> ColoredSample:
    """Draw the colored sample: first w points white, remaining b blue.

    The frame is the paper's for b, or for 3 when b < 3.  Requires the
    core disk of that frame to fit inside the square and b >= 1;
    deterministic given the seed.
    """
    if w < 0 or b < 1:
        raise ValueError(f"need w >= 0 and b >= 1, got w={w}, b={b}")
    center = Point2D(float(center[0]), float(center[1]))
    # the sector geometry needs ln b > 0 and at least one sector, so tiny
    # samples borrow the smallest admissible frame
    frame = SectorFrame(center=center, b=max(b, 3))
    delta = frame.delta
    if not (delta <= center[0] <= square.side - delta and delta <= center[1] <= square.side - delta):
        raise ValueError(
            f"core disk of radius {delta:.3g} about {tuple(center)} "
            f"does not fit inside the square of side {square.side}"
        )
    rng = np.random.default_rng(seed)
    pts, _ = sample_truncated_disk(center, square, w + b, rng)
    return ColoredSample(square=square, white=pts[:w], blue=pts[w:], frame=frame)


def sector_stats(sample: ColoredSample) -> SectorStats:
    """Label each blue core point by sector and find the matched sectors."""
    frame = sample.frame
    only = {}  # label -> its blue index while it holds one core point, -1 after
    cx, cy = frame.center
    for j in sample.core:
        p = sample.blue[j]
        if p[0] == cx and p[1] == cy:
            continue  # dead center belongs to no sector
        label = sector_of(frame, p)
        only[label] = -1 if label in only else int(j)
    matched = [
        i for (family, i), j in only.items() if family == "Q" and min(j, only.get(("R", i), -1)) >= 0
    ]
    first_match = min(matched, default=-1)
    return SectorStats(
        tau=len(matched),
        first_match=first_match,
        first_pair=(only["Q", first_match], only["R", first_match]) if matched else None,
        core_blue=len(sample.core),
    )


def _pair_dominates(sample: ColoredSample, g1: np.ndarray, g2: np.ndarray) -> bool:
    """Are g1 and g2 adjacent, with every sample point within 1 of one of them?"""
    if _sq_dist(g1[0] - g2[0], g1[1] - g2[1]) > 1.0:
        return False
    for pts in (sample.white, sample.blue):
        near1 = _sq_dist(pts[:, 0] - g1[0], pts[:, 1] - g1[1]) <= 1.0
        near2 = _sq_dist(pts[:, 0] - g2[0], pts[:, 1] - g2[1]) <= 1.0
        if not (near1 | near2).all():
            return False
    return True


def blue_pair_dominates(sample: ColoredSample) -> tuple[bool, Optional[tuple[int, int]]]:
    """Does some adjacent pair of blue points inside the core disk cover
    every point of the sample?

    Returns (found, pair-of-blue-indices) with the first qualifying pair
    in index order; only pairs drawn from the core disk are considered.
    """
    core = sample.core
    for a in range(len(core) - 1):
        g1 = sample.blue[core[a]]
        for b in range(a + 1, len(core)):
            if _pair_dominates(sample, g1, sample.blue[core[b]]):
                return True, (int(core[a]), int(core[b]))
    return False, None


def x_b_indicator(sample: ColoredSample, stats: SectorStats) -> int:
    """1 iff the lowest matched sector index holds an adjacent blue pair
    that covers the whole sample; 0 when no index is matched.  ``stats``
    is ``sector_stats(sample)``.

    A stricter event than `blue_pair_dominates`: only the two blue points
    of the first matched sector pair are tried.
    """
    if stats.first_pair is None:
        return 0
    q, r = stats.first_pair
    return int(_pair_dominates(sample, sample.blue[q], sample.blue[r]))


@dataclass(frozen=True)
class CoverageEstimate:
    successes: int
    trials: int
    estimate: float
    wilson_low: float
    wilson_high: float

    @classmethod
    def of(cls, successes: int, trials: int) -> "CoverageEstimate":
        """The rate successes / trials with its Wilson 95% interval."""
        lo, hi = wilson_interval(successes, trials)
        return cls(successes, trials, successes / trials, lo, hi)


def colored_trials(
    center, square: SquareRegion, w: int, b: int, trials: int, seed: int
) -> Iterator[ColoredSample]:
    """The samples of trials 0..trials-1; trial t is drawn from
    ``derived_seed(seed, t)``, so any one of them can be redrawn alone."""
    for t in range(trials):
        yield sample_colored(center, square, w, b, seed=derived_seed(seed, t))


def local_coverage_probability(
    center, square: SquareRegion, w: int, b: int, trials: int, seed: int
) -> CoverageEstimate:
    """Fraction of independent samples where an adjacent core blue pair
    dominates, with a Wilson 95% interval."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    samples = colored_trials(center, square, w, b, trials, seed)
    hits = sum(blue_pair_dominates(sample)[0] for sample in samples)
    return CoverageEstimate.of(hits, trials)


@dataclass(frozen=True)
class CoreTailReport:
    """Empirical tail of the core blue count against its sub-Gaussian bound."""

    trials: int
    threshold: float
    empirical_tail: float
    chernoff_bound: float
    tail_ok: bool
    mean_core: float
    expected_core: float
    mean_ok: bool


def z_tail_check(center, square: SquareRegion, b: int, trials: int, seed: int) -> CoreTailReport:
    """Compare Pr(core blue count >= threshold) with exp(-b^(1/3)/(4 ln^2 b)).

    The threshold is 2 * density * B^(1/3) / (ln B)^2, where B is the size
    parameter of the samples' frame.  The core count is
    Binomial(b, density * delta^2), so its mean is also checked against
    b * density * delta^2 within three standard errors.  Needs b >= 2:
    the bound divides by ln b.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if b < 2:
        raise ValueError(f"b={b} too small: the Chernoff bound needs b >= 2 (it divides by ln b)")
    counts = np.empty(trials, dtype=np.int64)
    for t, sample in enumerate(colored_trials(center, square, 0, b, trials, seed)):
        counts[t] = len(sample.core)
    lam = clipped_disk_density(center, square)
    frame = sample.frame  # the frame `sample_colored` chose, the same for every trial
    threshold = 2.0 * lam * frame.b ** (1.0 / 3.0) / math.log(frame.b) ** 2
    expected = b * lam * frame.delta**2
    tail = float(np.mean(counts >= threshold))
    bound = math.exp(-(b ** (1.0 / 3.0)) / (4.0 * math.log(b) ** 2))
    tail_se = math.sqrt(max(tail * (1.0 - tail), 1.0 / trials) / trials)
    mean = float(counts.mean())
    mean_se = float(counts.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return CoreTailReport(
        trials=trials,
        threshold=threshold,
        empirical_tail=tail,
        chernoff_bound=bound,
        tail_ok=tail <= bound + 3.0 * tail_se,
        mean_core=mean,
        expected_core=expected,
        mean_ok=abs(mean - expected) <= 3.0 * max(mean_se, 1e-12),
    )
