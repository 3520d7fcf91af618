"""End-to-end pruning experiments over size/side schedules.

Runs the full pipeline (sample points, build the unit disk graph, prune,
verify the CDS) across seeded trials, collects per-vertex label/count
statistics, and emits a fixed-schema CSV for scaling sweeps.  Everything
is deterministic given the configured seeds; trials may run in worker
processes because each one derives its own seed.

`graph_trial` prunes and verifies one graph; `run_trial` samples a graph
and hands it to `graph_trial`.  Both `sweep` and the ``run-rule2``
command go through `run_trial`, so a sweep row's (n, side, seed)
reproduces that row with ``run-rule2``.
"""

from __future__ import annotations

import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .geometry import SquareRegion, truncated_disk_area
from .rgg import _check_side, _check_vertex_count, build_udg, ell_power, ell_sqrt, sample_points
from .rule2 import CdsReport, prune, verify_cds
from .util import csv_text, derived_seed

__all__ = [
    "Schedule",
    "TrialResult",
    "VertexStatsArrays",
    "VertexStats",
    "default_alpha",
    "make_schedule",
    "vertex_stats",
    "all_vertex_stats",
    "graph_trial",
    "run_trial",
    "SweepConfig",
    "ScheduleSpec",
    "sweep",
    "sweep_rows_to_csv",
    "aggregate_rows",
    "concentration_check",
    "CSV_SCHEMA_VERSION",
    "CSV_COLUMNS",
]

# version 2 derives the seed column from (seed, n, trial)
CSV_SCHEMA_VERSION = 2
CSV_COLUMNS = [
    "schema_ver",
    "n",
    "side",
    "seed",
    "trial",
    "cds_size",
    "U",
    "frac_pruned",
    "comp_g",
    "comp_c",
    "dominating",
    "cds_over_ell2",
    "ge_ell2_over_4",
    "millis",
]


@dataclass(frozen=True)
class Schedule:
    """A finite-n instance of the asymptotic parameter schedule.

    ``alpha`` is the label-window cut: `concentration_check` reads the
    window [alpha, n - alpha).  ``margin = 1 / (ln xi)^{3/2}``, with
    ``xi = alpha / ell^2`` the crowding ratio, is the boundary margin used
    by the interior event.
    """

    n: int
    ell: float
    alpha: float
    margin: float = field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not (math.isfinite(self.ell) and self.ell > 0):
            raise ValueError(f"ell must be positive, got {self.ell!r}")
        xi = self.alpha / (self.ell * self.ell)
        if not xi > 1.0 + 1e-12:  # alpha = ell^2 up to rounding counts as 1
            raise ValueError(
                f"alpha/ell^2 = {xi:.4g} is not above 1: the boundary margin is "
                "undefined (the 'power' alpha profile with ell = sqrt(n / ln n) "
                "gives alpha = ell^2; pair it with ell_power(n, t), t < 1/2)"
            )
        object.__setattr__(self, "margin", 1.0 / math.log(xi) ** 1.5)
        if self.n > 1 and self.ell < math.log(self.n):
            warnings.warn(
                f"ell={self.ell:.4g} below ln n={math.log(self.n):.4g}: outside the "
                "regime the analysis assumes",
                stacklevel=2,
            )


def default_alpha(n: int, profile: str) -> float:
    """The window cut for a given habitat profile.

    ``"sqrt"`` (ell of order sqrt(n/ln n)) uses 32n / (ln ln n)^{3/2};
    ``"power"`` (ell of order (n/ln n)^t, t < 1/2) uses n / ln n.

    `Schedule` needs alpha / ell^2 > 1, which holds for ``"sqrt"`` with
    ``ell_sqrt(n, c)``, c < 8.8, and for ``"power"`` with ``ell_power(n, t)``,
    t < 1/2.  ``"power"`` with ``ell_sqrt(n)`` gives alpha = ell^2 up to
    rounding, so `make_schedule` raises for every n.
    """
    if profile == "sqrt":
        if n <= 15:  # ln ln n <= 1 makes the exponent degenerate
            raise ValueError(f"sqrt profile needs n > 15, got {n}")
        return 32.0 * n / math.log(math.log(n)) ** 1.5
    if profile == "power":
        if n < 3:
            raise ValueError(f"power profile needs n >= 3, got {n}")
        return n / math.log(n)
    raise ValueError(f"unknown alpha profile {profile!r} (expected 'sqrt' or 'power')")


def make_schedule(n: int, ell: float, alpha_profile: str = "sqrt") -> Schedule:
    """The schedule of one habitat: ``alpha_profile`` names it ("sqrt" or
    "power"), because the paper's two habitats need different window cuts."""
    return Schedule(n=n, ell=ell, alpha=default_alpha(n, alpha_profile))


@dataclass(frozen=True)
class VertexStats:
    """Label/count statistics of one vertex.

    ``higher_count``/``lower_count`` are the numbers of neighbors (nodes
    within distance 1, clipped to the square) with larger/smaller labels;
    the means are the exact conditional expectations (n-i) A / ell^2 and
    (i-1) A / ell^2 with A the clipped-disk area.  ``interior`` says the
    margin disk fits in the square; ``concentrated`` says both counts sit
    strictly within half their mean.
    """

    vid: int
    higher_count: int
    lower_count: int
    higher_mean: float
    lower_mean: float
    interior: bool
    concentrated: bool


@dataclass(frozen=True)
class VertexStatsArrays:
    """Column layout of `VertexStats` over every vertex of one graph."""

    higher_count: np.ndarray
    lower_count: np.ndarray
    higher_mean: np.ndarray
    lower_mean: np.ndarray
    interior: np.ndarray
    concentrated: np.ndarray

    def single(self, vid: int) -> VertexStats:
        """`VertexStats` of vertex ``vid``; an id outside 1..n raises `ValueError`."""
        if not 1 <= vid <= len(self.higher_count):
            raise ValueError(f"vertex id {vid} out of range 1..{len(self.higher_count)}")
        j = vid - 1
        return VertexStats(
            vid=vid,
            higher_count=int(self.higher_count[j]),
            lower_count=int(self.lower_count[j]),
            higher_mean=float(self.higher_mean[j]),
            lower_mean=float(self.lower_mean[j]),
            interior=bool(self.interior[j]),
            concentrated=bool(self.concentrated[j]),
        )


def all_vertex_stats(g, schedule: Schedule) -> VertexStatsArrays:
    """`VertexStats` columns for all vertices (one pass over the graph)."""
    n = g.n
    ids = np.arange(1, n + 1)
    lower = g.nbr_low.copy()  # a copy, so a caller that edits the column cannot change the graph
    higher = np.diff(g.nbr_offsets) - lower
    side = g.square.side
    xs, ys = g.points[:, 0], g.points[:, 1]
    # at distance >= 1 from every side truncated_disk_area is exactly pi
    # (three of its four quadrant terms are 0), so only the rest are clipped
    border = ~((xs >= 1.0) & (ys >= 1.0) & (side - xs >= 1.0) & (side - ys >= 1.0))
    areas = np.full(n, math.pi)
    areas[border] = [truncated_disk_area(p, g.square) for p in g.points[border]]
    ell2 = side**2
    higher_mean = (n - ids) * areas / ell2
    lower_mean = (ids - 1) * areas / ell2
    r = schedule.margin
    interior = (xs >= r) & (xs <= side - r) & (ys >= r) & (ys <= side - r)
    concentrated = (np.abs(higher - higher_mean) < 0.5 * higher_mean) & (
        np.abs(lower - lower_mean) < 0.5 * lower_mean
    )
    return VertexStatsArrays(
        higher_count=higher,
        lower_count=lower,
        higher_mean=higher_mean,
        lower_mean=lower_mean,
        interior=interior,
        concentrated=concentrated,
    )


def vertex_stats(g, i: int, schedule: Schedule) -> VertexStats:
    """Statistics of vertex ``i``; see `VertexStats` for the fields.

    The highest label has higher_mean 0, so its strict concentration
    inequality is unsatisfiable and it is never ``concentrated`` (the
    label window never reaches it anyway).  A vertex id outside 1..n
    raises `ValueError` from ``g.neighbors``.
    """
    nbr = g.neighbors(i)
    area = truncated_disk_area(g.points[i - 1], g.square)
    ell2 = g.square.side**2
    higher_mean = (g.n - i) * area / ell2
    lower_mean = (i - 1) * area / ell2
    r = schedule.margin
    x, y = g.points[i - 1]
    hc = int((nbr > i).sum())
    lc = int((nbr < i).sum())
    return VertexStats(
        vid=i,
        higher_count=hc,
        lower_count=lc,
        higher_mean=higher_mean,
        lower_mean=lower_mean,
        interior=bool(r <= x <= g.square.side - r and r <= y <= g.square.side - r),
        concentrated=bool(
            abs(hc - higher_mean) < 0.5 * higher_mean
            and abs(lc - lower_mean) < 0.5 * lower_mean
        ),
    )


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one full pipeline run: the CDS size and its
    `verify_cds` report.  ``runtime_ms`` is measured wall time and
    excluded from equality so identical seeds compare equal."""

    n: int
    side: float
    seed: int
    cds_size: int
    report: CdsReport
    runtime_ms: float = field(compare=False, default=0.0)


def graph_trial(g, started: float | None = None) -> TrialResult:
    """Prune ``g`` and verify the CDS.  ``runtime_ms`` runs from the
    ``time.perf_counter()`` value ``started`` (default: the call), so that
    `run_trial` can count sampling and building too."""
    if started is None:
        started = time.perf_counter()
    cds = prune(g)
    return TrialResult(
        n=g.n,
        side=g.square.side,
        seed=g.seed,
        cds_size=cds.size,
        report=verify_cds(g, cds),
        runtime_ms=(time.perf_counter() - started) * 1000.0,
    )


def run_trial(n: int, side: float, seed: int) -> TrialResult:
    """Sample, build, prune, verify; deterministic given (n, side, seed).
    ``runtime_ms`` covers all four stages."""
    started = time.perf_counter()
    square = SquareRegion(side)
    g = build_udg(sample_points(n, square, seed), square, seed=seed)
    return graph_trial(g, started)


@dataclass(frozen=True)
class ScheduleSpec:
    """One sweep entry: n, the habitat rule, and the trial plan."""

    n: int
    ell_kind: str          # "sqrt" or "power"
    ell_value: float       # the constant c, or the exponent t
    trials: int
    seed: int

    def side(self) -> float:
        if self.ell_kind == "sqrt":
            return ell_sqrt(self.n, self.ell_value)
        if self.ell_kind == "power":
            return ell_power(self.n, self.ell_value)
        raise ValueError(f"unknown ell rule {self.ell_kind!r}")


_SCHEDULE_KEYS = ("n", "ell_rule", "trials", "seed")
_ELL_RULE_KEYS = ("kind", "value")


def _reject_unknown_keys(mapping, allowed: tuple[str, ...], where: str = "") -> None:
    if not isinstance(mapping, dict):
        raise ValueError(f"{where}expected an object, got {mapping!r}")
    unknown = [key for key in mapping if key not in allowed]
    if unknown:
        raise ValueError(f"unknown {where}key {unknown[0]!r}, expected {allowed}")


def _json_int(entry: dict, key: str, low: int) -> int:
    value = entry[key]
    # bool is a subclass of int, and JSON true is no count
    if type(value) is not int or value < low:
        raise ValueError(f"{key} must be an integer >= {low}, got {value!r}")
    return value


@dataclass(frozen=True)
class SweepConfig:
    schedules: tuple[ScheduleSpec, ...]

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        """Parse ``{"schedules": [{"n", "ell_rule": {"kind", "value"},
        "trials", "seed"}, ...]}``; any other key of a schedule or of its
        ``ell_rule`` is an error.  n, trials and seed must be JSON integers
        (n >= 2, the others >= 0), ``value`` a JSON number, and the side it
        gives positive and finite.  n must also be below 2^31, the int32
        index limit of the graph, and the side below ``rgg._MAX_SIDE``, the
        int64 cell-key limit, so no trial draws points that `build_udg`
        rejects."""
        if not isinstance(data, dict) or not isinstance(data.get("schedules"), list):
            raise ValueError("sweep config must be an object with a 'schedules' list of objects")
        specs = []
        for pos, entry in enumerate(data["schedules"]):
            try:
                _reject_unknown_keys(entry, _SCHEDULE_KEYS)
                rule = entry["ell_rule"]
                _reject_unknown_keys(rule, _ELL_RULE_KEYS, "ell_rule ")
                if type(rule["value"]) not in (int, float):
                    raise ValueError(f"ell_rule value must be a number, got {rule['value']!r}")
                n = _json_int(entry, "n", 2)  # ln 1 = 0 leaves the side undefined
                _check_vertex_count(n)
                spec = ScheduleSpec(
                    n=n,
                    ell_kind=str(rule["kind"]),
                    ell_value=float(rule["value"]),
                    trials=_json_int(entry, "trials", 0),
                    seed=_json_int(entry, "seed", 0),
                )
                # rejects a side that is not positive and finite, or past the cell-key limit
                _check_side(SquareRegion(spec.side()).side)
            except (KeyError, ValueError, ArithmeticError) as exc:
                raise ValueError(f"sweep config schedules[{pos}]: {exc}") from exc
            specs.append(spec)
        return cls(schedules=tuple(specs))


def sweep(config: SweepConfig, parallel: int = 1, emit_timings: bool = False) -> list[dict]:
    """Run every configured trial and return one CSV row dict per trial.

    Rows are ordered by (schedule position, trial index) regardless of
    ``parallel``, and ``millis`` is 0 unless ``emit_timings`` is set, so
    output bytes are identical across parallelism settings and reruns.
    Trial t of a schedule runs with ``derived_seed(seed, n, t)``, so two
    schedules that differ only in n draw independent points.
    """
    plan = [(spec, t) for spec in config.schedules for t in range(spec.trials)]
    jobs = [(spec.n, spec.side(), derived_seed(spec.seed, spec.n, t)) for spec, t in plan]
    if parallel > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            results = list(pool.map(run_trial, *zip(*jobs), chunksize=1))
    else:
        results = [run_trial(*job) for job in jobs]

    rows = []
    for res, (_, trial) in zip(results, plan):
        ell2 = res.side * res.side
        pruned = res.n - res.cds_size
        rows.append(
            {
                "schema_ver": CSV_SCHEMA_VERSION,
                "n": res.n,
                "side": res.side,
                "seed": res.seed,
                "trial": trial,
                "cds_size": res.cds_size,
                "U": pruned,
                "frac_pruned": pruned / res.n,
                "comp_g": res.report.components_graph,
                "comp_c": res.report.components_induced,
                "dominating": res.report.dominating,
                "cds_over_ell2": res.cds_size / ell2,
                "ge_ell2_over_4": res.cds_size >= ell2 / 4.0,
                "millis": round(res.runtime_ms, 3) if emit_timings else 0,
            }
        )
    return rows


def sweep_rows_to_csv(rows: list[dict]) -> str:
    return csv_text(CSV_COLUMNS, ([row[c] for c in CSV_COLUMNS] for row in rows))


def aggregate_rows(rows: list[dict]) -> list[dict]:
    """Per-(n, side) summary: mean CDS size, mean pruned fraction, the
    scaling ratio cds/ell^2, and how often the quarter-ell^2 floor held."""
    groups: dict[tuple[int, float], list[dict]] = {}
    for row in rows:
        groups.setdefault((row["n"], row["side"]), []).append(row)
    out = []
    for (n, side), grp in sorted(groups.items()):
        k = len(grp)
        out.append(
            {
                "n": n,
                "side": side,
                "trials": k,
                "mean_cds_size": sum(r["cds_size"] for r in grp) / k,
                "mean_frac_pruned": sum(r["frac_pruned"] for r in grp) / k,
                "mean_cds_over_ell2": sum(r["cds_over_ell2"] for r in grp) / k,
                "frac_ge_ell2_over_4": sum(r["ge_ell2_over_4"] for r in grp) / k,
                "all_dominating": all(r["dominating"] for r in grp),
            }
        )
    return out


@dataclass(frozen=True)
class ConcentrationReport:
    checked: int
    vacuous: bool
    empirical_rate: float
    mean_bound: float
    ok: bool


def concentration_check(g, schedule: Schedule) -> ConcentrationReport:
    """Among interior window vertices whose Chebyshev-style floor
    1 - 16 ell^2/(n-i) - 16 ell^2/(i-1) is positive, compare the observed
    ``concentrated`` frequency with the mean floor minus 0.05.

    The floor is negative everywhere at small n, in which case the check
    is vacuous and reported as such.
    """
    stats = all_vertex_stats(g, schedule)
    ids = np.arange(1, g.n + 1)
    ell2 = g.square.side**2
    with np.errstate(divide="ignore"):
        bound = 1.0 - 16.0 * ell2 / (g.n - ids) - 16.0 * ell2 / (ids - 1.0)
    eligible = (
        (ids >= schedule.alpha)
        & (ids < schedule.n - schedule.alpha)
        & stats.interior
        & (bound > 0.0)
    )
    n_el = int(eligible.sum())
    if n_el == 0:
        return ConcentrationReport(0, True, math.nan, math.nan, True)
    rate = float(stats.concentrated[eligible].mean())
    mean_bound = float(bound[eligible].mean())
    return ConcentrationReport(
        checked=n_el,
        vacuous=False,
        empirical_rate=rate,
        mean_bound=mean_bound,
        ok=rate >= mean_bound - 0.05,
    )
