"""Model calibration and comparison on the event catalog.

Raw PCAD and DRF outputs live on arbitrary scales, so every evaluation
first applies a joint min-max rescale to [0, 10] across all events before
scoring against the target risk curves: ``minmax_rescale`` of one vector
that holds every event's frames in catalog order.  ``compare_models`` takes
such vectors too: the truth and each model's rescaled output over one list
of events.  Calibration is a seeded random search: parameter records are
drawn uniformly within bounds (log-uniform for strictly positive scale
parameters), the default record is always evaluated as draw 0, and the best
record by RMSE wins with ties broken by the lowest draw index.

``c_sev`` is deliberately absent from the default DRF bounds: the joint
rescale cancels any pure output scale, so the parameter is unidentifiable
here and drawing it would only waste search budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Mapping, Sequence

import numpy as np

from .reconstruction import RATING_MAX, RATING_MIN
from .risk_models import DrfParams, PairTable, PcadParams, drf_risk_series, pcad_risk_series
from .scenarios import CATALOG, catalog_trajectory, event_by_id

HISTOGRAM_BIN_WIDTH = 0.25

# Scale parameters are sampled log-uniformly, so their lower bounds must
# stay strictly positive.
LOG_UNIFORM_PARAMS = frozenset(
    {"sigma_n_x", "sigma_n_y", "sigma_s_x", "sigma_s_y", "s_steepness", "c_sev"}
)

PCAD_BOUNDS = {
    "sigma_n_x": (0.02, 3.0),
    "sigma_n_y": (0.02, 3.0),
    "sigma_s_x": (0.02, 3.0),
    "sigma_s_y": (0.02, 3.0),
    "t_s_a": (0.0, 2.0),
    "t_n_a": (0.0, 2.0),
    "alpha": (0.5, 4.0),
}

DRF_BOUNDS = {
    "s_steepness": (1e-5, 1e-2),
    "t_la": (0.5, 5.0),
    "m_widening": (0.0, 0.5),
    "c_width": (0.1, 1.5),
}

# the model registry: parameter record, search bounds and series over a pair table
MODEL_DEFAULTS = {"PCAD": PcadParams, "DRF": DrfParams}
MODEL_BOUNDS = {"PCAD": PCAD_BOUNDS, "DRF": DRF_BOUNDS}
MODEL_SERIES = {"PCAD": pcad_risk_series, "DRF": drf_risk_series}


def rmse(pred, obs) -> float:
    """Root mean square error between two equal-length series."""
    pred = np.asarray(pred, dtype=float)
    obs = np.asarray(obs, dtype=float)
    if pred.shape != obs.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {obs.shape}")
    if pred.size == 0:
        raise ValueError("rmse needs at least one sample")
    return float(np.sqrt(np.mean((pred - obs) ** 2)))


def minmax_rescale(values) -> np.ndarray:
    """Affine map of the whole collection onto [0, 10].

    The minimum and maximum are taken jointly over everything passed in,
    so relative ordering between scenarios and events is preserved.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot rescale an empty collection")
    if not np.all(np.isfinite(values)):
        raise ValueError("model outputs must be finite")
    lo = values.min()
    hi = values.max()
    if hi <= lo:
        raise ValueError("constant model output cannot be min-max rescaled")
    return (values - lo) / (hi - lo) * RATING_MAX


def _validate_bounds(bounds: Mapping[str, tuple], params_cls) -> None:
    valid = {f.name for f in fields(params_cls)}
    for name, (lo, hi) in bounds.items():
        if name not in valid:
            raise ValueError(f"unknown {params_cls.__name__} field {name!r}")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"bounds for {name!r} must be finite")
        if lo >= hi:
            raise ValueError(f"bounds for {name!r} must satisfy lower < upper")
        if name in LOG_UNIFORM_PARAMS and lo <= 0:
            raise ValueError(f"log-uniform parameter {name!r} needs a positive lower bound")


@dataclass(frozen=True)
class CalibrationJob:
    """Random-search specification for one model family.

    ``targets`` maps event id to the ground-truth risk curve on that
    event's 10 Hz grid.  Every catalog event of each scenario family
    present in the targets must be covered.
    """

    model: str
    targets: Mapping[int, np.ndarray]
    draws: int
    seed: int
    bounds: Mapping[str, tuple] | None = None

    def __post_init__(self):
        if self.model not in MODEL_DEFAULTS:
            raise ValueError(f"unknown model kind {self.model!r}")
        if self.draws < 1:
            raise ValueError("calibration needs at least one draw")
        if not self.targets:
            raise ValueError("calibration needs target curves")
        _validate_bounds(self.resolved_bounds(), MODEL_DEFAULTS[self.model])

    def resolved_bounds(self) -> Mapping[str, tuple]:
        return dict(self.bounds) if self.bounds is not None else dict(MODEL_BOUNDS[self.model])


@dataclass(frozen=True)
class CalibrationResult:
    best_params: object
    best_rmse: float
    best_draw: int
    trace: tuple


def check_catalog_coverage(targets: Mapping[int, np.ndarray]) -> list:
    """Ensure full family coverage and exact frame counts; return sorted ids."""
    event_ids = sorted(targets)
    families = {event_by_id(eid).family for eid in event_ids}
    for family in sorted(families):
        catalog = [e for e in CATALOG if e.family == family]
        missing = [e.event_id for e in catalog if e.event_id not in targets]
        if missing:
            raise ValueError(f"targets missing {family} events: {missing}")
        for spec in catalog:
            curve = np.asarray(targets[spec.event_id], dtype=float)
            if curve.shape != (spec.n_frames,):
                raise ValueError(
                    f"target for event {spec.event_id} has shape {curve.shape}, "
                    f"expected ({spec.n_frames},)"
                )
    return event_ids


def _draw_record(rng: np.random.Generator, bounds: Mapping[str, tuple]) -> dict:
    record = {}
    for name, (lo, hi) in bounds.items():
        if name in LOG_UNIFORM_PARAMS:
            record[name] = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        else:
            record[name] = float(rng.uniform(lo, hi))
    return record


def calibrate(job: CalibrationJob, trajectories: Mapping[int, object] | None = None) -> CalibrationResult:
    """Randomized search over the job bounds; returns the best record.

    Degenerate draws (constant raw output, which cannot be rescaled) are
    recorded with infinite error and never win.  The returned trace holds
    one row per draw with the drawn values and the scored RMSE.  Every draw
    is scored with one model call over a pair table of all target events.
    """
    event_ids = check_catalog_coverage(job.targets)
    if trajectories is None:
        trajectories = {eid: catalog_trajectory(eid) for eid in event_ids}
    table = PairTable([trajectories[eid] for eid in event_ids])
    target_vec = np.concatenate([np.asarray(job.targets[eid], dtype=float) for eid in event_ids])

    bounds = job.resolved_bounds()
    defaults = MODEL_DEFAULTS[job.model]()
    series_fn = MODEL_SERIES[job.model]
    rng = np.random.default_rng(job.seed)

    best_rmse = math.inf
    best_draw = 0
    best_params = defaults
    trace = []
    for draw in range(job.draws):
        if draw == 0:
            record = {name: getattr(defaults, name) for name in bounds}
        else:
            record = _draw_record(rng, bounds)
        params = replace(defaults, **record)
        raw = series_fn(table, params)
        if raw.max() > raw.min():
            score = rmse(minmax_rescale(raw), target_vec)
        else:
            score = math.inf
        trace.append({"draw": draw, **record, "rmse": score})
        if score < best_rmse:
            best_rmse = score
            best_draw = draw
            best_params = params
    return CalibrationResult(best_params, best_rmse, best_draw, tuple(trace))


@dataclass(frozen=True)
class ComparisonReport:
    """Scenario-level summaries of the per-frame absolute errors.

    ``scenario_stats`` maps (family, model) to (median, q1, q3) of the
    pooled absolute error.  ``histograms`` maps model to (bin_lo, counts)
    with a fixed 0.25 bin width spanning [0, 10].
    """

    scenario_stats: dict
    histograms: dict
    bin_width: float = HISTOGRAM_BIN_WIDTH


def compare_models(event_ids: Sequence[int], truth,
                   outputs: Mapping[str, np.ndarray]) -> ComparisonReport:
    """Absolute-error comparison of rescaled model outputs against truth.

    ``truth`` and each of ``outputs`` are one vector of the frames of ``event_ids``,
    event after event in that order, on each event's 10 Hz grid, as catalog-ordered
    tables hold them.  Every vector must have that length and already live in
    [0, 10].  Each model's errors are pooled per family by a mask.
    """
    if not len(event_ids):
        raise ValueError("comparison needs truth curves")
    if not outputs:
        raise ValueError("comparison needs at least one model")
    specs = [event_by_id(eid) for eid in event_ids]
    family = np.repeat([s.family for s in specs], [s.n_frames for s in specs])
    vectors = []
    for name, values in [("truth", truth), *sorted(outputs.items())]:
        values = np.asarray(values, dtype=float)
        if values.shape != family.shape:
            raise ValueError(f"{name} series has shape {values.shape}, expected {family.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} series must be finite")
        if values.min() < RATING_MIN - 1e-9 or values.max() > RATING_MAX + 1e-9:
            raise ValueError(f"{name} series leaves [{RATING_MIN:g}, {RATING_MAX:g}]")
        vectors.append(values)
    abs_errors = {model: np.abs(values - vectors[0])
                  for model, values in zip(sorted(outputs), vectors[1:])}

    scenario_stats = {}
    for name in sorted({s.family for s in specs}):
        in_family = family == name
        for model, errors in abs_errors.items():
            pooled = errors[in_family]
            q1, q3 = np.percentile(pooled, [25.0, 75.0])
            scenario_stats[(name, model)] = (float(np.median(pooled)), float(q1), float(q3))

    edges = np.arange(RATING_MIN, RATING_MAX + HISTOGRAM_BIN_WIDTH, HISTOGRAM_BIN_WIDTH)
    histograms = {model: (edges[:-1].copy(), np.histogram(errors, bins=edges)[0])
                  for model, errors in abs_errors.items()}
    return ComparisonReport(scenario_stats, histograms)
