"""Continuous risk curves from discrete in-event ratings.

Participants rated the most dangerous moment of each 6 s clip on a 0-10
integer scale. A ratings table is the four ``RATINGS_COLUMNS`` as int64
arrays; the stages hand one event's ratings to this module as a
participants × clips matrix. Reconstruction places those ratings at
per-event rating moments (shipped alignment tables), screens out the rows
whose rating sequence does not track the event's mean row, interpolates
each participant's anchors to 10 Hz, and aggregates across participants.

Three interpolators are provided. The shape-preserving cubic is the default
used by the pipeline; the linear and quadratic ones exist for the
cross-validation comparison: on held-out samples of smooth stimulus-decay
curves the cubic wins, the quadratic loses (it overshoots after peaks).
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .scenarios import CATALOG, DT, event_by_id, scenario_rank

log = logging.getLogger(__name__)

CORRELATION_FLOOR = 0.3  # participants below this against the event mean are dropped
RATING_MIN, RATING_MAX = 0.0, 10.0
# the columns of a ratings table; clip_index is 1-based, ratings are integers in 0..10
RATINGS_COLUMNS = ("participant_id", "event_id", "clip_index", "rating")


@dataclass(frozen=True)
class RiskCurve:
    t: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        if self.t.shape != self.value.shape:
            raise ValueError("t and value must have the same shape")


@dataclass(frozen=True)
class AggregateCurve:
    t: np.ndarray
    mean: np.ndarray
    p25: np.ndarray
    p75: np.ndarray
    std: np.ndarray
    n_participants: int


# ---------------------------------------------------------------------------
# alignment tables


class AlignmentTable:
    """Per-event rating moments: ordered (time, slot, duplicate) triples."""

    def __init__(self, rows: dict):
        # rows: {(family, event_rank): [(time_s, slot, dup), ...]}
        self._rows = rows
        keys = {spec.event_id: (spec.family, scenario_rank(spec)) for spec in CATALOG}
        self._by_event_id = {eid: rows[key] for eid, key in keys.items() if key in rows}
        self._n_slots = {eid: max(slot for _, slot, _ in moments)
                         for eid, moments in self._by_event_id.items()}

    def moments(self, event_id: int) -> list:
        try:
            return self._by_event_id[event_id]
        except KeyError:
            raise KeyError(f"event_id {event_id} has no alignment row") from None

    def n_slots(self, event_id: int) -> int:
        try:
            return self._n_slots[event_id]
        except KeyError:
            raise KeyError(f"event_id {event_id} has no alignment row") from None

    def event_ids(self) -> list:
        return sorted(self._by_event_id)


def load_alignment_table() -> AlignmentTable:
    """Read the packaged per-scenario rating-moment tables."""
    rows: dict = {}
    for name in ("alignment_mb.csv", "alignment_hb.csv", "alignment_lc.csv",
                 "alignment_svm.csv"):
        text = resources.files("riskdecode.data").joinpath(name).read_text()
        _, *body = csv.reader(text.splitlines())  # scenario,event,slot,time_s,duplicate_flag
        for family, event, slot, time_s, dup in body:
            rows.setdefault((family, int(event)), []).append(
                (float(time_s), int(slot), int(dup)))
    for key, moments in rows.items():
        times = [m[0] for m in moments]
        if times != sorted(times):
            raise ValueError(f"alignment moments not sorted for {key}")
    return AlignmentTable(rows)


def align_ratings(event_id: int, clip_ratings, table: AlignmentTable):
    """Map one participant's clip ratings onto (time, value) anchor pairs."""
    moments = table.moments(event_id)
    n_slots = table.n_slots(event_id)
    ratings = list(clip_ratings)
    if len(ratings) != n_slots:
        raise ValueError(
            f"event {event_id} expects {n_slots} clip ratings, got {len(ratings)}")
    return [(t, float(ratings[slot - 1])) for t, slot, _ in moments]


# ---------------------------------------------------------------------------
# participant screening


def _pearson(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.std() == 0.0 or b.std() == 0.0:
        return 0.0  # constant sequences carry no ordering information
    return float(np.corrcoef(a, b)[0, 1])


def filter_ratings(records, event_id: int) -> np.ndarray:
    """Row indices of the raters whose sequence correlates >= 0.3 with the event mean.

    ``records`` holds the ratings of event ``event_id`` as one participants ×
    clips matrix.  The reference is the mean sequence over every row (single
    pass).  A single participant, or a constant mean sequence, carries no
    ordering to screen against, so every row is kept.
    """
    sequences = np.asarray(records, dtype=float)
    if sequences.ndim != 2:
        raise ValueError(f"filter_ratings expects a participants × clips matrix, "
                         f"got shape {sequences.shape}")
    mean_seq = sequences.mean(axis=0)
    if len(sequences) < 2 or mean_seq.std() == 0.0:
        log.warning("event %s has a single participant or a constant mean rating "
                    "sequence; no screening applied", event_id)
        return np.arange(len(sequences))
    return np.flatnonzero([_pearson(seq, mean_seq) >= CORRELATION_FLOOR for seq in sequences])


# ---------------------------------------------------------------------------
# interpolators


def _prepare_anchors(anchors):
    """Sort, drop exact duplicate (t, v) pairs, require strictly rising t."""
    pts = sorted({(float(t), float(v)) for t, v in anchors})
    t = np.array([p[0] for p in pts])
    v = np.array([p[1] for p in pts])
    if t.size < 2:
        raise ValueError("need at least two distinct anchors")
    if np.any(np.diff(t) <= 0):
        raise ValueError("anchor times must be strictly increasing after deduplication")
    return t, v


def interp_linear(anchors, grid) -> np.ndarray:
    t, v = _prepare_anchors(anchors)
    return np.interp(np.asarray(grid, dtype=float), t, v)


def interp_quadratic_monotone(anchors, grid) -> np.ndarray:
    """Piecewise-quadratic through the anchors, marched left to right.

    Each piece takes the previous piece's end slope as its start slope
    (C1). Where that piece's tentative end slope would oppose the secant,
    the end slope is clamped to zero and the piece re-solved from its two
    values and the zero end slope, giving up C1 at that knot; a zero-secant
    piece is emitted flat. Monotone anchor runs therefore produce monotone
    output, while genuine peaks keep the characteristic quadratic overshoot.
    """
    t, v = _prepare_anchors(anchors)
    grid = np.asarray(grid, dtype=float)
    n_seg = t.size - 1
    coeffs = np.zeros((n_seg, 3))  # value, start slope, curvature per piece
    m = 0.0
    for i in range(n_seg):
        h = t[i + 1] - t[i]
        s = (v[i + 1] - v[i]) / h
        if s == 0.0:
            coeffs[i] = (v[i], 0.0, 0.0)
            m = 0.0
            continue
        end = 2.0 * s - m
        if end * s < 0.0:
            start = 2.0 * s  # re-solved from values and zero end slope
            m = 0.0
        else:
            start = m
            m = end
        coeffs[i] = (v[i], start, (s - start) / h)
    idx = np.clip(np.searchsorted(t, grid, side="right") - 1, 0, n_seg - 1)
    tau = grid - t[idx]
    out = coeffs[idx, 0] + coeffs[idx, 1] * tau + coeffs[idx, 2] * tau * tau
    out[grid <= t[0]] = v[0]
    out[grid >= t[-1]] = v[-1]
    return out


def interp_pchip(anchors, grid) -> np.ndarray:
    """Shape-preserving piecewise-cubic through the anchors.

    Knot slopes follow the Fritsch-Carlson rule (zero wherever adjacent
    secants disagree in sign or vanish, limited harmonic mean otherwise)
    with the first and last slopes forced to zero, so the curve is flat at
    event boundaries and at every interior pole and never overshoots the
    anchor values on a segment.
    """
    t, v = _prepare_anchors(anchors)
    grid = np.asarray(grid, dtype=float)
    h = np.diff(t)
    d = np.diff(v) / h
    m = np.zeros_like(v)
    for i in range(1, t.size - 1):
        if d[i - 1] * d[i] <= 0.0:
            m[i] = 0.0
        else:
            w1 = 2.0 * h[i] + h[i - 1]
            w2 = h[i] + 2.0 * h[i - 1]
            m[i] = (w1 + w2) / (w1 / d[i - 1] + w2 / d[i])
    # m[0] and m[-1] stay zero: curves start and end at rest

    idx = np.clip(np.searchsorted(t, grid, side="right") - 1, 0, t.size - 2)
    tau = (grid - t[idx]) / h[idx]
    h00 = 2 * tau**3 - 3 * tau**2 + 1
    h10 = tau**3 - 2 * tau**2 + tau
    h01 = -2 * tau**3 + 3 * tau**2
    h11 = tau**3 - tau**2
    out = (h00 * v[idx] + h10 * h[idx] * m[idx]
           + h01 * v[idx + 1] + h11 * h[idx] * m[idx + 1])
    out[grid <= t[0]] = v[0]
    out[grid >= t[-1]] = v[-1]
    return out


INTERPOLATORS = {
    "linear": interp_linear,
    "quadratic": interp_quadratic_monotone,
    "pchip": interp_pchip,
}


def curve_from_anchors(anchors, n_frames: int, method: str = "pchip") -> RiskCurve:
    """Interpolate anchors onto the event's 10 Hz grid, clipped to the scale."""
    if method not in INTERPOLATORS:
        raise ValueError(f"unknown interpolation method {method!r}")
    grid = np.arange(n_frames) * DT
    values = INTERPOLATORS[method](anchors, grid)
    return RiskCurve(grid, np.clip(values, RATING_MIN, RATING_MAX))


def reconstruct_participant(event_id: int, clip_ratings, table: AlignmentTable,
                            method: str = "pchip") -> RiskCurve:
    anchors = align_ratings(event_id, clip_ratings, table)
    return curve_from_anchors(anchors, event_by_id(event_id).n_frames, method)


# ---------------------------------------------------------------------------
# cross-validation of the interpolators


CROSSVAL_SAMPLES = 31
CROSSVAL_KNOTS = (0, 6, 12, 18, 24, 30)  # 1st, 7th, ..., 31st sample


def crossval_interp(method: str, truth) -> float:
    """RMSE of a method on the 25 samples held out of a 31-sample curve."""
    truth = np.asarray(truth, dtype=float)
    if truth.shape != (CROSSVAL_SAMPLES,):
        raise ValueError(f"truth must have {CROSSVAL_SAMPLES} samples")
    if method not in INTERPOLATORS:
        raise ValueError(f"unknown interpolation method {method!r}")
    t = np.arange(CROSSVAL_SAMPLES, dtype=float)
    knots = list(CROSSVAL_KNOTS)
    anchors = list(zip(t[knots], truth[knots]))
    pred = INTERPOLATORS[method](anchors, t)
    held_out = np.setdiff1d(t.astype(int), knots)
    return float(np.sqrt(np.mean((pred[held_out] - truth[held_out]) ** 2)))


# ---------------------------------------------------------------------------
# aggregation


def _nearest_rank(values: np.ndarray, q: float) -> np.ndarray:
    """Pointwise nearest-rank quantile along axis 0."""
    n = values.shape[0]
    rank = max(int(np.ceil(q * n)), 1) - 1
    return np.sort(values, axis=0)[rank].copy()  # a row view would pin the sorted copy


def aggregate_curves(curves) -> AggregateCurve:
    """Cross-participant mean with nearest-rank quartile band and std."""
    curves = list(curves)
    if not curves:
        raise ValueError("no curves to aggregate")
    t = curves[0].t
    for c in curves[1:]:
        if c.t.shape != t.shape or not np.array_equal(c.t, t):
            raise ValueError("curves are on different time grids")
    values = np.stack([c.value for c in curves])
    return AggregateCurve(
        t=t,
        mean=values.mean(axis=0),
        p25=_nearest_rank(values, 0.25),
        p75=_nearest_rank(values, 0.75),
        std=values.std(axis=0),
        n_participants=len(curves),
    )
