"""Continuous risk curves from discrete in-event ratings.

Participants rated the most dangerous moment of each 6 s clip on a 0-10
integer scale. A ratings table is the four ``RATINGS_COLUMNS`` as int64
arrays; the stages hand one event's ratings to this module as a
participants × clips matrix. Reconstruction places those ratings at the
event's rating moments (the shipped alignment table, read once per process:
one strictly rising knot vector per event), screens out the rows whose
rating sequence does not track the event's mean row, interpolates every
remaining row of the matrix to 10 Hz in one call, and aggregates across
participants.

Three interpolators are provided, each one row-batched implementation over
shared knot times. The shape-preserving cubic is the default used by the
pipeline; the linear and quadratic ones exist for the cross-validation
comparison: on held-out samples of smooth stimulus-decay curves the cubic
wins, the quadratic loses (it overshoots after peaks).
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
    """One curve, or a participants × frames stack of curves, on grid ``t``."""

    t: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        if self.value.shape[-1:] != self.t.shape:
            raise ValueError(f"value of shape {self.value.shape} does not run along "
                             f"t of shape {self.t.shape}")


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
    """Per-event rating moments: (time, slot, duplicate) triples at strictly rising times.

    Every rater of an event shares its moment times as one knot vector, so
    two placements at one time are an error rather than a per-rater tie.
    """

    def __init__(self, rows: dict):
        # rows: {(family, event_rank): [(time_s, slot, dup), ...]}
        for key, moments in rows.items():
            if len(moments) < 2:
                raise ValueError(f"alignment moments for {key} need at least two times")
            for (before, _, _), (time, _, _) in zip(moments, moments[1:]):
                if not time > before:
                    raise ValueError(f"alignment moments for {key} are not strictly rising: "
                                     f"time {time} follows {before}")
        self._events = {}  # event id -> (moments, knot times, 0-based slots, slot count)
        for spec in CATALOG:
            moments = tuple(rows.get((spec.family, scenario_rank(spec)), ()))
            if moments:
                times, slots, _ = (np.array(column) for column in zip(*moments))
                slots -= 1
                times.flags.writeable = slots.flags.writeable = False
                self._events[spec.event_id] = (moments, times, slots, int(slots.max()) + 1)
        # n_slots of every event by id, 0 for an id without a row: one lookup for an id array
        self.slot_counts = np.zeros(max(self._events, default=0) + 1, dtype=np.int64)
        for event_id, (*_, n_slots) in self._events.items():
            self.slot_counts[event_id] = n_slots
        self.slot_counts.flags.writeable = False

    def _event(self, event_id: int) -> tuple:
        try:
            return self._events[event_id]
        except KeyError:
            raise KeyError(f"event_id {event_id} has no alignment row") from None

    def moments(self, event_id: int) -> tuple:
        return self._event(event_id)[0]

    def n_slots(self, event_id: int) -> int:
        return self._event(event_id)[3]

    def knots(self, event_id: int) -> tuple:
        """The event's moment times and the 0-based clip slot pinned at each."""
        return self._event(event_id)[1:3]

    def event_ids(self) -> list:
        return sorted(self._events)


_PACKAGED: list = []  # the shipped AlignmentTable, filled by load_alignment_table


def load_alignment_table() -> AlignmentTable:
    """The packaged per-scenario rating-moment tables, read on first use and shared."""
    if not _PACKAGED:
        rows: dict = {}
        for name in ("alignment_mb.csv", "alignment_hb.csv", "alignment_lc.csv",
                     "alignment_svm.csv"):
            text = resources.files("riskdecode.data").joinpath(name).read_text()
            _, *body = csv.reader(text.splitlines())  # scenario,event,slot,time_s,duplicate_flag
            for family, event, slot, time_s, dup in body:
                rows.setdefault((family, int(event)), []).append(
                    (float(time_s), int(slot), int(dup)))
        _PACKAGED.append(AlignmentTable(rows))
    return _PACKAGED[0]


# ---------------------------------------------------------------------------
# participant screening


def _pearson(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.std() == 0.0 or b.std() == 0.0:
        return 0.0  # constant sequences carry no ordering information
    return float(np.corrcoef(a, b)[0, 1])


# Batched correlations within this distance of the floor are recomputed with
# ``_pearson``: the two formulas differ by a few ulp, which can flip a rater
# sitting exactly on the floor.
_TIE_BAND = 1e-9


def filter_ratings(records, event_id: int) -> np.ndarray:
    """Row indices of the raters whose sequence correlates >= 0.3 with the event mean.

    ``records`` holds the ratings of event ``event_id`` as one participants ×
    clips matrix.  The reference is the mean sequence over every row (single
    pass).  A single participant, or a constant mean sequence, carries no
    ordering to screen against, so every row is kept.  A constant row
    correlates 0 and is dropped.
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
    centred = sequences - sequences.mean(axis=1, keepdims=True)
    reference = mean_seq - mean_seq.mean()
    sum_sq = np.einsum("ij,ij->i", centred, centred)
    varying = sum_sq > 0.0  # exactly the rows whose std is not 0
    r = np.zeros(len(sequences))
    r[varying] = (centred[varying] @ reference
                  / np.sqrt(sum_sq[varying] * (reference @ reference)))
    for row in np.flatnonzero(np.abs(r - CORRELATION_FLOOR) < _TIE_BAND).tolist():
        r[row] = _pearson(sequences[row], mean_seq)
    return np.flatnonzero(r >= CORRELATION_FLOOR)


# ---------------------------------------------------------------------------
# interpolators
#
# Each takes strictly rising knot times ``t``, a rows × knots value matrix
# ``v`` and the evaluation grid, and returns the rows × grid matrix.  Every
# row goes through the same elementwise arithmetic, so a row's curve does not
# depend on the rows batched with it.


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


def _linear_rows(t, v, grid) -> np.ndarray:
    return np.array([np.interp(grid, t, row) for row in v])


def _quadratic_rows(t, v, grid) -> np.ndarray:
    """Piecewise-quadratic through the anchors, marched left to right.

    Each piece takes the previous piece's end slope as its start slope
    (C1). Where that piece's tentative end slope would oppose the secant,
    the end slope is clamped to zero and the piece re-solved from its two
    values and the zero end slope, giving up C1 at that knot; a zero-secant
    piece is emitted flat. Monotone anchor runs therefore produce monotone
    output, while genuine peaks keep the characteristic quadratic overshoot.
    """
    n_seg = t.size - 1
    start = np.empty((len(v), n_seg))  # start slope per piece
    curvature = np.empty((len(v), n_seg))
    m = np.zeros(len(v))
    for i in range(n_seg):
        h = t[i + 1] - t[i]
        s = (v[:, i + 1] - v[:, i]) / h
        flat = s == 0.0
        end = 2.0 * s - m
        clamped = end * s < 0.0  # re-solved from values and zero end slope
        start[:, i] = np.where(flat, 0.0, np.where(clamped, 2.0 * s, m))
        curvature[:, i] = np.where(flat, 0.0, (s - start[:, i]) / h)
        m = np.where(flat | clamped, 0.0, end)
    idx = np.clip(np.searchsorted(t, grid, side="right") - 1, 0, n_seg - 1)
    tau = grid - t[idx]
    out = v[:, idx] + start[:, idx] * tau + curvature[:, idx] * tau * tau
    out[:, grid <= t[0]] = v[:, :1]
    out[:, grid >= t[-1]] = v[:, -1:]
    return out


def _pchip_rows(t, v, grid) -> np.ndarray:
    """Shape-preserving piecewise-cubic through the anchors.

    Knot slopes follow the Fritsch-Carlson rule (zero wherever adjacent
    secants disagree in sign or vanish, limited harmonic mean otherwise)
    with the first and last slopes forced to zero, so the curve is flat at
    event boundaries and at every interior pole and never overshoots the
    anchor values on a segment.
    """
    h = np.diff(t)
    d = np.diff(v, axis=1) / h
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    m = np.zeros_like(v)
    with np.errstate(divide="ignore", invalid="ignore"):  # only where the rule gives 0
        harmonic = (w1 + w2) / (w1 / d[:, :-1] + w2 / d[:, 1:])
    m[:, 1:-1] = np.where(d[:, :-1] * d[:, 1:] <= 0.0, 0.0, harmonic)
    # m[:, 0] and m[:, -1] stay zero: curves start and end at rest

    idx = np.clip(np.searchsorted(t, grid, side="right") - 1, 0, t.size - 2)
    tau = (grid - t[idx]) / h[idx]
    h00 = 2 * tau**3 - 3 * tau**2 + 1
    h10 = tau**3 - 2 * tau**2 + tau
    h01 = -2 * tau**3 + 3 * tau**2
    h11 = tau**3 - tau**2
    out = (h00 * v[:, idx] + h10 * h[idx] * m[:, idx]
           + h01 * v[:, idx + 1] + h11 * h[idx] * m[:, idx + 1])
    out[:, grid <= t[0]] = v[:, :1]
    out[:, grid >= t[-1]] = v[:, -1:]
    return out


INTERPOLATORS = {
    "linear": _linear_rows,
    "quadratic": _quadratic_rows,
    "pchip": _pchip_rows,
}


def _interpolator(method: str):
    if method not in INTERPOLATORS:
        raise ValueError(f"unknown interpolation method {method!r}")
    return INTERPOLATORS[method]


def _one_row(rows, anchors, grid) -> np.ndarray:
    """One anchor list through a row-batched interpolator."""
    t, v = _prepare_anchors(anchors)
    return rows(t, v[None, :], np.asarray(grid, dtype=float))[0]


def interp_linear(anchors, grid) -> np.ndarray:
    """Piecewise-linear through an anchor list of (time, value) pairs."""
    return _one_row(_linear_rows, anchors, grid)


def interp_quadratic_monotone(anchors, grid) -> np.ndarray:
    """``_quadratic_rows`` through an anchor list of (time, value) pairs."""
    return _one_row(_quadratic_rows, anchors, grid)


def interp_pchip(anchors, grid) -> np.ndarray:
    """``_pchip_rows`` through an anchor list of (time, value) pairs."""
    return _one_row(_pchip_rows, anchors, grid)


def curve_from_anchors(anchors, n_frames: int, method: str = "pchip") -> RiskCurve:
    """Interpolate anchors onto the event's 10 Hz grid, clipped to the scale."""
    rows = _interpolator(method)
    grid = np.arange(n_frames) * DT
    return RiskCurve(grid, np.clip(_one_row(rows, anchors, grid), RATING_MIN, RATING_MAX))


def reconstruct_event(event_id: int, ratings, method: str = "pchip") -> RiskCurve:
    """Every rater's curve of one event, as one participants × frames stack.

    ``ratings`` is the event's participants × clips matrix.  Each clip's
    rating is pinned at every moment of its slot, and all rows are
    interpolated over the event's shared knot times onto its 10 Hz grid,
    clipped to the scale.
    """
    rows = _interpolator(method)
    ratings = np.asarray(ratings)
    table = load_alignment_table()
    n_slots = table.n_slots(event_id)
    if ratings.ndim != 2 or ratings.shape[1] != n_slots:
        raise ValueError(f"event {event_id} expects a participants × {n_slots} clip "
                         f"ratings matrix, got shape {ratings.shape}")
    times, slots = table.knots(event_id)
    grid = np.arange(event_by_id(event_id).n_frames) * DT
    values = rows(times, ratings[:, slots].astype(float), grid)
    return RiskCurve(grid, np.clip(values, RATING_MIN, RATING_MAX))


# ---------------------------------------------------------------------------
# cross-validation of the interpolators


CROSSVAL_SAMPLES = 31
CROSSVAL_KNOTS = (0, 6, 12, 18, 24, 30)  # 1st, 7th, ..., 31st sample


def crossval_interp(method: str, truth) -> float:
    """RMSE of a method on the 25 samples held out of a 31-sample curve."""
    truth = np.asarray(truth, dtype=float)
    if truth.shape != (CROSSVAL_SAMPLES,):
        raise ValueError(f"truth must have {CROSSVAL_SAMPLES} samples")
    rows = _interpolator(method)
    t = np.arange(CROSSVAL_SAMPLES, dtype=float)
    knots = list(CROSSVAL_KNOTS)
    anchors = list(zip(t[knots], truth[knots]))
    pred = _one_row(rows, anchors, t)
    held_out = np.setdiff1d(t.astype(int), knots)
    return float(np.sqrt(np.mean((pred[held_out] - truth[held_out]) ** 2)))


# ---------------------------------------------------------------------------
# aggregation


def aggregate_curves(curves: RiskCurve) -> AggregateCurve:
    """Cross-participant mean with nearest-rank quartile band and std.

    ``curves`` stacks one curve per participant (participants × frames).
    """
    # C order keeps the reductions over axis 0 a fixed row-by-row sum
    values = np.ascontiguousarray(curves.value)
    if values.ndim != 2 or not len(values):
        raise ValueError(f"need a participants × frames stack, got shape {values.shape}")
    n = len(values)
    ranked = np.sort(values, axis=0)
    # nearest rank; a row view would pin the sorted copy
    p25, p75 = (ranked[max(int(np.ceil(q * n)), 1) - 1].copy() for q in (0.25, 0.75))
    return AggregateCurve(
        t=curves.t,
        mean=values.mean(axis=0),
        p25=p25,
        p75=p75,
        std=values.std(axis=0),
        n_participants=n,
    )
