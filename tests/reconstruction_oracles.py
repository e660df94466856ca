"""Per-rater reference implementation of curve reconstruction.

These are the straightforward forms the per-event matrix path in
``riskdecode.reconstruction`` replaced: one rater's clip ratings become an
anchor list, the anchor list is deduplicated and sorted, each interpolator
walks its knots in a Python loop, and the aggregate stacks a list of curves.
The planted truth's blend is built per event, each signal rescaled by a
concatenate-rescale-split round trip, and its last step reads the blend one
slot at a time and builds the truth from an anchor list; the synthetic
ratings read a curve one slot at a time too.  Tests require the library to
match them bit for bit.
"""

import numpy as np

from riskdecode import synthetic
from riskdecode.calibration import minmax_rescale
from riskdecode.features import FeatureManifest, build_features
from riskdecode.reconstruction import (RATING_MAX, RATING_MIN, RATINGS_COLUMNS, AggregateCurve,
                                       RiskCurve, _prepare_anchors, curve_from_anchors)
from riskdecode.risk_models import pcad_risk_series
from riskdecode.scenarios import CATALOG, DT, catalog_trajectory, event_by_id
from riskdecode.synthetic import PARTICIPANT_SIGMA, RATER_SIGMA


def interp_linear(anchors, grid):
    t, v = _prepare_anchors(anchors)
    return np.interp(np.asarray(grid, dtype=float), t, v)


def interp_quadratic_monotone(anchors, grid):
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


def interp_pchip(anchors, grid):
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


INTERPOLATORS = {"linear": interp_linear, "quadratic": interp_quadratic_monotone,
                 "pchip": interp_pchip}


def align_ratings(event_id, clip_ratings, table):
    """Map one participant's clip ratings onto (time, value) anchor pairs."""
    ratings = list(clip_ratings)
    if len(ratings) != table.n_slots(event_id):
        raise ValueError(f"event {event_id} expects {table.n_slots(event_id)} clip ratings, "
                         f"got {len(ratings)}")
    return [(t, float(ratings[slot - 1])) for t, slot, _ in table.moments(event_id)]


def reconstruct_participant(event_id, clip_ratings, table, method="pchip"):
    grid = np.arange(event_by_id(event_id).n_frames) * DT
    values = INTERPOLATORS[method](align_ratings(event_id, clip_ratings, table), grid)
    return RiskCurve(grid, np.clip(values, RATING_MIN, RATING_MAX))


def _nearest_rank(values, q):
    rank = max(int(np.ceil(q * values.shape[0])), 1) - 1
    return np.sort(values, axis=0)[rank].copy()


def aggregate_curve_list(curves):
    """Cross-participant aggregate of a list of one-row curves."""
    values = np.stack([c.value for c in curves])
    return AggregateCurve(t=curves[0].t, mean=values.mean(axis=0),
                          p25=_nearest_rank(values, 0.25), p75=_nearest_rank(values, 0.75),
                          std=values.std(axis=0), n_participants=len(curves))


def curve_at(curve, moment):
    """A 10 Hz curve read at one moment."""
    grid = np.arange(curve.size) * DT
    return float(np.interp(moment, grid, curve))


def joint_rescale(raw):
    """``minmax_rescale`` over every series of a dict jointly, split back per key."""
    series = [np.asarray(raw[key], dtype=float) for key in raw]
    flat = minmax_rescale(np.concatenate(series))
    return dict(zip(raw, np.split(flat, np.cumsum([s.size for s in series])[:-1])))


def planted_blend():
    """The planted truth's warped blend per catalog event: each event's three
    signals kept in a dict by event, each dict rescaled with ``joint_rescale``."""
    pcad_raw, brake_raw, proximity_raw = {}, {}, {}
    for spec in CATALOG:
        eid = spec.event_id
        trajectory = catalog_trajectory(eid)
        pcad_raw[eid] = pcad_risk_series(trajectory, synthetic.TRUTH_PCAD)
        cols = build_features(trajectory, FeatureManifest(spec.family, ("dx", "dy", "drac_r_x")))
        in_lane = np.abs(cols[:, 1]) < synthetic.LANE_OVERLAP
        brake_raw[eid] = synthetic._smooth(cols[:, 2] * in_lane, synthetic.BRAKE_SMOOTH_FRAMES)
        lateral = (1.0 - np.minimum(cols[:, 1], 5.0) / 5.0) ** 2
        proximity_raw[eid] = lateral * 10.0 / (cols[:, 0] + 4.0 * cols[:, 1] + 5.0)
    pcad, brake, proximity = map(joint_rescale, (pcad_raw, brake_raw, proximity_raw))
    warped = {}
    for eid in pcad:
        blend = (synthetic.TRUTH_PCAD_GAIN * pcad[eid] + synthetic.TRUTH_BRAKE_GAIN * brake[eid]
                 + synthetic.TRUTH_PROXIMITY_GAIN * proximity[eid])
        warped[eid] = 10.0 * (blend / 10.0) ** synthetic.TRUTH_WARP
    return warped


def planted_truth_from_anchors(warped, table):
    """The planted truth's last step: each event's warped blend read at every
    slot's canonical moment, pinned at all of the slot's moments, and the
    anchor list interpolated with ``curve_from_anchors``."""
    truth = {}
    for eid, curve in warped.items():
        moments = table.moments(eid)
        slot_value = {slot: curve_at(curve, t) for t, slot, dup in moments if dup == 0}
        anchors = [(t, slot_value[slot]) for t, slot, _ in moments]
        truth[eid] = curve_from_anchors(anchors, event_by_id(eid).n_frames, "pchip").value
    return truth


def synthetic_ratings(truth, table, n_participants, seed):
    """Rehearsal ratings with each slot's canonical reading taken one slot at a time."""
    rng = np.random.default_rng(seed)
    blocks = []
    for eid in sorted(truth):
        slot_moment = {slot: t for t, slot, dup in table.moments(eid) if dup == 0}
        slots = sorted(slot_moment)
        values = np.array([curve_at(truth[eid], slot_moment[slot]) for slot in slots])
        z = rng.standard_normal((n_participants, 1 + len(slots)))
        noisy = values + PARTICIPANT_SIGMA * z[:, :1] + RATER_SIGMA * z[:, 1:]
        blocks.append((np.repeat(np.arange(1, n_participants + 1), len(slots)),
                       np.full(noisy.size, eid), np.tile(slots, n_participants),
                       np.clip(np.rint(noisy), 0, 10).astype(np.int64).ravel()))
    return {name: np.concatenate(parts) for name, parts in zip(RATINGS_COLUMNS, zip(*blocks))}
