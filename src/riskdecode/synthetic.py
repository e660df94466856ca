"""Synthetic rehearsal ratings for running the pipeline offline.

The planted ground truth blends a non-default avoidance-difficulty signal
with smoothed braking-demand and in-lane proximity terms, so neither
baseline model family can reproduce it exactly while a network fed
per-frame features can.  Each signal is ``minmax_rescale`` of one vector
over the catalog's frames.  Raters see the truth at each clip's canonical
rating moment through a per-(participant, event) offset plus independent
noise, rounded to the integer 0..10 scale.  The ratings come out as the
four ``RATINGS_COLUMNS`` int64 arrays that ``pipeline.write_csv`` writes
as ``ratings.csv``.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .calibration import minmax_rescale
from .features import FeatureManifest, build_features
from .reconstruction import (RATING_MAX, RATING_MIN, RATINGS_COLUMNS, load_alignment_table,
                             reconstruct_event)
from .risk_models import PcadParams, pcad_risk_series
from .scenarios import CATALOG, DT, catalog_trajectory

TRUTH_PCAD = PcadParams(sigma_n_x=1.5, t_s_a=1.0, alpha=2.8)
TRUTH_PCAD_GAIN = 0.50
TRUTH_BRAKE_GAIN = 0.55
TRUTH_PROXIMITY_GAIN = 0.45
TRUTH_WARP = 0.7  # concave power; affine rescaling cannot absorb it
BRAKE_SMOOTH_FRAMES = 11  # ~1.1 s anticipation window
LANE_OVERLAP = 2.0  # m; centre offsets below this overlap laterally

DEFAULT_PARTICIPANTS = 12
RATER_SIGMA = 0.5
PARTICIPANT_SIGMA = 0.25

# Training knobs for the rehearsal networks.  Plain full-batch descent at
# the stock rate leaves the He-initialization transient only partly decayed
# after 200 epochs; the rehearsal runs hotter and longer, still well inside
# the desk-scale budget.
REHEARSAL_EPOCHS = 400
REHEARSAL_LEARNING_RATE = 0.005


def _smooth(series: np.ndarray, window: int) -> np.ndarray:
    kernel = np.ones(window) / window
    return np.convolve(series, kernel, mode="same")


def planted_truth() -> dict:
    """Ground-truth risk curve per catalog event; its signals rescale over the whole catalog."""
    pcad_raw, brake_raw, proximity_raw = [], [], []
    for spec in CATALOG:
        trajectory = catalog_trajectory(spec.event_id)
        pcad_raw.append(pcad_risk_series(trajectory, TRUTH_PCAD))
        cols = build_features(trajectory, FeatureManifest(spec.family, ("dx", "dy", "drac_r_x")))
        # gate the braking demand on lateral overlap: a neighbour sliding past
        # in the adjacent lane closes the x-axis gap without being on a
        # collision course, and its clamped-gap DRAC spike would otherwise
        # alias against the fixed rating moments
        in_lane = np.abs(cols[:, 1]) < LANE_OVERLAP
        brake_raw.append(_smooth(cols[:, 2] * in_lane, BRAKE_SMOOTH_FRAMES))
        # in-lane closeness; the squared lateral discount keeps adjacent-lane
        # pass-bys (dy ~ 3.5) well below in-lane following at the same range
        lateral = (1.0 - np.minimum(cols[:, 1], 5.0) / 5.0) ** 2
        proximity_raw.append(lateral * 10.0 / (cols[:, 0] + 4.0 * cols[:, 1] + 5.0))

    blend = (TRUTH_PCAD_GAIN * minmax_rescale(np.concatenate(pcad_raw))
             + TRUTH_BRAKE_GAIN * minmax_rescale(np.concatenate(brake_raw))
             + TRUTH_PROXIMITY_GAIN * minmax_rescale(np.concatenate(proximity_raw)))
    warped = RATING_MAX * (blend / RATING_MAX) ** TRUTH_WARP

    # Sample the warped blend at each slot's canonical rating moment and
    # reconstruct it as one rater's clip ratings: the truth then lives in the
    # reconstruction's own function class, so clean ratings reproduce it
    # instead of smearing fast transients between moments.
    truth = {}
    cuts = np.cumsum([spec.n_frames for spec in CATALOG])[:-1]
    for spec, curve in zip(CATALOG, np.split(warped, cuts)):
        readings = _at_canonical_moments(curve, spec.event_id)[None, :]
        truth[spec.event_id] = reconstruct_event(spec.event_id, readings).value[0]
    return truth


def _at_canonical_moments(curve: np.ndarray, event_id: int) -> np.ndarray:
    """The 10 Hz ``curve`` read at each slot's canonical (``dup == 0``) moment, by slot."""
    moments = sorted((slot, t) for t, slot, dup in load_alignment_table().moments(event_id)
                     if dup == 0)
    return np.interp([t for _, t in moments], np.arange(curve.size) * DT, curve)


def synthetic_ratings(truth: Mapping[int, np.ndarray],
                      n_participants: int = DEFAULT_PARTICIPANTS,
                      seed: int = 0) -> dict:
    """Integer clip ratings for every event in ``truth``, as ``RATINGS_COLUMNS`` arrays.

    Each slot's rating reads the truth at the slot's canonical moment
    (duplicate placements re-pin the same rating elsewhere and are left
    to the reconstruction stage).  Rows run by event, participant, clip.
    """
    if n_participants < 1:
        raise ValueError("need at least one participant")
    rng = np.random.default_rng(seed)

    blocks = []
    for eid in sorted(truth):
        values = _at_canonical_moments(truth[eid], eid)
        slots = np.arange(1, values.size + 1)
        # stream order: per participant its offset, then one noise per slot;
        # normal(0, s) draws s * standard_normal(), so the ratings match a per-draw loop
        z = rng.standard_normal((n_participants, 1 + len(slots)))
        noisy = values + PARTICIPANT_SIGMA * z[:, :1] + RATER_SIGMA * z[:, 1:]
        blocks.append((np.repeat(np.arange(1, n_participants + 1), len(slots)),
                       np.full(noisy.size, eid), np.tile(slots, n_participants),
                       np.clip(np.rint(noisy), RATING_MIN, RATING_MAX).astype(np.int64).ravel()))
    return {name: np.concatenate(parts) for name, parts in zip(RATINGS_COLUMNS, zip(*blocks))}
