"""Rating alignment, screening, interpolation, and aggregation."""

import numpy as np
import pytest

from riskdecode.reconstruction import (CROSSVAL_KNOTS, AggregateCurve,
                                       RiskCurve, align_ratings,
                                       aggregate_curves, crossval_interp,
                                       curve_from_anchors, filter_ratings,
                                       interp_linear, interp_pchip,
                                       interp_quadratic_monotone,
                                       reconstruct_participant)
from riskdecode.scenarios import DT, enumerate_events


def test_alignment_table_covers_catalog(table, catalog):
    assert table.event_ids() == [s.event_id for s in catalog]
    for spec in catalog:
        moments = table.moments(spec.event_id)
        times = [m[0] for m in moments]
        assert times == sorted(times)
        assert 0.0 <= times[0] and times[-1] <= spec.duration
        slots = {m[1] for m in moments}
        assert slots == set(range(1, table.n_slots(spec.event_id) + 1))
        # exactly one canonical placement per slot
        canonical = [m[1] for m in moments if m[2] == 0]
        assert sorted(canonical) == sorted(slots)


def test_align_ratings_places_duplicates(table):
    n = table.n_slots(1)
    ratings = list(range(1, n + 1))
    anchors = align_ratings(1, ratings, table)
    assert len(anchors) == len(table.moments(1))
    by_slot = {}
    for (t, slot, dup), (at, av) in zip(table.moments(1), anchors):
        assert at == t
        by_slot.setdefault(slot, set()).add(av)
    # every placement of a slot pins the same rating value
    assert all(len(v) == 1 for v in by_slot.values())
    with pytest.raises(ValueError):
        align_ratings(1, ratings + [5], table)


def test_filter_keeps_agreement_drops_contrarian(table):
    n = table.n_slots(1)
    shape = np.linspace(1, 9, n).round()
    # row k holds participant k + 1; participant 7 rates the mirror image
    records = np.array([np.clip(shape + (pid % 3) - 1, 0, 10) for pid in range(1, 7)]
                       + [10 - shape], dtype=np.int64)
    kept = filter_ratings(records, 1)
    kept_pids = set((kept + 1).tolist())
    assert kept_pids == {1, 2, 3, 4, 5, 6}
    # screening is idempotent on the kept set
    assert set((kept[filter_ratings(records[kept], 1)] + 1).tolist()) == kept_pids


def test_filter_requires_consistent_input(table):
    with pytest.raises(ValueError):
        filter_ratings(np.array([5, 5]), 1)  # one sequence, not a participants × clips matrix
    with pytest.raises(ValueError):
        filter_ratings([[5, 5, 5], [5, 5]], 1)  # participants disagree on the number of clips
    lonely = np.full((1, 5), 5)
    assert filter_ratings(lonely, 1).tolist() == [0]


def test_filter_keeps_raters_of_a_flat_event(caplog):
    # everyone agrees on one constant score: nothing to correlate against
    flat = np.full((3, 5), 4)
    with caplog.at_level("WARNING"):
        assert filter_ratings(flat, 1).tolist() == [0, 1, 2]
    assert "no screening applied" in caplog.text
    # raters that differ but average out flat are not screened either
    mirrored = np.array([(2, 5, 8, 6, 3), (8, 5, 2, 4, 7)])
    assert filter_ratings(mirrored, 1).tolist() == [0, 1]


# ---------------------------------------------------------------------------
# interpolators


ANCHORS = [(0.0, 2.0), (5.0, 7.0), (11.0, 7.0), (18.0, 1.0), (30.0, 3.0)]
METHODS = (interp_linear, interp_quadratic_monotone, interp_pchip)


@pytest.mark.parametrize("interp", METHODS)
def test_interpolators_hit_anchors(interp):
    t = np.array([a[0] for a in ANCHORS])
    v = np.array([a[1] for a in ANCHORS])
    assert np.max(np.abs(interp(ANCHORS, t) - v)) <= 1e-9


def exact_slope_at(t0, direction=1.0, anchors=ANCHORS):
    """Interpolant derivative at a knot, recovered exactly.

    Each segment is a cubic, so a degree-3 fit through four samples inside
    the adjacent segment reproduces the derivative to float precision.
    """
    eps = 0.05 * direction
    ts = t0 + eps * np.arange(4)
    ys = interp_pchip(anchors, ts)
    coeffs = np.polyfit(ts - t0, ys, 3)
    return float(coeffs[2])


def test_pchip_shape_preservation():
    grid = np.linspace(0.0, 30.0, 3001)
    values = interp_pchip(ANCHORS, grid)
    v = np.array([a[1] for a in ANCHORS])
    # no overshoot beyond the anchor range
    assert values.min() >= v.min() - 1e-12
    assert values.max() <= v.max() + 1e-12
    # flat ends: zero derivative at the first and last anchor
    assert abs(exact_slope_at(0.0, +1.0)) <= 1e-9
    assert abs(exact_slope_at(30.0, -1.0)) <= 1e-9
    # zero derivative at the interior pole (local extremum anchor)
    assert abs(exact_slope_at(18.0, +1.0)) <= 1e-9
    # equal consecutive anchors give a flat plateau, not a wiggle
    seg = values[(grid >= 5.0) & (grid <= 11.0)]
    assert np.max(np.abs(seg - 7.0)) <= 1e-9
    # monotone data stay monotone between those anchors
    rise = values[(grid >= 18.0) & (grid <= 30.0)]
    assert np.all(np.diff(rise) >= -1e-12)


def test_quadratic_monotone_is_continuous():
    grid = np.linspace(0.0, 30.0, 3001)
    values = interp_quadratic_monotone(ANCHORS, grid)
    assert np.max(np.abs(np.diff(values))) < 0.1  # no jumps at knots


def test_prepare_rejects_conflicting_anchors():
    with pytest.raises(ValueError):
        interp_linear([(0.0, 1.0), (0.0, 2.0), (5.0, 3.0)], np.array([0.0]))
    with pytest.raises(ValueError):
        interp_linear([(3.0, 1.0)], np.array([0.0]))


def test_duplicate_identical_anchors_collapse():
    anchors = [(0.0, 1.0), (5.0, 4.0), (5.0, 4.0), (9.0, 2.0)]
    out = interp_linear(anchors, np.array([2.5]))
    assert out[0] == pytest.approx(2.5)


# ---------------------------------------------------------------------------
# interpolator ranking on smooth pulse curves


def gamma_pulse(rng, t):
    peak_t = rng.uniform(8.0, 18.0)
    k = rng.uniform(2.0, 5.0)
    theta = rng.uniform(1.0, 3.0)
    amp = rng.uniform(4.0, 8.0)
    base = rng.uniform(0.2, 1.5)
    x = np.maximum(t - peak_t + k * theta, 0.0)
    pulse = (x / (k * theta)) ** k * np.exp(k - x / theta)
    return np.clip(base + amp * pulse / pulse.max(), 0, 10)


def test_crossval_ranking_on_pulse_curves():
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 30.0, 31)
    scores = {"pchip": [], "linear": [], "quadratic": []}
    for _ in range(60):
        truth = gamma_pulse(rng, t)
        for method in scores:
            scores[method].append(crossval_interp(method, truth))
    medians = {m: float(np.median(v)) for m, v in scores.items()}
    assert medians["pchip"] < medians["linear"] < medians["quadratic"]


def test_crossval_validates_input():
    with pytest.raises(ValueError):
        crossval_interp("pchip", np.zeros(30))
    with pytest.raises(ValueError):
        crossval_interp("cosine", np.zeros(31))
    # a straight line is reproduced exactly by the linear method
    assert crossval_interp("linear", np.linspace(0, 10, 31)) <= 1e-12
    assert set(CROSSVAL_KNOTS) < set(range(31))


# ---------------------------------------------------------------------------
# curves and aggregation


def test_curve_from_anchors_grid(table):
    curve = curve_from_anchors(align_ratings(1, [2, 5, 7, 4, 3][:table.n_slots(1)],
                                             table), 301)
    assert curve.t.shape == (301,)
    assert curve.t[1] - curve.t[0] == pytest.approx(DT)
    assert np.all((curve.value >= 0.0) & (curve.value <= 10.0))


def test_reconstruct_participant_end_to_end(table):
    n = table.n_slots(28)
    curve = reconstruct_participant(28, [1] * (n - 1) + [9], table)
    assert curve.t.shape == (301,)
    assert curve.value[0] == pytest.approx(1.0, abs=1e-9)


def test_aggregate_quartiles_nearest_rank():
    t = np.arange(5, dtype=float)
    curves = [RiskCurve(t, np.full(5, float(v))) for v in (1, 2, 3, 4, 5)]
    agg = aggregate_curves(curves)
    assert agg.n_participants == 5
    assert np.allclose(agg.mean, 3.0)
    # nearest-rank: ceil(0.25 * 5) = 2nd lowest, ceil(0.75 * 5) = 4th lowest
    assert np.allclose(agg.p25, 2.0)
    assert np.allclose(agg.p75, 4.0)
    assert np.allclose(agg.std, np.std([1, 2, 3, 4, 5]))


def test_aggregate_rejects_mismatched_grids():
    a = RiskCurve(np.arange(5, dtype=float), np.ones(5))
    b = RiskCurve(np.arange(6, dtype=float), np.ones(6))
    with pytest.raises(ValueError):
        aggregate_curves([a, b])
    with pytest.raises(ValueError):
        aggregate_curves([])


def test_risk_curve_validation():
    with pytest.raises(ValueError):
        RiskCurve(np.arange(3, dtype=float), np.ones(4))
