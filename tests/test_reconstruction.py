"""Rating alignment, screening, interpolation, and aggregation."""

import numpy as np
import pytest

import reconstruction_oracles as oracle
from riskdecode import reconstruction, synthetic
from riskdecode.pipeline import run_ingest, run_reconstruct, write_synthetic_ratings
from riskdecode.reconstruction import (CROSSVAL_KNOTS, AlignmentTable, RiskCurve, _pearson,
                                       aggregate_curves, crossval_interp,
                                       curve_from_anchors, filter_ratings,
                                       interp_linear, interp_pchip,
                                       interp_quadratic_monotone, load_alignment_table,
                                       reconstruct_event)
from riskdecode.scenarios import DT, enumerate_events
from riskdecode.synthetic import planted_truth, synthetic_ratings


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


def test_alignment_table_requires_strictly_rising_times():
    moments = [(0.0, 1, 0), (5.9, 1, 1), (9.0, 2, 0), (15.25, 3, 0)]
    AlignmentTable({("HB", 1): moments})
    repeated = moments[:2] + [(5.9, 2, 0), (15.25, 3, 0)]
    with pytest.raises(ValueError, match=r"\('HB', 1\).*time 5\.9 follows 5\.9"):
        AlignmentTable({("HB", 1): repeated})
    falling = moments[:2] + [(4.0, 2, 0), (15.25, 3, 0)]
    with pytest.raises(ValueError, match=r"\('HB', 1\).*time 4\.0 follows 5\.9"):
        AlignmentTable({("HB", 1): falling})
    with pytest.raises(ValueError, match="at least two"):
        AlignmentTable({("HB", 1): moments[:1]})


def test_packaged_table_is_one_shared_read_only_object(table):
    assert load_alignment_table() is load_alignment_table() is table
    for event_id in table.event_ids():
        moments = table.moments(event_id)
        assert isinstance(moments, tuple) and all(isinstance(m, tuple) for m in moments)
        for knots in table.knots(event_id):
            assert not knots.flags.writeable
            with pytest.raises(ValueError):
                knots[0] = 0


def test_packaged_table_is_parsed_once_per_process(monkeypatch, tmp_path):
    # a process that has not read the table yet: every stage that needs the
    # alignment looks it up, and the four packaged CSVs are read once in all
    monkeypatch.setattr(reconstruction, "_PACKAGED", [])
    reads = []
    files = reconstruction.resources.files
    monkeypatch.setattr(reconstruction.resources, "files",
                        lambda package: reads.append(package) or files(package))
    ratings = write_synthetic_ratings(tmp_path, seed=3, n_participants=2)
    run_ingest(tmp_path, ratings, seed=3)
    run_reconstruct(tmp_path, seed=3)
    assert reads == ["riskdecode.data"] * 4
    assert load_alignment_table() is reconstruction._PACKAGED[0]


def test_align_ratings_places_duplicates(table):
    n = table.n_slots(1)
    ratings = np.arange(1, n + 1)
    times, slots = table.knots(1)
    anchors = list(zip(times.tolist(), ratings[slots].tolist()))
    assert len(anchors) == len(table.moments(1))
    by_slot = {}
    for (t, slot, dup), (at, av) in zip(table.moments(1), anchors):
        assert at == t
        by_slot.setdefault(slot, set()).add(av)
    # every placement of a slot pins the same rating value
    assert all(len(v) == 1 for v in by_slot.values())
    with pytest.raises(ValueError):
        reconstruct_event(1, [ratings.tolist() + [5]])


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


def _scalar_filter(m):
    """The per-rater screen: ``_pearson`` of each row against the mean row."""
    m = np.asarray(m, dtype=float)
    mean = m.mean(axis=0)
    if len(m) < 2 or mean.std() == 0.0:
        return list(range(len(m)))
    return [i for i, row in enumerate(m) if _pearson(row, mean) >= 0.3]


# (matrix, row, kept): a row whose correlation with the mean row is 0.3 in
# exact arithmetic.  np.corrcoef decides which side of the floor it lands on.
# Without the tie band the last three would land on the other side under the
# batched formula of ``filter_ratings``, and the first under
# ``c @ r / (sqrt(c @ c) * sqrt(r @ r))`` with c, r the centred row and mean.
EXACT_TIES = [
    ([[7, 5, 0, 10], [9, 10, 9, 6], [0, 8, 7, 5], [7, 3, 9, 1]], 3, True),
    ([[10, 2, 0, 0], [2, 3, 4, 7], [6, 5, 8, 9]], 2, False),
    ([[3, 3, 3, 4], [2, 6, 5, 3], [3, 5, 2, 9]], 1, True),
    ([[3, 9, 7, 1], [3, 4, 1, 2], [10, 1, 2, 5]], 0, True),
    ([[5, 8, 1, 0], [3, 4, 1, 10], [1, 3, 9, 7]], 2, True),
    ([[1, 7, 3, 9], [4, 0, 3, 1], [4, 10, 9, 1]], 0, True),
    ([[7, 0, 0, 3], [4, 0, 0, 2], [3, 5, 2, 6]], 2, True),
]


@pytest.mark.parametrize("matrix,row,kept", EXACT_TIES)
def test_filter_matches_scalar_screen_on_exact_ties(matrix, row, kept):
    assert (row in _scalar_filter(matrix)) is kept
    assert filter_ratings(matrix, 1).tolist() == _scalar_filter(matrix)


def test_filter_matches_scalar_screen_on_random_matrices():
    rng = np.random.default_rng(20)
    for _ in range(3000):
        n_raters, n_clips = int(rng.integers(2, 41)), int(rng.integers(3, 11))
        m = rng.integers(0, 11, size=(n_raters, n_clips))
        constant = rng.random(n_raters) < 0.1
        m[constant] = rng.integers(0, 11, size=(int(constant.sum()), 1))
        assert filter_ratings(m, 1).tolist() == _scalar_filter(m), m.tolist()


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
    times, slots = table.knots(1)
    ratings = np.array([2, 5, 7, 4, 3][:table.n_slots(1)])
    curve = curve_from_anchors(list(zip(times.tolist(), ratings[slots].tolist())), 301)
    assert curve.t.shape == (301,)
    assert curve.t[1] - curve.t[0] == pytest.approx(DT)
    assert np.all((curve.value >= 0.0) & (curve.value <= 10.0))


def test_reconstruct_participant_end_to_end(table):
    n = table.n_slots(28)
    curve = reconstruct_event(28, [[1] * (n - 1) + [9]])
    assert curve.t.shape == (301,)
    assert curve.value[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_planted_truth_matches_anchor_list_oracle(monkeypatch, table, catalog):
    # record each event's warped blend on its way into the canonical readings
    warped, read = {}, synthetic._at_canonical_moments

    def recording(curve, event_id):
        warped[event_id] = curve.copy()
        return read(curve, event_id)

    monkeypatch.setattr(synthetic, "_at_canonical_moments", recording)
    truth = planted_truth()
    blend = oracle.planted_blend()
    expected = oracle.planted_truth_from_anchors(blend, table)
    assert list(truth) == list(warped) == list(expected) == [s.event_id for s in catalog]
    for event_id, curve in expected.items():
        assert warped[event_id].tobytes() == blend[event_id].tobytes(), event_id
        assert truth[event_id].tobytes() == curve.tobytes(), event_id


@pytest.mark.parametrize("n_participants", [2, 32])
def test_synthetic_ratings_match_per_slot_oracle(n_participants, table):
    truth = planted_truth()
    for seed in range(5):
        got = synthetic_ratings(truth, n_participants=n_participants, seed=seed)
        want = oracle.synthetic_ratings(truth, table, n_participants, seed)
        assert list(got) == list(want)
        for name, column in want.items():
            assert got[name].dtype == column.dtype, name
            assert got[name].tobytes() == column.tobytes(), (seed, name)


@pytest.fixture(scope="module")
def rated_events():
    """Each event's participants × clips matrix of a seed-7 file with 32 raters."""
    columns = synthetic_ratings(planted_truth(), n_participants=32, seed=7)
    eid, rating = columns["event_id"], columns["rating"]
    return {int(e): rating[eid == e].reshape(32, -1) for e in np.unique(eid)}


def assert_matches_oracle(event_id, ratings, table, method):
    curves = reconstruct_event(event_id, ratings, method)
    scalar = [oracle.reconstruct_participant(event_id, row, table, method) for row in ratings]
    assert curves.t.tobytes() == scalar[0].t.tobytes()
    assert curves.value.tobytes() == np.stack([c.value for c in scalar]).tobytes()
    agg, expected = aggregate_curves(curves), oracle.aggregate_curve_list(scalar)
    for field in ("t", "mean", "p25", "p75", "std"):
        assert getattr(agg, field).tobytes() == getattr(expected, field).tobytes(), field
    assert agg.n_participants == expected.n_participants == len(ratings)


@pytest.mark.parametrize("method", ["pchip", "linear", "quadratic"])
def test_event_matrix_matches_per_rater_oracle(method, table, rated_events):
    for event_id, ratings in rated_events.items():
        assert_matches_oracle(event_id, ratings, table, method)
    # a single rater, and a flat event whose raters all give one score
    for event_id in (1, 41, 105):
        assert_matches_oracle(event_id, rated_events[event_id][3:4], table, method)
        assert_matches_oracle(event_id, np.full_like(rated_events[event_id], 4), table, method)


@pytest.mark.parametrize("method", ["pchip", "linear", "quadratic"])
def test_anchor_lists_match_per_rater_oracle(method):
    rng = np.random.default_rng(5)
    fn = {"linear": interp_linear, "quadratic": interp_quadratic_monotone,
          "pchip": interp_pchip}[method]
    grid = np.linspace(-1.0, 31.0, 641)
    for _ in range(200):
        times = np.sort(rng.choice(np.arange(0.0, 30.5, 0.5), rng.integers(2, 9), replace=False))
        anchors = list(zip(times, rng.integers(0, 11, times.size).astype(float)))
        anchors += anchors[:int(rng.integers(0, 3))]  # exact duplicates collapse
        assert fn(anchors, grid).tobytes() == oracle.INTERPOLATORS[method](anchors, grid).tobytes()


def test_aggregate_quartiles_nearest_rank():
    t = np.arange(5, dtype=float)
    curves = RiskCurve(t, np.array([np.full(5, float(v)) for v in (1, 2, 3, 4, 5)]))
    agg = aggregate_curves(curves)
    assert agg.n_participants == 5
    assert np.allclose(agg.mean, 3.0)
    # nearest-rank: ceil(0.25 * 5) = 2nd lowest, ceil(0.75 * 5) = 4th lowest
    assert np.allclose(agg.p25, 2.0)
    assert np.allclose(agg.p75, 4.0)
    assert np.allclose(agg.std, np.std([1, 2, 3, 4, 5]))


def test_aggregate_rejects_mismatched_grids():
    with pytest.raises(ValueError):
        aggregate_curves(RiskCurve(np.arange(5, dtype=float), np.ones((2, 6))))
    with pytest.raises(ValueError):
        aggregate_curves(RiskCurve(np.arange(5, dtype=float), np.ones((0, 5))))
    with pytest.raises(ValueError):
        aggregate_curves(RiskCurve(np.arange(5, dtype=float), np.ones(5)))  # one curve, not a stack


def test_risk_curve_validation():
    with pytest.raises(ValueError):
        RiskCurve(np.arange(3, dtype=float), np.ones(4))
