"""Catalog structure and kinematic invariants of the simulated events."""

import numpy as np
import pytest
import scenario_oracles as oracle

from riskdecode import scenarios
from riskdecode.scenarios import (ACC_CATEGORIES, BRAKE_FLOOR, CATALOG, DT, KMH,
                                  LC_CATEGORIES, RIPPLE_AMP, EventSpec,
                                  catalog_trajectory, enumerate_events, event_by_id,
                                  scenario_family, scenario_rank,
                                  simulate_event)

FAMILY_SIZES = {"MB": 27, "HB": 27, "LC": 24, "SVM": 27}


def family_counts(specs):
    counts = {}
    for spec in specs:
        counts[spec.family] = counts.get(spec.family, 0) + 1
    return counts


def test_catalog_sizes(catalog):
    assert len(catalog) == 105
    assert family_counts(catalog) == FAMILY_SIZES


def test_event_ids_are_contiguous(catalog):
    assert [s.event_id for s in catalog] == list(range(1, 106))


def test_family_blocks_are_ordered(catalog):
    families = [s.family for s in catalog]
    assert families == ["MB"] * 27 + ["HB"] * 27 + ["LC"] * 24 + ["SVM"] * 27


def test_lc_categories_six_each(catalog):
    lc = [s for s in catalog if s.family == "LC"]
    for category in LC_CATEGORIES:
        assert sum(s.scenario == category for s in lc) == 6
    # category-major ordering, ACC cycling fastest
    assert [s.scenario for s in lc] == [c for c in LC_CATEGORIES for _ in range(6)]
    assert [s.acc_category for s in lc[:6]] == list(ACC_CATEGORIES) * 2


def test_durations_and_frames(catalog):
    for spec in catalog:
        expected = 36.0 if spec.family == "LC" else 30.0
        assert spec.duration == expected
        assert spec.n_frames == int(round(expected / DT)) + 1


def test_frame_count_per_family(catalog):
    totals = {}
    for spec in catalog:
        totals[spec.family] = totals.get(spec.family, 0) + spec.n_frames
    assert totals == {"MB": 8127, "HB": 8127, "LC": 8664, "SVM": 8127}


def test_grid_coverage(catalog):
    mb = [s for s in catalog if s.family == "MB"]
    combos = {(s.initial_distance, s.cruise_speed, s.braking_intensity) for s in mb}
    assert len(combos) == 27
    assert {s.initial_distance for s in mb} == {5.0, 15.0, 25.0}
    assert {s.cruise_speed for s in mb} == {80.0, 100.0, 120.0}
    assert {s.braking_intensity for s in mb} == {-2.0, -5.0, -8.0}


def test_event_by_id_roundtrip(catalog):
    for spec in catalog[::17]:
        assert event_by_id(spec.event_id) == spec
    with pytest.raises(KeyError):
        event_by_id(106)


def test_scenario_rank_is_family_row(catalog):
    assert scenario_rank(event_by_id(1)) == 1
    assert scenario_rank(event_by_id(28)) == 1
    assert scenario_rank(event_by_id(54)) == 27
    assert scenario_rank(event_by_id(78)) == 24


def test_spec_validation_rejects_bad_fields():
    good = event_by_id(1)
    with pytest.raises(ValueError):
        EventSpec(0, "XX", 15.0, 30.0, {})
    with pytest.raises(ValueError):
        EventSpec(0, "MB", -1.0, 30.0, good.timeline_anchors,
                  cruise_speed=100.0, braking_intensity=-5.0)
    with pytest.raises(ValueError):
        EventSpec(0, "MB", 15.0, 30.0, good.timeline_anchors,
                  cruise_speed=100.0, braking_intensity=2.0)
    with pytest.raises(ValueError):
        EventSpec(0, "LC_normal_slow", 15.0, 36.0, {}, acc_category="stoic")


# ---------------------------------------------------------------------------
# kinematics


def scripted_excess(track):
    """Worst gap between stored velocity and the forward difference quotient."""
    worst = 0.0
    for pos, vel in ((track.x, track.vx), (track.y, track.vy)):
        implied = np.diff(pos) / DT
        worst = max(worst, float(np.max(np.abs(implied - vel[:-1]))))
    return worst


def controller_excess(track):
    """Worst violation of the per-step constant-acceleration update."""
    dx = track.x[1:] - track.x[:-1] - track.vx[:-1] * DT - 0.5 * track.ax[:-1] * DT * DT
    dv = track.vx[1:] - track.vx[:-1] - track.ax[:-1] * DT
    return max(float(np.max(np.abs(dx))), float(np.max(np.abs(dv))))


@pytest.mark.parametrize("event_id", [1, 14, 27, 28, 41, 55, 62, 70, 76, 82, 105])
def test_velocity_consistency(event_id):
    """Longitudinal motion is either scripted (velocity = forward difference)
    or controller-integrated (exact constant-acceleration steps); lateral
    motion is always scripted."""
    traj = simulate_event(event_by_id(event_id))
    for track in (traj.subject,) + tuple(traj.neighbours):
        x_scripted = float(np.max(np.abs(np.diff(track.x) / DT - track.vx[:-1])))
        assert min(x_scripted, controller_excess(track)) < 1e-9
        implied_vy = np.diff(track.y) / DT
        assert np.max(np.abs(implied_vy - track.vy[:-1])) < 1e-9


def test_initial_speed_matches_cruise(sample_trajs):
    for name, traj in sample_trajs.items():
        spec = event_by_id(traj.event_id)
        expected = (spec.cruise_speed if spec.cruise_speed is not None else 100.0) * KMH
        assert traj.subject.vx[0] == pytest.approx(expected, abs=1e-9)


def test_hard_braking_reaches_floor():
    spec = event_by_id(28)
    traj = simulate_event(spec)
    lead = traj.neighbours[0]
    assert lead.vx.min() == pytest.approx(BRAKE_FLOOR, abs=1e-9)
    assert lead.vx[0] == pytest.approx(spec.cruise_speed * KMH, abs=1e-9)


def test_gap_anchor_matches_initial_distance(catalog):
    for spec in catalog[::7]:
        traj = simulate_event(spec)
        anchors = spec.timeline_anchors
        t_anchor = 0.0 if spec.family == "HB" else anchors["merge_onset"]
        k = int(round(t_anchor / DT))
        lead = traj.neighbours[0]
        gap = abs(lead.x[k] - traj.subject.x[k]) - 0.5 * (
            lead.length + traj.subject.length)
        assert gap == pytest.approx(spec.initial_distance, abs=1e-9)


def test_aborted_lane_change_returns():
    spec = event_by_id(73)
    assert spec.scenario == "LC_aborted"
    traj = simulate_event(spec)
    mover = traj.neighbours[0]
    ripple_free_start = mover.y[0]
    assert abs(mover.y[-1] - ripple_free_start) <= 2 * RIPPLE_AMP + 1e-9
    # net lateral excursion stays inside one lane
    assert np.max(np.abs(mover.y - mover.y[0])) < 3.5 + 1e-9


def test_no_contact_anywhere(sample_trajs):
    for traj in sample_trajs.values():
        for neighbour in traj.neighbours:
            gap_x = np.abs(neighbour.x - traj.subject.x) - 0.5 * (
                neighbour.length + traj.subject.length)
            gap_y = np.abs(neighbour.y - traj.subject.y) - 0.5 * (
                neighbour.width + traj.subject.width)
            assert np.all(np.maximum(gap_x, gap_y) > 0.0)


def test_catalog_trajectory_is_shared_and_read_only():
    traj = catalog_trajectory(33)
    assert catalog_trajectory(33) is traj
    assert catalog_trajectory(np.int64(33)) is traj
    fresh = simulate_event(event_by_id(33))
    for shared, own in zip((traj.subject, *traj.neighbours),
                           (fresh.subject, *fresh.neighbours)):
        for name in ("x", "y", "vx", "vy", "ax", "ay"):
            assert getattr(shared, name).tobytes() == getattr(own, name).tobytes()
            with pytest.raises(ValueError):
                getattr(shared, name)[0] = 0.0
    with pytest.raises(ValueError):
        traj.t[0] = 1.0


def test_simulator_matches_written_out_oracle(catalog, monkeypatch):
    """Every controller call of the catalog against the list-searching loop, and
    the catalog against its loops written out in full."""
    calls = []
    follow = scenarios._simulate_subject

    def recorded(t, v0, lead, params, y_track, x0=0.0):
        track = follow(t, v0, lead, params, y_track, x0)
        calls.append(((t, v0, lead, params, y_track, x0), track))
        return track

    monkeypatch.setattr(scenarios, "_simulate_subject", recorded)
    for spec in catalog:
        simulate_event(spec)
    assert len(calls) == 105 + 27  # one subject per event, one SVM follower
    for (t, v0, lead, params, y_track, x0), track in calls:
        want = oracle.simulate_subject(t, v0, [lead], params, y_track, x0)
        for name in ("x", "y", "vx", "vy", "ax", "ay"):
            assert getattr(track, name).tobytes() == getattr(want, name).tobytes(), name
    assert CATALOG == oracle.build_catalog()


def test_simulation_is_deterministic():
    first = simulate_event(event_by_id(33))
    second = simulate_event(event_by_id(33))
    assert np.array_equal(first.subject.x, second.subject.x)
    assert np.array_equal(first.neighbours[0].y, second.neighbours[0].y)


def test_scenario_family_mapping():
    assert scenario_family("MB") == "MB"
    assert scenario_family("LC_aborted") == "LC"
    with pytest.raises(ValueError):
        scenario_family("overtake")
