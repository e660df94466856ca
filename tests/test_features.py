"""Feature extraction: signs, gating, manifests, and normalization."""

import feature_oracles as oracle
import numpy as np
import pytest
from frames import frame_at

from riskdecode.features import (DEFAULT_MANIFESTS, FEATURE_VOCABULARY,
                                 FOLLOWER_FEATURES, GAP_FLOOR, FeatureManifest,
                                 NormStats, UncertaintySigmas, build_features,
                                 drac, drac_components, frame_features,
                                 relative_kinematics, uncertain_velocity,
                                 zscore_apply, zscore_fit)
from riskdecode.scenarios import FrameState, VehicleState, simulate_event


def make_frame(sub=None, *neigh):
    subject = sub or VehicleState(0.0, 0.0, 25.0, 0.0, 0.0, 0.0)
    if not neigh:
        neigh = (VehicleState(20.0, 0.0, 20.0, 0.0, -2.0, 0.0),)
    return FrameState(subject, tuple(neigh))


def test_relative_kinematics_signs():
    # lead ahead and slower: longitudinal gap is closing
    frame = make_frame()
    dx, dy, dv_x, dv_y, da_x, da_y = relative_kinematics(frame)
    assert dx == 20.0 and dy == 0.0
    assert dv_x == pytest.approx(5.0)
    # same geometry with the lead faster: opening, so the rate flips sign
    frame = make_frame(None, VehicleState(20.0, 0.0, 30.0, 0.0, 0.0, 0.0))
    assert relative_kinematics(frame)[2] == pytest.approx(-5.0)
    # neighbour behind and slower: falling back, also opening
    frame = make_frame(None, VehicleState(-20.0, 0.0, 20.0, 0.0, 0.0, 0.0))
    assert relative_kinematics(frame)[2] == pytest.approx(-5.0)


def test_relative_kinematics_lateral_mirror():
    left = make_frame(None, VehicleState(10.0, 3.5, 25.0, -1.0, 0.0, 0.0))
    right = make_frame(None, VehicleState(10.0, -3.5, 25.0, 1.0, 0.0, 0.0))
    assert relative_kinematics(left)[1] == relative_kinematics(right)[1] == 3.5
    # both drift toward the subject's lane: closing laterally on both sides
    assert relative_kinematics(left)[3] == pytest.approx(1.0)
    assert relative_kinematics(right)[3] == pytest.approx(1.0)


def test_uncertain_velocity_geometry():
    frame = make_frame(None, VehicleState(30.0, 40.0, 20.0, 0.0, 0.0, 0.0))
    ux, uy = uncertain_velocity("subject", frame, 1.0, 1.0)
    assert (ux, uy) == (pytest.approx(0.6), pytest.approx(0.8))
    # the neighbour's vector points back at the subject
    nx, ny = uncertain_velocity("neighbour", frame, 1.0, 0.5)
    assert (nx, ny) == (pytest.approx(-0.6), pytest.approx(-0.4))
    with pytest.raises(ValueError):
        uncertain_velocity("bystander", frame, 1.0, 1.0)
    degenerate = make_frame(None, VehicleState(0.0, 0.0, 20.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        uncertain_velocity("subject", degenerate, 1.0, 1.0)


def test_drac_closed_form():
    assert drac(25.0, 20.0, 12.5, -5.0) == pytest.approx(2.0)
    assert drac(25.0, 30.0, 12.5, 5.0) == 0.0  # opening
    assert drac(25.0, 25.0, 12.5, 0.0) == 0.0  # static
    # clamped gap keeps the value finite
    assert drac(25.0, 20.0, 0.0, -5.0) == pytest.approx(25.0 / GAP_FLOOR)


def test_drac_components_axis_gating():
    # closing longitudinally, aligned laterally
    frame = make_frame()
    r_x, r_y, u_x, u_y = drac_components(frame)
    assert r_x > 0.0 and r_y == 0.0
    # uncertain variants close whenever there is a centre offset on the axis
    assert u_x > 0.0 and u_y == 0.0
    # side-by-side: no longitudinal offset, pure lateral geometry
    frame = make_frame(None, VehicleState(0.0, 3.5, 25.0, 0.0, 0.0, 0.0))
    r_x, r_y, u_x, u_y = drac_components(frame)
    assert r_x == 0.0 and u_x == 0.0
    assert u_y > 0.0


def test_manifest_validation():
    with pytest.raises(ValueError):
        FeatureManifest("XX", ("dx",))
    with pytest.raises(ValueError):
        FeatureManifest("MB", ("dx", "warp_factor"))
    with pytest.raises(ValueError):
        FeatureManifest("MB", ("dx", "dx"))
    with pytest.raises(ValueError):
        FeatureManifest("HB", ("dx", "dx_b"))  # follower feature, no follower
    svm = FeatureManifest("SVM", ("dx", "dx_b"))
    assert len(svm.names) == 2


def test_default_manifest_dimensions():
    dims = {name: len(m.names) for name, m in DEFAULT_MANIFESTS.items()}
    assert dims == {"HB": 11, "MB": 21, "LC": 20, "SVM": 32}
    for manifest in DEFAULT_MANIFESTS.values():
        assert all(n in FEATURE_VOCABULARY for n in manifest.names)


def test_frame_features_vocabulary():
    follower_frame = make_frame(
        None,
        VehicleState(20.0, 0.0, 20.0, 0.0, -2.0, 0.0),
        VehicleState(-15.0, 0.5, 24.0, 0.0, 0.0, 0.0))
    feats = frame_features(follower_frame)
    assert set(feats) == set(FEATURE_VOCABULARY)
    single = frame_features(make_frame())
    assert set(single) == set(FEATURE_VOCABULARY) - set(FOLLOWER_FEATURES)


def test_build_features_shapes(sample_trajs):
    traj = sample_trajs["HB"]
    matrix = build_features(traj, DEFAULT_MANIFESTS["HB"])
    assert matrix.shape == (301, 11)
    assert np.all(np.isfinite(matrix))
    with pytest.raises(ValueError):
        build_features(traj, DEFAULT_MANIFESTS["MB"])


def test_build_features_matches_per_frame_stack(catalog):
    # the track-wide kernels must reproduce frame-by-frame evaluation bit for
    # bit over the whole vocabulary, follower block included
    for spec in catalog:
        names = tuple(n for n in FEATURE_VOCABULARY
                      if spec.family == "SVM" or n not in FOLLOWER_FEATURES)
        traj = simulate_event(spec)
        frames = [frame_features(frame_at(traj, k)) for k in range(traj.n_frames)]
        oracle = np.array([[feats[n] for n in names] for feats in frames])
        matrix = build_features(traj, FeatureManifest(spec.family, names))
        assert matrix.shape == oracle.shape
        assert matrix.tobytes() == oracle.tobytes(), spec.event_id


def test_pair_kernel_matches_hand_written_blocks(catalog):
    # one kernel names its output through two parallel tuples; the oracle writes
    # the neighbour and follower blocks out by hand, so a slot mix-up shows here
    for spec in catalog:
        names = tuple(n for n in FEATURE_VOCABULARY
                      if spec.family == "SVM" or n not in FOLLOWER_FEATURES)
        traj = simulate_event(spec)
        feats = oracle.frame_features(traj)
        want = np.column_stack([feats[n] for n in names])
        matrix = build_features(traj, FeatureManifest(spec.family, names))
        assert matrix.tobytes() == want.tobytes(), spec.event_id
        for k in range(len(traj.neighbours)):
            got = drac_components(traj, k)
            want = oracle.drac_components(traj, k)
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want], (spec.event_id, k)


def test_sigma_validation():
    with pytest.raises(ValueError):
        UncertaintySigmas(s_x=-0.1)


# ---------------------------------------------------------------------------
# normalization


def test_zscore_roundtrip():
    rng = np.random.default_rng(5)
    matrix = rng.normal(3.0, 2.5, size=(400, 4))
    stats = zscore_fit(matrix, ["a", "b", "c", "d"])
    normed = zscore_apply(matrix, stats)
    assert np.allclose(normed.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(normed.std(axis=0), 1.0, atol=1e-12)
    restored = normed * stats.std + stats.mean
    assert np.allclose(restored, matrix, atol=1e-9)


def test_zscore_rejects_constant_column():
    matrix = np.ones((50, 2))
    matrix[:, 0] = np.arange(50)
    with pytest.raises(ValueError, match="b"):
        zscore_fit(matrix, ["a", "b"])


def test_zscore_apply_checks_width():
    stats = zscore_fit(np.random.default_rng(0).normal(size=(30, 3)),
                       ["a", "b", "c"])
    with pytest.raises(ValueError):
        zscore_apply(np.zeros((10, 4)), stats)


def test_normstats_validation():
    with pytest.raises(ValueError):
        NormStats(("a",), np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError):
        NormStats(("a", "b"), np.zeros(1), np.ones(1))
