"""Oracle checks for the two analytic risk models.

The avoidance-difficulty oracle re-derives the unsafe velocity set from
scratch: membership by exact ray/edge intersection (no time sampling, so
grazing hits cannot be missed) and the exit distance by a refined polar
grid search over provably safe velocities.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from frames import frame_at
from risk_oracles import drf_series, pcad_series
from scipy import integrate

from riskdecode.calibration import DRF_BOUNDS, PCAD_BOUNDS
from riskdecode.risk_models import (AvoidanceDetail, DrfParams, PairTable, PcadParams,
                                    avoidance_detail, drf_probability, drf_risk,
                                    drf_risk_series, pcad_risk,
                                    pcad_risk_series, pcad_weight,
                                    perceived_velocity)
from riskdecode.scenarios import CATALOG, FrameState, VehicleState, catalog_trajectory

# ---------------------------------------------------------------------------
# brute-force reference for the unsafe-velocity-set exit distance


def first_hit_times(wx, wy, dx, dy, hx, hy):
    """Exact first intersection of the rays t*(wx, wy) with the rectangle.

    The rectangle is centred at (dx, dy) with half sizes (hx, hy).  Returns
    inf where a ray misses.  Works edge by edge, so tangential grazes are
    handled exactly rather than sampled along the ray.
    """
    wx = np.asarray(wx, dtype=float)
    wy = np.asarray(wy, dtype=float)
    best = np.full(np.broadcast(wx, wy).shape, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for ex in (dx - hx, dx + hx):
            t = ex / wx
            ok = np.isfinite(t) & (t > 0.0) & (np.abs(t * wy - dy) <= hy)
            best = np.where(ok & (t < best), t, best)
        for ey in (dy - hy, dy + hy):
            t = ey / wy
            ok = np.isfinite(t) & (t > 0.0) & (np.abs(t * wx - dx) <= hx)
            best = np.where(ok & (t < best), t, best)
    return best


def is_unsafe(wx, wy, dx, dy, hx, hy, t_h):
    return bool(first_hit_times(wx, wy, dx, dy, hx, hy) <= t_h)


def _best_over_grid(wx, wy, phis, radii, dx, dy, hx, hy, t_h):
    ux, uy = np.cos(phis)[:, None], np.sin(phis)[:, None]
    cand_x = wx + radii[None, :] * ux
    cand_y = wy + radii[None, :] * uy
    safe = first_hit_times(cand_x, cand_y, dx, dy, hx, hy) > t_h
    rr = np.broadcast_to(radii[None, :], safe.shape)
    costs = np.where(safe, rr, np.inf)
    flat = int(np.argmin(costs))
    i, j = np.unravel_index(flat, costs.shape)
    return float(costs[i, j]), float(phis[i])


def oracle_exit_distance(wx, wy, dx, dy, hx, hy, t_h):
    """Smallest |w' - w| with w' outside the unsafe set, by grid refinement.

    Full-circle sweeps with a log-spaced then repeatedly re-anchored radius
    grid: the lower radius bound drops 50x per round, so an early coarse
    estimate cannot trap the search above a much closer safe pocket.
    """
    if not is_unsafe(wx, wy, dx, dy, hx, hy, t_h):
        return 0.0
    r_hi = 2.0 * np.hypot(wx, wy) + 5.0
    circle = np.linspace(0.0, 2.0 * np.pi, 721)[:-1]
    r, phi = _best_over_grid(wx, wy, circle,
                             np.geomspace(r_hi / 5000.0, r_hi, 500),
                             dx, dy, hx, hy, t_h)
    for _ in range(8):
        new_r, phi = _best_over_grid(wx, wy, circle,
                                     np.linspace(r / 50.0, 1.02 * r, 500),
                                     dx, dy, hx, hy, t_h)
        done = new_r > 0.998 * r
        r = new_r
        if done:
            break
    local = phi + np.linspace(-0.02, 0.02, 41)
    r, _ = _best_over_grid(wx, wy, local,
                           np.linspace(0.97 * r, 1.0005 * r, 400),
                           dx, dy, hx, hy, t_h)
    return r


def kernel_frame(dx, dy, wx, wy, length=4.5, width=2.0):
    """Frame whose perceived relative velocity is exactly (wx, wy)."""
    subject = VehicleState(0.0, 0.0, wx, wy, 0.0, 0.0, length, width)
    neighbour = VehicleState(dx, dy, 0.0, 0.0, 0.0, 0.0, length, width)
    return FrameState(subject, (neighbour,))


ZERO_SIGMA = PcadParams(sigma_n_x=0.0, sigma_n_y=0.0,
                        sigma_s_x=0.0, sigma_s_y=0.0)


def test_difficulty_matches_brute_force_reference():
    rng = np.random.default_rng(17)
    start = time.perf_counter()
    checked_on_course = 0
    for draw in range(200):
        dx = float(rng.uniform(6.0, 40.0) * rng.choice([-1.0, 1.0]))
        dy = float(rng.uniform(0.0, 12.0) * rng.choice([-1.0, 1.0]))
        if draw % 2:
            # aim roughly at the rectangle so collision courses are common
            bearing = np.arctan2(dy, dx) + rng.uniform(-0.3, 0.3)
            speed = rng.uniform(2.0, 25.0)
            wx = float(speed * np.cos(bearing))
            wy = float(speed * np.sin(bearing))
        else:
            wx = float(rng.uniform(-25.0, 25.0))
            wy = float(rng.uniform(-8.0, 8.0))
        detail = avoidance_detail(kernel_frame(dx, dy, wx, wy), ZERO_SIGMA)
        reference = oracle_exit_distance(wx, wy, dx, dy, 4.5, 2.0,
                                         ZERO_SIGMA.t_h)
        if reference == 0.0:
            assert detail.difficulty == 0.0
        else:
            checked_on_course += 1
            assert detail.difficulty == pytest.approx(
                reference, rel=0.05, abs=1e-3)
    elapsed = time.perf_counter() - start
    assert checked_on_course > 30  # the draw ranges must exercise real hits
    assert elapsed < 60.0


def test_difficulty_zero_when_receding():
    # lead ahead, subject slower: the gap opens, no course, exact zero
    frame = kernel_frame(25.0, 0.0, -3.0, 0.0)
    assert avoidance_detail(frame, ZERO_SIGMA).difficulty == 0.0
    # lateral offset large enough that the cone misses within the horizon
    frame = kernel_frame(20.0, 10.0, 1.0, 0.0)
    assert avoidance_detail(frame, ZERO_SIGMA).difficulty == 0.0


def test_difficulty_overlap_returns_cap():
    frame = kernel_frame(2.0, 0.5, 1.0, 0.0)
    detail = avoidance_detail(frame, ZERO_SIGMA)
    assert detail.overlap
    assert detail.difficulty == ZERO_SIGMA.overlap_cap


def test_difficulty_monotone_in_closing_speed():
    # the horizon speed for this geometry is 25.5 m / 10 s; sweep above it
    speeds = np.linspace(3.0, 25.0, 60)
    values = [avoidance_detail(kernel_frame(30.0, 0.0, w, 0.0), ZERO_SIGMA).difficulty
              for w in speeds]
    diffs = np.diff(values)
    assert np.all(diffs >= -1e-9)
    assert values[-1] > values[0] > 0.0
    # below the horizon speed the approach is safe
    assert avoidance_detail(kernel_frame(30.0, 0.0, 2.0, 0.0), ZERO_SIGMA).difficulty == 0.0


def test_difficulty_monotone_in_gap():
    gaps = np.linspace(6.0, 60.0, 80)
    values = [avoidance_detail(kernel_frame(g, 0.0, 15.0, 0.0), ZERO_SIGMA).difficulty
              for g in gaps]
    assert np.all(np.diff(values) <= 1e-9)


def test_weight_clamps_and_scales():
    params = PcadParams(alpha=2.0)
    assert pcad_weight(0.0, params) == 0.0
    assert pcad_weight(params.v_lim / 2.0, params) == pytest.approx(0.25)
    assert pcad_weight(2.0 * params.v_lim, params) == 1.0


def test_perceived_velocity_composition():
    out = perceived_velocity((10.0, 0.0), (2.0, -1.0), 0.5, (0.3, 0.1))
    assert out[0] == pytest.approx(11.3) and out[1] == pytest.approx(-0.4)


def test_pcad_series_matches_frame_loop(sample_trajs):
    for name in ("HB", "MB"):
        traj = sample_trajs[name]
        series = pcad_risk_series(traj)
        framewise = np.array([pcad_risk(frame_at(traj, k))
                              for k in range(traj.n_frames)])
        assert np.allclose(series, framewise, atol=1e-12)


def test_pcad_param_validation():
    with pytest.raises(ValueError):
        PcadParams(sigma_n_x=-0.1)
    with pytest.raises(ValueError):
        PcadParams(alpha=0.0)
    with pytest.raises(ValueError):
        PcadParams(t_s_a=-0.5)


# ---------------------------------------------------------------------------
# DRF


def test_field_centreline_identity():
    params = DrfParams()
    v = 20.0
    preview = v * params.t_la
    xs = np.linspace(0.0, preview, 23)
    expected = params.s_steepness * (xs - preview) ** 2
    values = drf_probability(xs, 0.0, v, params)
    assert np.max(np.abs(values - expected)) <= 1e-12


def test_field_gaussian_cross_section():
    params = DrfParams()
    v, x = 20.0, 30.0
    sigma = params.m_widening * x + params.c_width
    centre = drf_probability(x, 0.0, v, params)
    at_sigma = drf_probability(x, sigma, v, params)
    assert at_sigma == pytest.approx(centre * np.exp(-0.5), abs=1e-12)


def test_field_support():
    params = DrfParams()
    v = 20.0
    preview = v * params.t_la
    assert drf_probability(-0.5, 0.0, v, params) == 0.0
    assert drf_probability(preview + 1e-9, 0.0, v, params) == 0.0
    assert drf_probability(preview, 0.0, v, params) == 0.0  # root of the parabola


def test_grid_sum_matches_quadrature():
    params = DrfParams()
    subject = VehicleState(0.0, 0.0, 22.0, 0.0, 0.0, 0.0)
    lead = VehicleState(28.0, 0.4, 22.0, 0.0, 0.0, 0.0)
    frame = FrameState(subject, (lead,))
    value = drf_risk(frame, params)

    def integrand(y, x):
        return drf_probability(x, y, 22.0, params)

    ref, _ = integrate.dblquad(
        integrand, 28.0 - 2.25, 28.0 + 2.25,
        lambda _: 0.4 - 1.0, lambda _: 0.4 + 1.0, epsabs=1e-12)
    assert value == pytest.approx(ref * params.c_sev, rel=2e-2)


def test_dead_ahead_sweep_nonincreasing():
    params = DrfParams()
    values = []
    for gap in np.linspace(10.0, 60.0, 26):
        subject = VehicleState(0.0, 0.0, 25.0, 0.0, 0.0, 0.0)
        lead = VehicleState(gap, 0.0, 25.0, 0.0, 0.0, 0.0)
        values.append(drf_risk(FrameState(subject, (lead,)), params))
    assert values[0] > 0.0
    assert np.all(np.diff(values) <= 1e-12)


def test_drf_series_matches_frame_loop(sample_trajs):
    traj = sample_trajs["SVM"]
    series = drf_risk_series(traj)
    framewise = np.array([drf_risk(frame_at(traj, k)) for k in range(traj.n_frames)])
    assert np.allclose(series, framewise, atol=1e-9)


def test_drf_param_validation():
    with pytest.raises(ValueError):
        DrfParams(t_la=0.0)
    with pytest.raises(ValueError):
        DrfParams(grid_dx=-0.5)
    with pytest.raises(ValueError):
        DrfParams(m_widening=-0.01)


# ---------------------------------------------------------------------------
# pair-table kernels against the per-event references, bit for bit

MODELS = {"PCAD": (PcadParams, PCAD_BOUNDS, pcad_risk_series, pcad_series),
          "DRF": (DrfParams, DRF_BOUNDS, drf_risk_series, drf_series)}
# the search bounds plus the fields the table keeps state for
EXTRA_BOUNDS = {"PCAD": {"t_h": (2.0, 20.0), "overlap_cap": (5.0, 50.0)},
                "DRF": {"grid_dx": (0.2, 1.0), "grid_dy": (0.1, 0.5)}}


def drawn_params(model, n, seed):
    """The default record, then ``n`` records drawn within the extended bounds."""
    cls, bounds, _, _ = MODELS[model]
    rng = np.random.default_rng(seed)
    bounds = {**bounds, **EXTRA_BOUNDS[model]}
    return [cls()] + [replace(cls(), **{name: float(rng.uniform(lo, hi))
                                        for name, (lo, hi) in bounds.items()})
                      for _ in range(n)]


def crowded_event(trajectory):
    """A two-neighbour event plus two cars ahead of its first neighbour.

    Three neighbours then carry field mass at every frame, so adding their
    sums in another order changes bits (two addends commute exactly).
    """
    lead = trajectory.neighbours[0]
    extra = tuple(replace(lead, x=lead.x + dx, y=lead.y + dy)
                  for dx, dy in ((7.0, 0.6), (14.0, -0.4)))
    return replace(trajectory, neighbours=trajectory.neighbours + extra)


@pytest.mark.parametrize("family", ["all", "MB"])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_table_series_matches_per_event_reference(model, family):
    _, _, series, reference = MODELS[model]
    trajectories = [catalog_trajectory(spec.event_id) for spec in CATALOG
                    if family in ("all", spec.family)]
    table = PairTable(trajectories)
    # one table across every record: state kept for one t_h or grid must
    # not leak into a draw with another
    for params in drawn_params(model, 4, seed=len(family)):
        got = series(table, params)
        want = np.concatenate([reference(t, params) for t in trajectories])
        assert got.tobytes() == want.tobytes(), params
    assert [s.size for s in table.split(got)] == [t.n_frames for t in trajectories]


@pytest.mark.parametrize("model", sorted(MODELS))
def test_event_series_matches_reference_with_several_neighbours(model, sample_trajs):
    _, _, series, reference = MODELS[model]
    two = sample_trajs["SVM"]
    assert len(two.neighbours) == 2
    for trajectory in (two, crowded_event(two)):
        for params in drawn_params(model, 3, seed=9):
            assert series(trajectory, params).tobytes() == reference(trajectory, params).tobytes()
