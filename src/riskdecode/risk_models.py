"""Two analytic perceived-risk models: PCAD and DRF.

PCAD treats risk as the difficulty of getting out of a collision course:
the minimal Euclidean change to the perceived relative velocity that leaves
the set of velocities colliding with the neighbour within a time horizon,
scaled by a speed-severity weight. The unsafe velocity set is the cone
subtended by the neighbour footprint expanded with the subject half-sizes,
cut below by the horizon (too-slow approach velocities are safe), so the
exit distance is an exact minimum over the two tangent rays and the scaled
near faces of that rectangle.

DRF models risk as a probability field ahead of the subject (parabolic
height, widening Gaussian cross-section) integrated over neighbour
footprints and scaled by a severity constant.

Both models return raw non-negative scalars; calibration rescales them onto
the rating scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import DEFAULT_SIGMAS, UncertaintySigmas
from .scenarios import KMH, EventTrajectory, FrameState


@dataclass(frozen=True)
class PcadParams:
    sigma_n_x: float = DEFAULT_SIGMAS.n_x  # m/s, neighbour uncertain velocity
    sigma_n_y: float = DEFAULT_SIGMAS.n_y
    sigma_s_x: float = DEFAULT_SIGMAS.s_x  # m/s, subject control imprecision
    sigma_s_y: float = DEFAULT_SIGMAS.s_y
    t_s_a: float = 0.6  # s, acceleration accumulation time, subject
    t_n_a: float = 1.0  # s, acceleration accumulation time, neighbour
    alpha: float = 2.0  # severity-weight exponent
    v_lim: float = 120.0 * KMH  # m/s, weight reference speed
    t_h: float = 10.0  # s, collision horizon
    overlap_cap: float = 30.0  # m/s, sentinel difficulty at contact

    def __post_init__(self):
        if min(self.sigma_n_x, self.sigma_n_y, self.sigma_s_x, self.sigma_s_y) < 0:
            raise ValueError("sigmas must be nonnegative")
        if self.t_s_a < 0 or self.t_n_a < 0:
            raise ValueError("accumulation times must be nonnegative")
        if self.alpha <= 0 or self.v_lim <= 0 or self.t_h <= 0:
            raise ValueError("alpha, v_lim and t_h must be positive")

    @property
    def sigmas(self) -> UncertaintySigmas:
        return UncertaintySigmas(self.sigma_s_x, self.sigma_s_y,
                                 self.sigma_n_x, self.sigma_n_y)


@dataclass(frozen=True)
class DrfParams:
    s_steepness: float = 1e-4  # 1/m^2, height parabola scale
    t_la: float = 3.5  # s, preview time
    m_widening: float = 0.05  # field width growth per metre
    c_width: float = 0.5  # m, field width at the subject (quarter car width)
    c_sev: float = 100.0  # severity constant
    grid_dx: float = 0.5  # m, integration cell length
    grid_dy: float = 0.25  # m, integration cell width

    def __post_init__(self):
        if self.t_la <= 0 or self.c_width <= 0:
            raise ValueError("t_la and c_width must be positive")
        if self.grid_dx <= 0 or self.grid_dy <= 0:
            raise ValueError("grid resolutions must be positive")
        if self.m_widening < 0:
            raise ValueError("the widening rate must be nonnegative")


# ---------------------------------------------------------------------------
# PCAD


def perceived_velocity(v, a, t_a: float, dv_u):
    """v' = v + a*t_a + dv_u, per axis."""
    v = np.asarray(v, dtype=float)
    a = np.asarray(a, dtype=float)
    dv_u = np.asarray(dv_u, dtype=float)
    return v + a * t_a + dv_u


def _wrap_angle(theta):
    return (theta + np.pi) % (2.0 * np.pi) - np.pi


def _point_segment_distance(px, py, ax, ay, bx, by):
    abx, aby = bx - ax, by - ay
    denom = abx * abx + aby * aby
    tt = np.clip(((px - ax) * abx + (py - ay) * aby) / denom, 0.0, 1.0)
    return np.hypot(px - (ax + tt * abx), py - (ay + tt * aby))


def _ray_distance(wx, wy, ux, uy):
    """Distance from point w to the ray {r*u : r >= 0} (unit u)."""
    along = wx * ux + wy * uy
    perp = np.abs(wx * uy - wy * ux)
    return np.where(along < 0.0, np.hypot(wx, wy), perp)


def _avoidance_kernel(dx, dy, wx, wy, half_x, half_y, t_h, overlap_cap):
    """Exit distance from the unsafe velocity set, elementwise over arrays.

    (dx, dy) is the expanded neighbour rectangle centre relative to the
    subject, (wx, wy) the perceived relative velocity. The unsafe set is
    {w : the ray along w first hits the rectangle within t_h}; its boundary
    is the two tangent rays plus the visible near faces scaled by 1/t_h,
    so the minimum over those pieces is the exact exit distance.
    """
    dx, dy, wx, wy = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (dx, dy, wx, wy)))
    overlap = (np.abs(dx) < half_x) & (np.abs(dy) < half_y)

    # slab test: first-hit ray parameter (time, since |w| is a speed)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_enter_x, t_exit_x = _slab_interval(dx, wx, half_x)
        t_enter_y, t_exit_y = _slab_interval(dy, wy, half_y)
    t_enter = np.maximum(t_enter_x, t_enter_y)
    t_exit = np.minimum(t_exit_x, t_exit_y)
    on_course = (t_enter <= t_exit) & (t_enter > 0.0) & (t_enter <= t_h)

    # tangent rays through the angularly extreme corners
    theta_c = np.arctan2(dy, dx)
    cx = np.stack([dx - half_x, dx - half_x, dx + half_x, dx + half_x])
    cy = np.stack([dy - half_y, dy + half_y, dy - half_y, dy + half_y])
    rel = _wrap_angle(np.arctan2(cy, cx) - theta_c)
    lo = np.argmin(rel, axis=0)
    hi = np.argmax(rel, axis=0)
    take = np.take_along_axis
    d_rays = np.minimum(
        _corner_ray_distance(wx, wy, take(cx, lo[None], 0)[0], take(cy, lo[None], 0)[0]),
        _corner_ray_distance(wx, wy, take(cx, hi[None], 0)[0], take(cy, hi[None], 0)[0]))

    # visible near faces, scaled onto the velocity plane by 1/t_h
    inf = np.full_like(dx, np.inf)
    fx = np.where(dx - half_x > 0, dx - half_x,
                  np.where(dx + half_x < 0, dx + half_x, np.nan))
    d_face_x = np.where(
        np.isnan(fx), inf,
        _point_segment_distance(wx, wy, np.nan_to_num(fx) / t_h, (dy - half_y) / t_h,
                                np.nan_to_num(fx) / t_h, (dy + half_y) / t_h))
    fy = np.where(dy - half_y > 0, dy - half_y,
                  np.where(dy + half_y < 0, dy + half_y, np.nan))
    d_face_y = np.where(
        np.isnan(fy), inf,
        _point_segment_distance(wx, wy, (dx - half_x) / t_h, np.nan_to_num(fy) / t_h,
                                (dx + half_x) / t_h, np.nan_to_num(fy) / t_h))

    exit_dist = np.minimum(d_rays, np.minimum(d_face_x, d_face_y))
    return np.where(overlap, overlap_cap,
                    np.where(on_course, exit_dist, 0.0)), on_course, overlap


def _slab_interval(offset, w, half):
    """Ray parameter interval inside one axis slab [offset-half, offset+half]."""
    t1 = (offset - half) / w
    t2 = (offset + half) / w
    t_lo = np.minimum(t1, t2)
    t_hi = np.maximum(t1, t2)
    inside = np.abs(offset) < half
    still = (w == 0.0)
    t_lo = np.where(still, np.where(inside, -np.inf, np.inf), t_lo)
    t_hi = np.where(still, np.where(inside, np.inf, -np.inf), t_hi)
    return t_lo, t_hi


def _corner_ray_distance(wx, wy, cx, cy):
    norm = np.hypot(cx, cy)
    return _ray_distance(wx, wy, cx / norm, cy / norm)


@dataclass(frozen=True)
class AvoidanceDetail:
    difficulty: float
    collision_course: bool
    overlap: bool


def _pair_geometry(scene, neighbour_index: int, params: PcadParams):
    """Pair offset and perceived relative velocity, per ``FrameState`` or per track."""
    s = scene.subject
    n = scene.neighbours[neighbour_index]
    off_x = n.x - s.x
    off_y = n.y - s.y
    norm = np.hypot(off_x, off_y)
    if np.any(norm == 0.0):
        raise ValueError("coincident centres")
    ux, uy = off_x / norm, off_y / norm
    v_s = perceived_velocity((s.vx, s.vy), (s.ax, s.ay), params.t_s_a,
                             (params.sigma_s_x * ux, params.sigma_s_y * uy))
    v_n = perceived_velocity((n.vx, n.vy), (n.ax, n.ay), params.t_n_a,
                             (-params.sigma_n_x * ux, -params.sigma_n_y * uy))
    half_x = 0.5 * (s.length + n.length)
    half_y = 0.5 * (s.width + n.width)
    return off_x, off_y, v_s[0] - v_n[0], v_s[1] - v_n[1], half_x, half_y


def avoidance_detail(frame: FrameState, params: PcadParams = PcadParams(),
                     neighbour_index: int = 0) -> AvoidanceDetail:
    off_x, off_y, wx, wy, half_x, half_y = _pair_geometry(
        frame, neighbour_index, params)
    a, on_course, overlap = _avoidance_kernel(
        off_x, off_y, wx, wy, half_x, half_y, params.t_h, params.overlap_cap)
    return AvoidanceDetail(float(a), bool(on_course), bool(overlap))


def pcad_weight(v_s: float, params: PcadParams = PcadParams()) -> float:
    """Speed-severity weight (v_s / v_lim)^alpha, clamped to [0, 1]."""
    ratio = np.clip(np.asarray(v_s, dtype=float) / params.v_lim, 0.0, 1.0)
    out = ratio ** params.alpha
    return float(out) if out.ndim == 0 else out


def pcad_risk(frame: FrameState, params: PcadParams = PcadParams()) -> float:
    """Highest per-neighbour difficulty, weighted by subject speed."""
    return float(pcad_risk_series(frame, params))


def pcad_risk_series(trajectory: EventTrajectory,
                     params: PcadParams = PcadParams()) -> np.ndarray:
    """pcad_risk at every frame, vectorized (a ``FrameState`` is one frame)."""
    best = 0.0
    for i in range(len(trajectory.neighbours)):
        a, _, _ = _avoidance_kernel(*_pair_geometry(trajectory, i, params),
                                    params.t_h, params.overlap_cap)
        best = np.maximum(best, a)
    return best * pcad_weight(np.hypot(trajectory.subject.vx, trajectory.subject.vy), params)


# ---------------------------------------------------------------------------
# DRF


def drf_probability(x, y, v_sx, params: DrfParams = DrfParams()):
    """Field value at (x, y) ahead of a subject moving at v_sx.

    The subject sits at the origin facing +x. The parabolic height has its
    root at the preview point x = v_sx * t_la; beyond it (and behind the
    subject) the field is zero.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    v_sx = np.asarray(v_sx, dtype=float)
    preview = v_sx * params.t_la
    h = params.s_steepness * (x - preview) ** 2
    # the width line only applies on the support; clamping keeps sigma > 0
    # for the masked-out cells behind the subject
    sigma = params.m_widening * np.maximum(x, 0.0) + params.c_width
    p = h * np.exp(-(y * y) / (2.0 * sigma * sigma))
    out = np.where((x < 0.0) | (x > preview), 0.0, p)
    return float(out) if out.ndim == 0 else out


def _footprint_offsets(length, width, params: DrfParams):
    """Cell-centre offsets tiling a footprint exactly, and the cell area."""
    nx = max(1, int(round(length / params.grid_dx)))
    ny = max(1, int(round(width / params.grid_dy)))
    step_x = length / nx
    step_y = width / ny
    ox = -0.5 * length + step_x * (np.arange(nx) + 0.5)
    oy = -0.5 * width + step_y * (np.arange(ny) + 0.5)
    gx, gy = np.meshgrid(ox, oy, indexing="ij")
    return gx.ravel(), gy.ravel(), step_x * step_y


def drf_risk(frame: FrameState, params: DrfParams = DrfParams()) -> float:
    """Field integral over every neighbour footprint, times severity."""
    series = _drf_neighbour_sums(
        frame.subject.x, frame.subject.y, np.asarray([frame.subject.vx]),
        frame.neighbours, params)
    return float(series[0])


def drf_risk_series(trajectory: EventTrajectory,
                    params: DrfParams = DrfParams()) -> np.ndarray:
    """drf_risk at every frame, vectorized over frames and grid cells."""
    s = trajectory.subject
    return _drf_neighbour_sums(s.x, s.y, s.vx, trajectory.neighbours, params)


def _drf_neighbour_sums(sx, sy, s_vx, neighbours, params):
    s_vx = np.asarray(s_vx, dtype=float)
    total = np.zeros(s_vx.size)
    for n in neighbours:
        nx, ny = np.atleast_1d(n.x), np.atleast_1d(n.y)
        ox, oy, area = _footprint_offsets(n.length, n.width, params)
        cell_x = (nx - sx)[:, None] + ox[None, :]
        cell_y = (ny - sy)[:, None] + oy[None, :]
        p = drf_probability(cell_x, cell_y, s_vx[:, None], params)
        total = total + p.sum(axis=1) * params.c_sev * area
    return total
