"""Per-event reference implementations of the PCAD and DRF series.

These are the straightforward forms the pair-table kernels in
``riskdecode.risk_models`` replaced: one kernel call per (event, neighbour)
pair, every piece of geometry recomputed on each call, the field evaluated
out of place and the pair sums added neighbour by neighbour.  Tests require
the library to match them bit for bit.
"""

import numpy as np

from riskdecode.risk_models import DrfParams, PcadParams


def _wrap_angle(theta):
    return (theta + np.pi) % (2.0 * np.pi) - np.pi


def _point_segment_distance(px, py, ax, ay, bx, by):
    abx, aby = bx - ax, by - ay
    denom = abx * abx + aby * aby
    tt = np.clip(((px - ax) * abx + (py - ay) * aby) / denom, 0.0, 1.0)
    return np.hypot(px - (ax + tt * abx), py - (ay + tt * aby))


def _ray_distance(wx, wy, ux, uy):
    along = wx * ux + wy * uy
    perp = np.abs(wx * uy - wy * ux)
    return np.where(along < 0.0, np.hypot(wx, wy), perp)


def _corner_ray_distance(wx, wy, cx, cy):
    norm = np.hypot(cx, cy)
    return _ray_distance(wx, wy, cx / norm, cy / norm)


def _slab_interval(offset, w, half):
    t1 = (offset - half) / w
    t2 = (offset + half) / w
    t_lo = np.minimum(t1, t2)
    t_hi = np.maximum(t1, t2)
    inside = np.abs(offset) < half
    still = (w == 0.0)
    t_lo = np.where(still, np.where(inside, -np.inf, np.inf), t_lo)
    t_hi = np.where(still, np.where(inside, np.inf, -np.inf), t_hi)
    return t_lo, t_hi


def avoidance_kernel(dx, dy, wx, wy, half_x, half_y, t_h, overlap_cap):
    """(difficulty, on_course, overlap) elementwise, all geometry recomputed."""
    dx, dy, wx, wy = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (dx, dy, wx, wy)))
    overlap = (np.abs(dx) < half_x) & (np.abs(dy) < half_y)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_enter_x, t_exit_x = _slab_interval(dx, wx, half_x)
        t_enter_y, t_exit_y = _slab_interval(dy, wy, half_y)
    t_enter = np.maximum(t_enter_x, t_enter_y)
    t_exit = np.minimum(t_exit_x, t_exit_y)
    on_course = (t_enter <= t_exit) & (t_enter > 0.0) & (t_enter <= t_h)

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


def _perceived(v, a, t_a, dv_u):
    return np.asarray(v, dtype=float) + np.asarray(a, dtype=float) * t_a + dv_u


def pair_geometry(trajectory, neighbour_index, params):
    """Pair offset, perceived relative velocity and expanded half sizes."""
    s = trajectory.subject
    n = trajectory.neighbours[neighbour_index]
    off_x = n.x - s.x
    off_y = n.y - s.y
    norm = np.hypot(off_x, off_y)
    ux, uy = off_x / norm, off_y / norm
    v_s = [_perceived(s.vx, s.ax, params.t_s_a, params.sigma_s_x * ux),
           _perceived(s.vy, s.ay, params.t_s_a, params.sigma_s_y * uy)]
    v_n = [_perceived(n.vx, n.ax, params.t_n_a, -params.sigma_n_x * ux),
           _perceived(n.vy, n.ay, params.t_n_a, -params.sigma_n_y * uy)]
    half_x = 0.5 * (s.length + n.length)
    half_y = 0.5 * (s.width + n.width)
    return off_x, off_y, v_s[0] - v_n[0], v_s[1] - v_n[1], half_x, half_y


def pcad_series(trajectory, params=PcadParams()):
    """Highest per-neighbour difficulty per frame, times the speed weight."""
    best = 0.0
    for i in range(len(trajectory.neighbours)):
        a, _, _ = avoidance_kernel(*pair_geometry(trajectory, i, params),
                                   params.t_h, params.overlap_cap)
        best = np.maximum(best, a)
    speed = np.hypot(trajectory.subject.vx, trajectory.subject.vy)
    return best * np.clip(speed / params.v_lim, 0.0, 1.0) ** params.alpha


def field(x, y, v_sx, params):
    preview = v_sx * params.t_la
    h = params.s_steepness * (x - preview) ** 2
    sigma = params.m_widening * np.maximum(x, 0.0) + params.c_width
    p = h * np.exp(-(y * y) / (2.0 * sigma * sigma))
    return np.where((x < 0.0) | (x > preview), 0.0, p)


def footprint_offsets(length, width, params):
    nx = max(1, int(round(length / params.grid_dx)))
    ny = max(1, int(round(width / params.grid_dy)))
    step_x = length / nx
    step_y = width / ny
    ox = -0.5 * length + step_x * (np.arange(nx) + 0.5)
    oy = -0.5 * width + step_y * (np.arange(ny) + 0.5)
    gx, gy = np.meshgrid(ox, oy, indexing="ij")
    return gx.ravel(), gy.ravel(), step_x * step_y


def drf_series(trajectory, params=DrfParams()):
    """Field sums over each neighbour footprint, added in neighbour order."""
    s = trajectory.subject
    total = np.zeros(s.vx.size)
    for n in trajectory.neighbours:
        ox, oy, area = footprint_offsets(n.length, n.width, params)
        cell_x = (n.x - s.x)[:, None] + ox[None, :]
        cell_y = (n.y - s.y)[:, None] + oy[None, :]
        p = field(cell_x, cell_y, s.vx[:, None], params)
        total = total + p.sum(axis=1) * params.c_sev * area
    return total
