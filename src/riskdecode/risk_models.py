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

Both evaluate a ``PairTable``: the subject and neighbour columns of every
(scene, neighbour) pair of some scenes, stacked into rows, with each row's
index in the output frame vector.  Calibration builds one table over the
catalog and scores every draw with one call per model; a single
``EventTrajectory`` or ``FrameState`` is the same kernel on a one-scene
table.  The table keeps what no drawn parameter changes: for PCAD the pair
overlap, the slab bounds, the unit vectors of the two tangent corners and
the near-face segments (these last depend on ``t_h``, so they are rebuilt
when it changes); for DRF each footprint's cell offsets per grid
resolution.  A PCAD draw then computes only the perceived relative
velocity, the slab test and the ray and segment distances, and takes the
per-frame maximum over neighbours; a DRF draw evaluates the field in place,
one block of frames x cells per pair, skips the frames whose cells all lie
outside the field's support, and adds the pair sums per frame in neighbour
order.  Every result is bit-for-bit the per-event, per-pair evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import DEFAULT_SIGMAS
from .scenarios import KMH, FrameState


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
# pair table


_STATE = ("x", "y", "vx", "vy", "ax", "ay")


def _track(vehicle) -> list:
    """A vehicle's state columns as arrays (one element for a ``VehicleState``)."""
    return [np.atleast_1d(np.asarray(getattr(vehicle, k), dtype=float)) for k in _STATE]


class PairTable:
    """Every (scene, neighbour) pair of some scenes, stacked into rows.

    A scene is an ``EventTrajectory`` or a ``FrameState`` (one frame).  A
    model series over the table is one vector holding each scene's frames
    in order.  Rows run scene by scene and, within a scene, neighbour by
    neighbour over all of its frames: ``frame`` maps each row to its index
    in that vector and ``blocks`` holds each pair's row range.
    """

    def __init__(self, scenes):
        pairs, speed, self.scene_frames, self.blocks, self.footprints = [], [], [], [], []
        first = rows = 0
        for scene in scenes:
            s = scene.subject
            sx, sy, svx, svy, sax, say = _track(s)
            n_frames = sx.size
            speed.append(np.hypot(svx, svy))
            for n in scene.neighbours:
                nx, ny, nvx, nvy, nax, nay = _track(n)
                pairs.append((nx - sx, ny - sy, svx, svy, sax, say, nvx, nvy, nax, nay,
                              np.full(n_frames, 0.5 * (s.length + n.length)),
                              np.full(n_frames, 0.5 * (s.width + n.width)),
                              np.arange(first, first + n_frames)))
                self.blocks.append((rows, rows + n_frames))
                self.footprints.append((n.length, n.width))
                rows += n_frames
            first += n_frames
            self.scene_frames.append(n_frames)
        columns = [np.concatenate(c) for c in zip(*pairs)] if pairs else [np.empty(0)] * 13
        (self.off_x, self.off_y, self.s_vx, self.s_vy, self.s_ax, self.s_ay,
         self.n_vx, self.n_vy, self.n_ax, self.n_ay, self.half_x, self.half_y) = columns[:12]
        self.frame = columns[12].astype(np.intp, copy=False)
        self.speed = np.concatenate([np.empty(0), *speed])
        self.n_frames = first
        self._pcad = None  # (t_h, _PcadGeometry)
        self._drf = None  # ((grid_dx, grid_dy), per-pair cell offsets and area)

    def split(self, series) -> list:
        """A model series over the table, cut back into one array per scene."""
        return np.split(np.asarray(series), np.cumsum(self.scene_frames)[:-1])

    def pcad_geometry(self, t_h: float) -> _PcadGeometry:
        if self._pcad is None or self._pcad[0] != t_h:
            self._pcad = (t_h, _PcadGeometry(self, t_h))
        return self._pcad[1]

    def drf_cells(self, params: DrfParams) -> list:
        key = (params.grid_dx, params.grid_dy)
        if self._drf is None or self._drf[0] != key:
            cells = {size: _footprint_offsets(*size, params) for size in set(self.footprints)}
            self._drf = (key, [cells[size] for size in self.footprints])
        return self._drf[1]


def _as_table(source) -> PairTable:
    return source if isinstance(source, PairTable) else PairTable([source])


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


class _Segment:
    """Segment a -> a + ab with its squared length, for point distances."""

    def __init__(self, ax, ay, bx, by):
        self.ax, self.ay = ax, ay
        self.abx, self.aby = bx - ax, by - ay
        self.denom = self.abx * self.abx + self.aby * self.aby

    def distance(self, px, py):
        tt = np.clip(((px - self.ax) * self.abx + (py - self.ay) * self.aby) / self.denom,
                     0.0, 1.0)
        return np.hypot(px - (self.ax + tt * self.abx), py - (self.ay + tt * self.aby))


class _PcadGeometry:
    """The draw-invariant half of the avoidance kernel, per table row.

    It depends only on the pair offsets, the vehicle sizes and ``t_h``:
    the overlap flag, the slab bounds, the unit vectors of the two tangent
    corners and the near faces scaled onto the velocity plane by 1/t_h.
    """

    def __init__(self, table: PairTable, t_h: float):
        dx, dy, half_x, half_y = table.off_x, table.off_y, table.half_x, table.half_y
        norm = np.hypot(dx, dy)
        if np.any(norm == 0.0):
            raise ValueError("coincident centres")
        self.ux, self.uy = dx / norm, dy / norm
        self.overlap = (np.abs(dx) < half_x) & (np.abs(dy) < half_y)
        # slab bounds per axis, and the interval end a motionless axis takes
        self.slab_x = (dx - half_x, dx + half_x, np.where(np.abs(dx) < half_x, -np.inf, np.inf))
        self.slab_y = (dy - half_y, dy + half_y, np.where(np.abs(dy) < half_y, -np.inf, np.inf))

        # tangent rays through the angularly extreme corners
        theta_c = np.arctan2(dy, dx)
        cx = np.stack([dx - half_x, dx - half_x, dx + half_x, dx + half_x])
        cy = np.stack([dy - half_y, dy + half_y, dy - half_y, dy + half_y])
        rel = _wrap_angle(np.arctan2(cy, cx) - theta_c)
        self.rays = []
        for pick in (np.argmin(rel, axis=0), np.argmax(rel, axis=0)):
            px = np.take_along_axis(cx, pick[None], 0)[0]
            py = np.take_along_axis(cy, pick[None], 0)[0]
            corner = np.hypot(px, py)
            self.rays.append((px / corner, py / corner))

        # visible near faces, scaled onto the velocity plane by 1/t_h
        fx = np.where(dx - half_x > 0, dx - half_x,
                      np.where(dx + half_x < 0, dx + half_x, np.nan))
        fy = np.where(dy - half_y > 0, dy - half_y,
                      np.where(dy + half_y < 0, dy + half_y, np.nan))
        self.faces = (
            (~np.isnan(fx), _Segment(np.nan_to_num(fx) / t_h, (dy - half_y) / t_h,
                                     np.nan_to_num(fx) / t_h, (dy + half_y) / t_h)),
            (~np.isnan(fy), _Segment((dx - half_x) / t_h, np.nan_to_num(fy) / t_h,
                                     (dx + half_x) / t_h, np.nan_to_num(fy) / t_h)))


def _slab_interval(slab, w):
    """Ray parameter interval inside one axis slab [offset-half, offset+half]."""
    lo, hi, still_lo = slab
    t_lo = lo / w
    t_hi = hi / w
    t_lo, t_hi = np.minimum(t_lo, t_hi), np.maximum(t_lo, t_hi)
    still = w == 0.0
    np.copyto(t_lo, still_lo, where=still)
    np.copyto(t_hi, -still_lo, where=still)
    return t_lo, t_hi


def _ray_distance(wx, wy, speed, ux, uy):
    """Distance from point w (of norm ``speed``) to the ray {r*u : r >= 0}."""
    along = wx * ux + wy * uy
    perp = np.abs(wx * uy - wy * ux)
    return np.where(along < 0.0, speed, perp)


def _avoidance_rows(table: PairTable, params: PcadParams):
    """Exit distance from the unsafe velocity set, per table row.

    (dx, dy) is the expanded neighbour rectangle centre relative to the
    subject, (wx, wy) the perceived relative velocity. The unsafe set is
    {w : the ray along w first hits the rectangle within t_h}; its boundary
    is the two tangent rays plus the visible near faces scaled by 1/t_h,
    so the minimum over those pieces is the exact exit distance.  Returns
    the difficulty, the collision-course flag and the overlap flag.
    """
    g = table.pcad_geometry(params.t_h)
    p = params
    wx = (perceived_velocity(table.s_vx, table.s_ax, p.t_s_a, p.sigma_s_x * g.ux)
          - perceived_velocity(table.n_vx, table.n_ax, p.t_n_a, -p.sigma_n_x * g.ux))
    wy = (perceived_velocity(table.s_vy, table.s_ay, p.t_s_a, p.sigma_s_y * g.uy)
          - perceived_velocity(table.n_vy, table.n_ay, p.t_n_a, -p.sigma_n_y * g.uy))

    # slab test: first-hit ray parameter (time, since |w| is a speed)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_enter_x, t_exit_x = _slab_interval(g.slab_x, wx)
        t_enter_y, t_exit_y = _slab_interval(g.slab_y, wy)
    t_enter = np.maximum(t_enter_x, t_enter_y)
    t_exit = np.minimum(t_exit_x, t_exit_y)
    on_course = (t_enter <= t_exit) & (t_enter > 0.0) & (t_enter <= p.t_h)

    speed = np.hypot(wx, wy)
    (lo_x, lo_y), (hi_x, hi_y) = g.rays
    d_rays = np.minimum(_ray_distance(wx, wy, speed, lo_x, lo_y),
                        _ray_distance(wx, wy, speed, hi_x, hi_y))
    d_faces = []
    for visible, segment in g.faces:
        d = segment.distance(wx, wy)
        np.copyto(d, np.inf, where=~visible)
        d_faces.append(d)
    exit_dist = np.minimum(d_rays, np.minimum(*d_faces))
    return (np.where(g.overlap, p.overlap_cap, np.where(on_course, exit_dist, 0.0)),
            on_course, g.overlap)


@dataclass(frozen=True)
class AvoidanceDetail:
    difficulty: float
    collision_course: bool
    overlap: bool


def avoidance_detail(frame: FrameState, params: PcadParams = PcadParams(),
                     neighbour_index: int = 0) -> AvoidanceDetail:
    table = PairTable([FrameState(frame.subject, (frame.neighbours[neighbour_index],))])
    a, on_course, overlap = _avoidance_rows(table, params)
    return AvoidanceDetail(float(a[0]), bool(on_course[0]), bool(overlap[0]))


def pcad_weight(v_s: float, params: PcadParams = PcadParams()) -> float:
    """Speed-severity weight (v_s / v_lim)^alpha, clamped to [0, 1]."""
    ratio = np.clip(np.asarray(v_s, dtype=float) / params.v_lim, 0.0, 1.0)
    out = ratio ** params.alpha
    return float(out) if out.ndim == 0 else out


def pcad_risk(frame: FrameState, params: PcadParams = PcadParams()) -> float:
    """Highest per-neighbour difficulty, weighted by subject speed."""
    return float(pcad_risk_series(frame, params)[0])


def pcad_risk_series(source, params: PcadParams = PcadParams()) -> np.ndarray:
    """pcad_risk at every frame of a ``PairTable``, ``EventTrajectory`` or ``FrameState``."""
    table = _as_table(source)
    a, _, _ = _avoidance_rows(table, params)
    best = np.zeros(table.n_frames)
    np.maximum.at(best, table.frame, a)
    return best * pcad_weight(table.speed, params)


# ---------------------------------------------------------------------------
# DRF


def _field_into(x, preview, y, scratch, params: DrfParams):
    """The DRF field at cells (x, y) ahead of previews ``preview``, written into ``y``.

    ``x`` is kept; ``scratch`` (shaped like ``y``) is overwritten.
    """
    sigma = np.maximum(x, 0.0, out=scratch)
    sigma *= params.m_widening
    sigma += params.c_width
    # -(y*y) / (2*sigma*sigma) as (y*y) / ((sigma*sigma) * -2): doubling and
    # negation are exact while sigma*sigma is a normal number, so the bits match
    sigma *= sigma
    sigma *= -2.0
    np.multiply(y, y, out=y)
    y /= sigma
    np.exp(y, out=y)
    h = np.subtract(x, preview, out=scratch)
    h *= h
    h *= params.s_steepness
    y *= h
    np.copyto(y, 0.0, where=(x < 0.0) | (x > preview))
    return y


def drf_probability(x, y, v_sx, params: DrfParams = DrfParams()):
    """Field value at (x, y) ahead of a subject moving at v_sx.

    The subject sits at the origin facing +x. The parabolic height has its
    root at the preview point x = v_sx * t_la; beyond it (and behind the
    subject) the field is zero.  The width line only applies on the
    support; clamping it at x = 0 keeps sigma > 0 for the masked-out cells
    behind the subject.
    """
    x = np.asarray(x, dtype=float)
    preview = np.asarray(v_sx, dtype=float) * params.t_la
    shape = np.broadcast_shapes(x.shape, np.shape(y), preview.shape)
    out = np.array(np.broadcast_to(np.asarray(y, dtype=float), shape))
    _field_into(x, preview, out, np.empty(shape), params)
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
    return float(drf_risk_series(frame, params)[0])


def drf_risk_series(source, params: DrfParams = DrfParams()) -> np.ndarray:
    """drf_risk at every frame of a ``PairTable``, ``EventTrajectory`` or ``FrameState``.

    The field is evaluated in place one pair at a time: a block of the
    pair's frames by its footprint cells stays small enough for the cache.
    A frame whose cells all lie behind the subject or past the preview
    point has a zero field and is skipped; rounding is monotone, so the
    footprint's extreme offsets bound every cell of the frame.
    """
    table = _as_table(source)
    cells = table.drf_cells(params)
    preview = table.s_vx * params.t_la
    size = max([(r1 - r0) * ox.size for (r0, r1), (ox, _, _) in zip(table.blocks, cells)],
               default=0)
    x, y, scratch = np.empty(size), np.empty(size), np.empty(size)
    sums = np.empty(table.off_x.size)
    for (r0, r1), (ox, oy, area) in zip(table.blocks, cells):
        rows = slice(r0, r1)
        live = np.flatnonzero((table.off_x[rows] + ox.max() >= 0.0)
                              & (table.off_x[rows] + ox.min() <= preview[rows]))
        shape = (live.size, ox.size)
        bx = np.add(table.off_x[rows][live, None], ox, out=x[:live.size * ox.size].reshape(shape))
        by = np.add(table.off_y[rows][live, None], oy, out=y[:bx.size].reshape(shape))
        p = _field_into(bx, preview[rows][live, None], by, scratch[:bx.size].reshape(shape),
                        params)
        block = np.zeros(r1 - r0)
        block[live] = p.sum(axis=1)
        block *= params.c_sev
        block *= area
        sums[rows] = block
    total = np.zeros(table.n_frames)
    np.add.at(total, table.frame, sums)
    return total
