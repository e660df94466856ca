"""Catalog and point-mass simulation of the 105 parameterised highway events.

Four scenario families on a straight motorway segment, world frame with x
forward along the road and y lateral (positive to the left), all vehicles
4.5 x 2.0 m point-mass rectangles sampled at 10 Hz:

* MB: a faster vehicle passes the subject on an on-ramp, merges in front at
  the event's initial distance, brakes hard down to 60 km/h and recovers.
* HB: a lead vehicle ahead at the initial distance brakes from cruise speed
  down to 60 km/h and accelerates back; the subject follows.
* LC: a vehicle approaches in the left lane and changes lane towards the
  subject (normal at 1 or 3 m/s, fragmented with a 6 s pause at the lane
  line, or aborted: pause then return); the subject's ACC style varies.
* SVM: the subject itself merges from a ramp into a stream (lead ahead at
  the initial distance, follower behind); the lead then brakes hard.

Scripted vehicles sample exact closed-form positions; their frame velocities
are forward differences so each step's displacement equals vx*dt exactly.
Controller-driven vehicles (the subject, and the SVM follower) integrate a
per-step constant acceleration; each follows the one vehicle its event scripts
for it (the MB merger, HB lead, LC changer, SVM lead, or for the SVM follower
the subject) while that vehicle is ahead with lateral footprint overlap.

Every vehicle's lateral plan carries a centimetre-scale lane-keeping ripple
with a per-vehicle phase: lateral control never holds a lane centre exactly,
and the ripple keeps lateral quantities from degenerating into constants.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

import numpy as np

DT = 0.1
LANE_WIDTH = 3.5
VEHICLE_LENGTH = 4.5
VEHICLE_WIDTH = 2.0
KMH = 1.0 / 3.6  # km/h -> m/s

MERGE_DISTANCES = (5.0, 15.0, 25.0)
LC_DISTANCES = (5.0, 15.0)
CRUISE_SPEEDS = (80.0, 100.0, 120.0)  # km/h
BRAKING_INTENSITIES = (-2.0, -5.0, -8.0)  # m/s^2
ACC_CATEGORIES = ("cautious", "mild", "aggressive")
LC_CATEGORIES = ("LC_normal_slow", "LC_normal_fast", "LC_fragmented", "LC_aborted")
SCENARIOS = ("MB", "HB") + LC_CATEGORIES + ("SVM",)

BRAKE_FLOOR = 60.0 * KMH  # hard-braking vehicles slow to 60 km/h
RECOVERY_ACCEL = 2.0  # m/s^2, acceleration back to cruise
LC_CRUISE = 100.0  # km/h; the LC grid has no speed axis
LC_APPROACH_FACTOR = 1.1  # lane changer approaches this much faster
MB_PASS_FACTOR = 1.1  # merging vehicle passes at this factor of cruise
MERGE_LATERAL_SPEED = LANE_WIDTH / 3.0  # MB / SVM merges cross one lane in 3 s
LC_PAUSE = 6.0  # s, fragmented / aborted hold at the lane line
SVM_FOLLOWER_GAP = 15.0  # m, bumper gap behind the merging subject

LC_LATERAL_SPEED = {
    "LC_normal_slow": 1.0,
    "LC_normal_fast": 3.0,
    "LC_fragmented": 3.0,
    "LC_aborted": 1.0,
}

RIPPLE_AMP = 0.02  # m, lane-keeping ripple amplitude
# 9 full periods over a 36 s event, so lateral start/end positions agree
RIPPLE_FREQ = 0.25  # Hz

_MB_ANCHORS = {"merge_onset": 11.0, "brake_onset": 14.0, "recovery_onset": 19.0}
_HB_ANCHORS = {"brake_onset": 12.0, "recovery_onset": 18.0}
_SVM_ANCHORS = {"merge_onset": 12.0, "brake_onset": 13.25, "recovery_onset": 19.0}
_LC_ANCHORS = {
    "LC_normal_slow": {"merge_onset": 18.0},
    "LC_normal_fast": {"merge_onset": 19.0},
    "LC_fragmented": {"merge_onset": 19.0},
    "LC_aborted": {"merge_onset": 18.0},
}


def scenario_family(scenario: str) -> str:
    """MB / HB / LC / SVM regardless of the LC sub-category."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    return "LC" if scenario.startswith("LC") else scenario


@dataclass(frozen=True)
class EventSpec:
    """One catalog event; speeds in km/h, distances m, intensities m/s^2."""

    event_id: int
    scenario: str
    initial_distance: float
    duration: float
    timeline_anchors: dict
    cruise_speed: float | None = None
    braking_intensity: float | None = None
    acc_category: str | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.initial_distance <= 0:
            raise ValueError("initial distance must be positive")
        anchors = sorted(self.timeline_anchors.values())
        if anchors and not (0.0 <= anchors[0] and anchors[-1] <= self.duration):
            raise ValueError("timeline anchors outside event duration")
        if any(b <= a for a, b in zip(anchors, anchors[1:])):
            raise ValueError("timeline anchors must be strictly increasing")
        if self.scenario in ("MB", "HB", "SVM"):
            if self.cruise_speed is None or self.braking_intensity is None:
                raise ValueError(f"{self.scenario} events need cruise speed and braking intensity")
            if self.braking_intensity >= 0:
                raise ValueError("braking intensity must be negative")
            if self.cruise_speed * KMH <= BRAKE_FLOOR:
                raise ValueError("cruise speed must exceed the 60 km/h braking floor")
        else:
            if self.acc_category not in ACC_CATEGORIES:
                raise ValueError(f"LC events need an ACC category, got {self.acc_category!r}")

    @property
    def family(self) -> str:
        return scenario_family(self.scenario)

    @property
    def n_frames(self) -> int:
        return int(round(self.duration / DT)) + 1


def _build_catalog() -> tuple:
    """The fixed 105-event catalog: 27 MB, 27 HB, 24 LC, 27 SVM.

    Ordering is deterministic: scenario blocks in the order MB, HB, LC, SVM;
    within MB/HB/SVM distance, then speed, then braking intensity; within LC
    lateral category, then distance, then ACC category (the ordering the
    per-event rating-moment tables follow).
    """
    events = []

    def add(**kw):
        events.append(EventSpec(event_id=len(events) + 1, **kw))

    def add_braking(scenario, anchors, speed_factor=1.0):
        for d, v, b in product(MERGE_DISTANCES, CRUISE_SPEEDS, BRAKING_INTENSITIES):
            add(scenario=scenario, initial_distance=d, duration=30.0,
                timeline_anchors=_feasible_anchors(anchors, v * KMH * speed_factor, b),
                cruise_speed=v, braking_intensity=b)

    add_braking("MB", _MB_ANCHORS, MB_PASS_FACTOR)
    add_braking("HB", _HB_ANCHORS)
    for cat, d, acc in product(LC_CATEGORIES, LC_DISTANCES, ACC_CATEGORIES):
        add(scenario=cat, initial_distance=d, duration=36.0,
            timeline_anchors=dict(_LC_ANCHORS[cat]), cruise_speed=LC_CRUISE,
            acc_category=acc)
    add_braking("SVM", _SVM_ANCHORS)
    return tuple(events)


def _feasible_anchors(anchors: dict, v0: float, brake: float) -> dict:
    """Push the recovery onset past the end of slow braking phases."""
    out = dict(anchors)
    brake_end = out["brake_onset"] + (v0 - BRAKE_FLOOR) / abs(brake)
    out["recovery_onset"] = max(out["recovery_onset"], brake_end + 0.5)
    return out


CATALOG = _build_catalog()
# each scenario family's event ids in catalog order
_FAMILY_IDS = {family: [e.event_id for e in CATALOG if e.family == family]
               for family in {e.family for e in CATALOG}}


def enumerate_events() -> list[EventSpec]:
    """The catalog as a fresh list (see ``_build_catalog`` for the ordering)."""
    return list(CATALOG)


def event_by_id(event_id: int) -> EventSpec:
    if not 1 <= event_id <= len(CATALOG):
        raise KeyError(f"event_id {event_id} outside 1..{len(CATALOG)}")
    return CATALOG[event_id - 1]


def scenario_rank(spec: EventSpec) -> int:
    """1-based row of the event inside its scenario family block."""
    return _FAMILY_IDS[spec.family].index(spec.event_id) + 1


# ---------------------------------------------------------------------------
# trajectory containers


@dataclass(frozen=True)
class VehicleState:
    """One vehicle at one frame (positions are footprint centres)."""

    x: float
    y: float
    vx: float
    vy: float
    ax: float
    ay: float
    length: float = VEHICLE_LENGTH
    width: float = VEHICLE_WIDTH


@dataclass
class VehicleTrack:
    x: np.ndarray
    y: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    length: float = VEHICLE_LENGTH
    width: float = VEHICLE_WIDTH


@dataclass(frozen=True)
class FrameState:
    subject: VehicleState
    neighbours: tuple


@dataclass
class EventTrajectory:
    event_id: int
    scenario: str
    t: np.ndarray
    subject: VehicleTrack
    neighbours: tuple

    @property
    def n_frames(self) -> int:
        return self.t.size


# ---------------------------------------------------------------------------
# scripted motion profiles


def _integrate_piecewise_linear(knot_t, knot_v, t):
    """Exact integral of a piecewise-linear speed profile, evaluated at t."""
    knot_t = np.asarray(knot_t, dtype=float)
    knot_v = np.asarray(knot_v, dtype=float)
    knot_x = np.concatenate(
        [[0.0], np.cumsum(0.5 * (knot_v[1:] + knot_v[:-1]) * np.diff(knot_t))])
    idx = np.clip(np.searchsorted(knot_t, t, side="right") - 1, 0, knot_t.size - 2)
    t0, t1 = knot_t[idx], knot_t[idx + 1]
    v0, v1 = knot_v[idx], knot_v[idx + 1]
    tau = np.clip(t, t0, t1) - t0
    slope = np.where(t1 > t0, (v1 - v0) / np.where(t1 > t0, t1 - t0, 1.0), 0.0)
    x = knot_x[idx] + v0 * tau + 0.5 * slope * tau * tau
    # beyond the last knot the speed is constant
    return np.where(t > knot_t[-1], knot_x[-1] + knot_v[-1] * (t - knot_t[-1]), x)


def _speed_knots(cruise, brake, brake_onset, recovery_onset, initial=None):
    v0 = cruise if initial is None else initial
    brake_end = brake_onset + (v0 - BRAKE_FLOOR) / abs(brake)
    if brake_end > recovery_onset:
        raise ValueError("anchors leave no room for the braking phase")
    recovery_end = recovery_onset + (cruise - BRAKE_FLOOR) / RECOVERY_ACCEL
    return ([0.0, brake_onset, brake_end, recovery_onset, recovery_end],
            [v0, v0, BRAKE_FLOOR, BRAKE_FLOOR, cruise])


def _lane_change_y(t, category, onset):
    """The changer's lateral path from the left lane centre (y = LANE_WIDTH) towards y = 0."""
    speed = LC_LATERAL_SPEED[category]
    half = 0.5 * LANE_WIDTH / speed  # time to the lane line
    full = LANE_WIDTH / speed
    tau = np.asarray(t, dtype=float) - onset
    if category in ("LC_normal_slow", "LC_normal_fast"):
        disp = speed * np.clip(tau, 0.0, full)
    elif category == "LC_fragmented":
        first = speed * np.clip(tau, 0.0, half)
        second = speed * np.clip(tau - half - LC_PAUSE, 0.0, half)
        disp = first + second
    else:  # aborted: out to the lane line, hold, back
        out = speed * np.clip(tau, 0.0, half)
        back = speed * np.clip(tau - half - LC_PAUSE, 0.0, half)
        disp = out - back
    return LANE_WIDTH - disp


def _ramp_y(t, onset):
    """Merge from the on-ramp (y = -LANE_WIDTH) up into the main lane at y = 0."""
    tau = np.asarray(t, dtype=float) - onset
    return -LANE_WIDTH + MERGE_LATERAL_SPEED * np.clip(tau, 0.0, LANE_WIDTH / MERGE_LATERAL_SPEED)


def _lane_ripple(t, event_id: int, vehicle_index: int) -> np.ndarray:
    """Closed-form lane-keeping ripple with a per-(event, vehicle) phase."""
    phase = 2.0 * np.pi * ((0.618033988749895 * (7 * event_id + 3 * vehicle_index + 1)) % 1.0)
    return RIPPLE_AMP * np.sin(2.0 * np.pi * RIPPLE_FREQ * np.asarray(t) + phase)


def _scripted_track(t, x_exact, y_exact) -> VehicleTrack:
    """Frame samples of exact profiles; velocities by forward difference."""
    x = np.asarray(x_exact, dtype=float)
    y = np.asarray(y_exact, dtype=float)

    def diff(arr):
        d = np.empty_like(arr)
        d[:-1] = np.diff(arr) / DT
        d[-1] = d[-2]
        return d

    vx, vy = diff(x), diff(y)
    ax, ay = diff(vx), diff(vy)
    ax[-2:] = ax[-3]
    ay[-2:] = 0.0
    return VehicleTrack(x, y, vx, vy, ax, ay)


# ---------------------------------------------------------------------------
# subject controller


@dataclass(frozen=True)
class ControllerParams:
    """Proportional gap-and-speed ACC for the subject (and SVM follower)."""

    headway: float = 1.5  # s, desired time gap when no override is set
    standstill: float = 2.0  # m, gap kept at zero speed
    k_gap: float = 0.4  # 1/s^2, gain on the gap error
    k_rel: float = 5.0  # 1/s, gain on the relative speed
    k_cruise: float = 0.5  # 1/s, speed-tracking gain
    a_min: float = -9.5  # m/s^2, braking authority
    a_max: float = 2.5  # m/s^2
    desired_gap: float | None = None  # m, overrides the headway rule


ACC_STYLES = {
    "cautious": ControllerParams(headway=1.8, k_gap=0.3, k_rel=3.5),
    "mild": ControllerParams(headway=1.2, k_gap=0.4, k_rel=5.0),
    "aggressive": ControllerParams(headway=0.7, k_gap=0.6, k_rel=6.0),
}


# ---------------------------------------------------------------------------
# event simulation


def simulate_event(spec: EventSpec) -> EventTrajectory:
    """Deterministic point-mass trajectories for one catalog event."""
    t = np.arange(spec.n_frames) * DT
    builder = {"MB": _simulate_mb, "HB": _simulate_hb,
               "LC": _simulate_lc, "SVM": _simulate_svm}[spec.family]
    subject, neighbours = builder(spec, t)
    return EventTrajectory(spec.event_id, spec.scenario, t, subject, tuple(neighbours))


_TRAJECTORIES: dict = {}  # event id -> EventTrajectory, filled by catalog_trajectory


def catalog_trajectory(event_id: int) -> EventTrajectory:
    """The event simulated on first use; later calls share it, with read-only arrays."""
    spec = event_by_id(event_id)
    if spec.event_id not in _TRAJECTORIES:
        trajectory = simulate_event(spec)
        trajectory.t.flags.writeable = False
        for track in (trajectory.subject, *trajectory.neighbours):
            for arr in (track.x, track.y, track.vx, track.vy, track.ax, track.ay):
                arr.flags.writeable = False
        _TRAJECTORIES[spec.event_id] = trajectory
    return _TRAJECTORIES[spec.event_id]


def _simulate_subject(t, v0, lead, params, y_track, x0=0.0):
    """Integrate an ACC vehicle from (x0, v0) that also holds v0 as its desired
    speed and follows ``lead`` while that vehicle is ahead with lateral
    footprint overlap; its lateral motion is scripted by ``y_track``."""
    lead_x, lead_y, lead_vx = lead.x.tolist(), lead.y.tolist(), lead.vx.tolist()
    y = y_track.tolist()
    p = params
    x, vx, ax = [x0], [v0], []
    for k in range(t.size - 1):
        a = p.k_cruise * (v0 - vx[k])
        if lead_x[k] > x[k] and abs(lead_y[k] - y[k]) < VEHICLE_WIDTH:
            g_des = p.desired_gap if p.desired_gap is not None else \
                p.standstill + p.headway * vx[k]
            a = min(a, p.k_gap * (lead_x[k] - x[k] - VEHICLE_LENGTH - g_des)
                    + p.k_rel * (lead_vx[k] - vx[k]))
        a = min(max(a, p.a_min), p.a_max)
        ax.append(a)
        x.append(x[k] + vx[k] * DT + 0.5 * a * DT * DT)
        vx.append(vx[k] + a * DT)
    ax.append(0.0)
    lat = _scripted_track(t, np.zeros(t.size), y_track)
    return VehicleTrack(np.array(x), lat.y, np.array(vx), lat.vy, np.array(ax), lat.ay)


def _pinned_x(spec, t, v_c, knot_t, knot_v):
    """Exact positions of a scripted vehicle on a speed profile, pinned so its
    bumper gap to the subject is the initial distance at merge onset (the
    subject cruises at v_c until then)."""
    t_merge = spec.timeline_anchors["merge_onset"]
    x_at_merge = v_c * t_merge + spec.initial_distance + VEHICLE_LENGTH
    return (_integrate_piecewise_linear(knot_t, knot_v, t)
            - float(_integrate_piecewise_linear(knot_t, knot_v, np.array([t_merge]))[0])
            + x_at_merge)


def _simulate_mb(spec, t):
    v_c = spec.cruise_speed * KMH
    t_merge = spec.timeline_anchors["merge_onset"]
    knot_t, knot_v = _speed_knots(v_c, spec.braking_intensity,
                                  spec.timeline_anchors["brake_onset"],
                                  spec.timeline_anchors["recovery_onset"],
                                  initial=MB_PASS_FACTOR * v_c)
    y_m = _ramp_y(t, t_merge) + _lane_ripple(t, spec.event_id, 1)
    merger = _scripted_track(t, _pinned_x(spec, t, v_c, knot_t, knot_v), y_m)
    subject = _simulate_subject(t, v_c, merger, ControllerParams(),
                                y_track=_lane_ripple(t, spec.event_id, 0))
    return subject, [merger]


def _braking_lead(spec, t) -> VehicleTrack:
    """The HB/SVM lead one gap ahead: cruise, brake to 60 km/h, recover (exact positions)."""
    knot_t, knot_v = _speed_knots(spec.cruise_speed * KMH, spec.braking_intensity,
                                  spec.timeline_anchors["brake_onset"],
                                  spec.timeline_anchors["recovery_onset"])
    x = _integrate_piecewise_linear(knot_t, knot_v, t)
    return _scripted_track(t, x + spec.initial_distance + VEHICLE_LENGTH,
                           _lane_ripple(t, spec.event_id, 1))


def _simulate_hb(spec, t):
    v_c = spec.cruise_speed * KMH
    lead = _braking_lead(spec, t)
    params = replace(ControllerParams(), desired_gap=spec.initial_distance)
    subject = _simulate_subject(t, v_c, lead, params,
                                y_track=_lane_ripple(t, spec.event_id, 0))
    return subject, [lead]


def _simulate_lc(spec, t):
    v_c = LC_CRUISE * KMH
    t_merge = spec.timeline_anchors["merge_onset"]
    v_app = LC_APPROACH_FACTOR * v_c
    # approach faster, then settle to the stream speed over the manoeuvre
    settle = (v_app - v_c) / 1.0
    knot_t = [0.0, t_merge, t_merge + settle]
    knot_v = [v_app, v_app, v_c]
    y_n = _lane_change_y(t, spec.scenario, t_merge) + _lane_ripple(t, spec.event_id, 1)
    changer = _scripted_track(t, _pinned_x(spec, t, v_c, knot_t, knot_v), y_n)
    subject = _simulate_subject(t, v_c, changer, ACC_STYLES[spec.acc_category],
                                y_track=_lane_ripple(t, spec.event_id, 0))
    return subject, [changer]


def _simulate_svm(spec, t):
    v_c = spec.cruise_speed * KMH
    t_merge = spec.timeline_anchors["merge_onset"]
    lead = _braking_lead(spec, t)
    y_s = _ramp_y(t, t_merge) + _lane_ripple(t, spec.event_id, 0)
    params = replace(ControllerParams(), desired_gap=spec.initial_distance)
    subject = _simulate_subject(t, v_c, lead, params, y_track=y_s)

    # follower on the main road, controller-driven once the subject is in lane
    follower = _simulate_subject(
        t, v_c, subject, replace(ControllerParams(), desired_gap=SVM_FOLLOWER_GAP),
        y_track=_lane_ripple(t, spec.event_id, 2), x0=-(SVM_FOLLOWER_GAP + VEHICLE_LENGTH))
    return subject, [lead, follower]
