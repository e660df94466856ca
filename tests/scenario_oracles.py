"""The scenario simulator's controller and catalog loops, as ``scenarios`` once wrote them.

``simulate_subject`` takes a list of vehicles and searches it at every step for
the nearest one ahead with lateral footprint overlap, then asks a separate ACC
command for the acceleration; it indexes numpy arrays throughout.
``build_catalog`` writes its three loops out in full.  Only the unchanged
helpers (``_scripted_track``, ``_feasible_anchors``) and the public constants
are shared with the package, so ``scenarios._simulate_subject``, which follows
one vehicle on Python floats, and ``scenarios.CATALOG`` must match these bit
for bit.
"""

import numpy as np

from riskdecode.scenarios import (_HB_ANCHORS, _LC_ANCHORS, _MB_ANCHORS, _SVM_ANCHORS,
                                  ACC_CATEGORIES, BRAKING_INTENSITIES, CRUISE_SPEEDS, DT,
                                  KMH, LC_CATEGORIES, LC_CRUISE, LC_DISTANCES,
                                  MB_PASS_FACTOR, MERGE_DISTANCES, VEHICLE_LENGTH,
                                  VEHICLE_WIDTH, ControllerParams, EventSpec, VehicleTrack,
                                  _feasible_anchors, _scripted_track)


def acc_command(v_s, v_des, gap, dv, p: ControllerParams) -> float:
    a = p.k_cruise * (v_des - v_s)
    if gap is not None:
        g_des = p.desired_gap if p.desired_gap is not None else \
            p.standstill + p.headway * v_s
        a = min(a, p.k_gap * (gap - g_des) + p.k_rel * dv)
    return float(min(max(a, p.a_min), p.a_max))


def lead_of(x, y, others):
    """Nearest vehicle ahead with lateral footprint overlap, as (gap, dv)."""
    best = None
    for ox, oy, ovx in others:
        if ox <= x or abs(oy - y) >= VEHICLE_WIDTH:
            continue
        gap = ox - x - VEHICLE_LENGTH
        if best is None or gap < best[0]:
            best = (gap, ovx)
    return best


def simulate_subject(t, v0, neighbour_tracks, params, y_track, x0=0.0):
    """Integrate an ACC vehicle from (x0, v0) that also holds v0 as its desired
    speed; its lateral motion is scripted by ``y_track``."""
    n = t.size
    x = np.zeros(n)
    vx = np.zeros(n)
    ax = np.zeros(n)
    x[0] = x0
    vx[0] = v0
    for k in range(n - 1):
        others = [(trk.x[k], trk.y[k], trk.vx[k]) for trk in neighbour_tracks]
        lead = lead_of(x[k], y_track[k], others)
        gap, dv = (lead if lead is not None else (None, 0.0))
        a = acc_command(vx[k], v0, gap, dv - vx[k] if lead else 0.0, params)
        ax[k] = a
        x[k + 1] = x[k] + vx[k] * DT + 0.5 * a * DT * DT
        vx[k + 1] = vx[k] + a * DT
    lat = _scripted_track(t, np.zeros(n), y_track)
    return VehicleTrack(x, lat.y, vx, lat.vy, ax, lat.ay)


def build_catalog() -> tuple:
    """The fixed 105-event catalog: MB, HB, LC, SVM blocks."""
    events = []

    def add(**kw):
        events.append(EventSpec(event_id=len(events) + 1, **kw))

    for scenario, anchors in (("MB", _MB_ANCHORS), ("HB", _HB_ANCHORS)):
        for d in MERGE_DISTANCES:
            for v in CRUISE_SPEEDS:
                for b in BRAKING_INTENSITIES:
                    v0 = v * KMH * (MB_PASS_FACTOR if scenario == "MB" else 1.0)
                    add(scenario=scenario, initial_distance=d, duration=30.0,
                        timeline_anchors=_feasible_anchors(anchors, v0, b),
                        cruise_speed=v, braking_intensity=b)
    for cat in LC_CATEGORIES:
        for d in LC_DISTANCES:
            for acc in ACC_CATEGORIES:
                add(scenario=cat, initial_distance=d, duration=36.0,
                    timeline_anchors=dict(_LC_ANCHORS[cat]), cruise_speed=LC_CRUISE,
                    acc_category=acc)
    for d in MERGE_DISTANCES:
        for v in CRUISE_SPEEDS:
            for b in BRAKING_INTENSITIES:
                add(scenario="SVM", initial_distance=d, duration=30.0,
                    timeline_anchors=_feasible_anchors(_SVM_ANCHORS, v * KMH, b),
                    cruise_speed=v, braking_intensity=b)
    return tuple(events)
