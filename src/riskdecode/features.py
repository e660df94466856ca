"""Per-frame interaction features for the surrogate network.

Everything here is a pure, elementwise function of vehicle states: pass a
single ``FrameState`` for scalars or a whole ``EventTrajectory`` (same
``.subject`` / ``.neighbours`` fields, one array entry per frame) for
per-frame series. Relative quantities follow one sign convention:
positive means the vehicles are approaching on that axis. Uncertain
velocities attach a fixed-magnitude velocity along the line between the
two vehicles (the distance-reducing direction), which feeds the DRAC_u
family.

Every quantity of a subject-neighbour pair comes from one kernel,
``_pair_features``, which derives the pair's kinematics once.  Its output is
named by one of two parallel tuples: ``_NEIGHBOUR_FEATURES`` for the first
neighbour and ``FOLLOWER_FEATURES`` (``_b`` suffix) for the second, which only
the three-vehicle merges have.  Scenario manifests pick an ordered subset of
the vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenarios import EventTrajectory, FrameState, scenario_family

# a single frame (scalar fields) or a whole trajectory (per-frame arrays)
States = FrameState | EventTrajectory

SCENARIO_FAMILIES = ("MB", "HB", "LC", "SVM")

GAP_FLOOR = 0.1  # m, avoids division blow-ups in DRAC


@dataclass(frozen=True)
class UncertaintySigmas:
    """Velocity-uncertainty magnitudes (m/s), shared with the PCAD model."""

    s_x: float = 0.5
    s_y: float = 0.3
    n_x: float = 1.0
    n_y: float = 0.5

    def __post_init__(self):
        if min(self.s_x, self.s_y, self.n_x, self.n_y) < 0:
            raise ValueError("sigmas must be nonnegative")


# ego and neighbour kinematics, centre offsets, approach rates, uncertain
# velocities and the four collision-avoidance acceleration variants
_NON_FOLLOWER = (
    "v_s_x", "v_s_y", "a_s_x", "a_s_y",
    "v_n_x", "v_n_y", "a_n_x", "a_n_y",
    "dx", "dy", "dv_x", "dv_y", "da_x", "da_y",
    "dv_s_u_x", "dv_s_u_y", "dv_n_u_x", "dv_n_u_y",
    "drac_u_x", "drac_u_y", "drac_r_x", "drac_r_y",
)

# one pair's quantities, in the order ``_pair_features`` returns them: the
# first neighbour's here, the follower's (second neighbour) below
_NEIGHBOUR_FEATURES = (
    "v_n_x", "v_n_y", "a_n_x", "a_n_y",
    "dx", "dy", "dv_x", "dv_y", "da_x", "da_y",
    "dv_n_u_x", "dv_n_u_y",
    "drac_u_x", "drac_u_y", "drac_r_x", "drac_r_y",
)

FOLLOWER_FEATURES = (
    "v_nb_x", "v_nb_y", "a_nb_x", "a_nb_y",
    "dx_b", "dy_b", "dv_x_b", "dv_y_b", "da_x_b", "da_y_b",
    "dv_nb_u_x", "dv_nb_u_y",
    "drac_u_b_x", "drac_u_b_y", "drac_r_b_x", "drac_r_b_y",
)

FEATURE_VOCABULARY = _NON_FOLLOWER + FOLLOWER_FEATURES


@dataclass(frozen=True)
class FeatureManifest:
    scenario: str
    names: tuple

    def __post_init__(self):
        if self.scenario not in SCENARIO_FAMILIES:
            raise ValueError(f"unknown scenario family {self.scenario!r}")
        unknown = [n for n in self.names if n not in FEATURE_VOCABULARY]
        if unknown:
            raise ValueError(f"names outside the feature vocabulary: {unknown}")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate feature names")
        if self.scenario != "SVM":
            bad = [n for n in self.names if n in FOLLOWER_FEATURES]
            if bad:
                raise ValueError(
                    f"follower features need a follower vehicle: {bad}")


def _drop(names, *excluded):
    return tuple(n for n in names if n not in excluded)


DEFAULT_MANIFESTS = {
    "HB": FeatureManifest("HB", (
        "v_s_x", "a_s_x", "v_n_x", "a_n_x", "dx", "dv_x", "da_x",
        "dv_s_u_x", "dv_n_u_x", "drac_u_x", "drac_r_x")),
    "MB": FeatureManifest("MB", _drop(_NON_FOLLOWER, "da_y")),
    "LC": FeatureManifest("LC", _drop(_NON_FOLLOWER, "da_x", "da_y")),
    "SVM": FeatureManifest("SVM", _drop(_NON_FOLLOWER, "da_y") + (
        "v_nb_x", "v_nb_y", "a_nb_x", "a_nb_y",
        "dx_b", "dy_b", "dv_x_b", "dv_y_b",
        "dv_nb_u_x", "dv_nb_u_y", "drac_u_b_x")),
}

DEFAULT_SIGMAS = UncertaintySigmas()


def _neighbour(frame: States, neighbour_index: int):
    try:
        return frame.neighbours[neighbour_index]
    except IndexError:
        raise IndexError(
            f"frame has {len(frame.neighbours)} neighbours, "
            f"index {neighbour_index} requested") from None


def relative_kinematics(frame: States, neighbour_index: int = 0):
    """Centre offsets and signed approach rates for one neighbour.

    Returns (dx, dy, dv_x, dv_y, da_x, da_y); offsets are magnitudes and
    rates are positive exactly when the centre gap on that axis shrinks.
    """
    s = frame.subject
    n = _neighbour(frame, neighbour_index)
    off_x = n.x - s.x
    off_y = n.y - s.y
    sx = np.sign(off_x)
    sy = np.sign(off_y)
    return (np.abs(off_x), np.abs(off_y),
            sx * (s.vx - n.vx), sy * (s.vy - n.vy),
            sx * (s.ax - n.ax), sy * (s.ay - n.ay))


def uncertain_velocity(vehicle_role: str, frame: States,
                       sigma_x: float, sigma_y: float,
                       neighbour_index: int = 0):
    """Velocity-uncertainty vector pointed at the other vehicle.

    ``vehicle_role`` is "subject" or "neighbour"; the vector sits on this
    vehicle and points along the centre line toward the other one, with
    per-axis magnitudes sigma_x, sigma_y (world frame, signed components).
    """
    if sigma_x < 0 or sigma_y < 0:
        raise ValueError("sigmas must be nonnegative")
    s = frame.subject
    n = _neighbour(frame, neighbour_index)
    if vehicle_role == "subject":
        here, there = s, n
    elif vehicle_role == "neighbour":
        here, there = n, s
    else:
        raise ValueError(f"vehicle_role must be subject or neighbour, got {vehicle_role!r}")
    dx = there.x - here.x
    dy = there.y - here.y
    norm = np.hypot(dx, dy)
    if np.any(norm == 0.0):
        raise ValueError("coincident centres leave the direction undefined")
    return sigma_x * dx / norm, sigma_y * dy / norm


def drac(v_s, v_n, gap, gap_rate):
    """Deceleration needed to avoid the collision a closing gap implies."""
    d = v_s - v_n
    return np.where(gap_rate >= 0.0, 0.0, d * d / np.maximum(gap, GAP_FLOOR))


def _pair_features(frame: States, neighbour_index: int) -> tuple:
    """The subject's uncertain velocity against one neighbour, then that pair's
    quantities in ``_NEIGHBOUR_FEATURES`` order (DRACs as ``drac_components``)."""
    s = frame.subject
    n = _neighbour(frame, neighbour_index)
    dx, dy, dv_x, dv_y, da_x, da_y = relative_kinematics(frame, neighbour_index)
    sig = DEFAULT_SIGMAS
    su = uncertain_velocity("subject", frame, sig.s_x, sig.s_y, neighbour_index)
    nu = uncertain_velocity("neighbour", frame, sig.n_x, sig.n_y, neighbour_index)
    # per-axis bumper-to-bumper gaps, clamped at zero
    gap_x = np.maximum(dx - 0.5 * (s.length + n.length), 0.0)
    gap_y = np.maximum(dy - 0.5 * (s.width + n.width), 0.0)
    rel_u_x = su[0] - nu[0]  # opposite directions add up
    rel_u_y = su[1] - nu[1]
    # dv > 0 means closing, so the gap rate is its negation
    return su, (n.vx, n.vy, n.ax, n.ay, dx, dy, dv_x, dv_y, da_x, da_y, *nu,
                drac(rel_u_x, 0.0, gap_x, -np.abs(rel_u_x)),
                drac(rel_u_y, 0.0, gap_y, -np.abs(rel_u_y)),
                drac(s.vx, n.vx, gap_x, -dv_x), drac(s.vy, n.vy, gap_y, -dv_y))


def drac_components(frame: States, neighbour_index: int = 0):
    """(DRAC_r_x, DRAC_r_y, DRAC_u_x, DRAC_u_y) for one neighbour.

    The r-variants use real per-axis velocities against bumper gaps; the
    u-variants replace the relative velocity with the combined uncertain
    component on that axis, which always closes the gap, so they are
    nonzero whenever there is any centre offset on the axis.
    """
    u_x, u_y, r_x, r_y = _pair_features(frame, neighbour_index)[1][-4:]
    return r_x, r_y, u_x, u_y


def frame_features(frame: States) -> dict:
    """Every vocabulary feature available for this frame (or every frame), by name."""
    s = frame.subject
    su, pair = _pair_features(frame, 0)
    out = {"v_s_x": s.vx, "v_s_y": s.vy, "a_s_x": s.ax, "a_s_y": s.ay,
           "dv_s_u_x": su[0], "dv_s_u_y": su[1], **dict(zip(_NEIGHBOUR_FEATURES, pair))}
    if len(frame.neighbours) > 1:
        out.update(zip(FOLLOWER_FEATURES, _pair_features(frame, 1)[1]))
    return out


def build_features(trajectory: EventTrajectory, manifest: FeatureManifest) -> np.ndarray:
    """Assemble the (n_frames, D) feature matrix in manifest order."""
    if scenario_family(trajectory.scenario) != manifest.scenario:
        raise ValueError(
            f"manifest is for {manifest.scenario}, trajectory is "
            f"{trajectory.scenario}")
    feats = frame_features(trajectory)
    rows = np.column_stack([feats[name] for name in manifest.names])
    if not np.all(np.isfinite(rows)):
        raise ValueError("non-finite feature values")
    return rows


# ---------------------------------------------------------------------------
# normalization


@dataclass(frozen=True)
class NormStats:
    names: tuple
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        if not (len(self.names) == self.mean.size == self.std.size):
            raise ValueError("names, mean and std must agree in length")
        for name in ("mean", "std"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite for every feature")
        if np.any(self.std <= 0):
            raise ValueError("std must be positive for every feature")


def zscore_fit(matrix: np.ndarray, names) -> NormStats:
    """Column means and stds of the training matrix; constant columns fail."""
    matrix = np.asarray(matrix, dtype=float)
    names = tuple(names)
    if matrix.ndim != 2 or matrix.shape[1] != len(names):
        raise ValueError("matrix columns must match names")
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    flat = [names[j] for j in np.nonzero(std == 0.0)[0]]
    if flat:
        raise ValueError(f"zero-variance features cannot be normalized: {flat}")
    return NormStats(names, mean, std)


def zscore_apply(matrix: np.ndarray, stats: NormStats) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape[-1] != len(stats.names):
        raise ValueError("matrix columns must match the fitted stats")
    return (matrix - stats.mean) / stats.std
