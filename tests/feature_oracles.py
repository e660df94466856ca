"""Per-neighbour features written out block by block, as ``features`` once computed them.

The neighbour and the follower each get their own hand-written block, and the
DRACs derive their gaps and velocities again.  Only the public formulas
``relative_kinematics``, ``uncertain_velocity`` and ``drac`` are shared with the
package, so ``features.frame_features`` and ``features.drac_components``, which
name one kernel's output through parallel tuples, must match these bit for bit.
"""

import numpy as np

from riskdecode.features import DEFAULT_SIGMAS, drac, relative_kinematics, uncertain_velocity


def drac_components(frame, neighbour_index=0):
    """(DRAC_r_x, DRAC_r_y, DRAC_u_x, DRAC_u_y) for one neighbour."""
    s = frame.subject
    n = frame.neighbours[neighbour_index]
    gap_x = np.maximum(np.abs(n.x - s.x) - 0.5 * (s.length + n.length), 0.0)
    gap_y = np.maximum(np.abs(n.y - s.y) - 0.5 * (s.width + n.width), 0.0)
    _, _, dv_x, dv_y, _, _ = relative_kinematics(frame, neighbour_index)
    r_x = drac(s.vx, n.vx, gap_x, -dv_x)
    r_y = drac(s.vy, n.vy, gap_y, -dv_y)

    sig = DEFAULT_SIGMAS
    su = uncertain_velocity("subject", frame, sig.s_x, sig.s_y, neighbour_index)
    nu = uncertain_velocity("neighbour", frame, sig.n_x, sig.n_y, neighbour_index)
    rel_u_x = su[0] - nu[0]
    rel_u_y = su[1] - nu[1]
    u_x = drac(rel_u_x, 0.0, gap_x, -np.abs(rel_u_x))
    u_y = drac(rel_u_y, 0.0, gap_y, -np.abs(rel_u_y))
    return r_x, r_y, u_x, u_y


def frame_features(frame):
    """Every vocabulary feature available for this frame (or every frame), by name."""
    s = frame.subject
    n = frame.neighbours[0]
    dx, dy, dv_x, dv_y, da_x, da_y = relative_kinematics(frame, 0)
    sig = DEFAULT_SIGMAS
    su = uncertain_velocity("subject", frame, sig.s_x, sig.s_y, 0)
    nu = uncertain_velocity("neighbour", frame, sig.n_x, sig.n_y, 0)
    r_x, r_y, u_x, u_y = drac_components(frame, 0)
    out = {
        "v_s_x": s.vx, "v_s_y": s.vy, "a_s_x": s.ax, "a_s_y": s.ay,
        "v_n_x": n.vx, "v_n_y": n.vy, "a_n_x": n.ax, "a_n_y": n.ay,
        "dx": dx, "dy": dy, "dv_x": dv_x, "dv_y": dv_y,
        "da_x": da_x, "da_y": da_y,
        "dv_s_u_x": su[0], "dv_s_u_y": su[1],
        "dv_n_u_x": nu[0], "dv_n_u_y": nu[1],
        "drac_u_x": u_x, "drac_u_y": u_y,
        "drac_r_x": r_x, "drac_r_y": r_y,
    }
    if len(frame.neighbours) > 1:
        b = frame.neighbours[1]
        dx_b, dy_b, dv_x_b, dv_y_b, da_x_b, da_y_b = relative_kinematics(frame, 1)
        bu = uncertain_velocity("neighbour", frame, sig.n_x, sig.n_y, 1)
        rb_x, rb_y, ub_x, ub_y = drac_components(frame, 1)
        out.update({
            "v_nb_x": b.vx, "v_nb_y": b.vy, "a_nb_x": b.ax, "a_nb_y": b.ay,
            "dx_b": dx_b, "dy_b": dy_b,
            "dv_x_b": dv_x_b, "dv_y_b": dv_y_b,
            "da_x_b": da_x_b, "da_y_b": da_y_b,
            "dv_nb_u_x": bu[0], "dv_nb_u_y": bu[1],
            "drac_u_b_x": ub_x, "drac_u_b_y": ub_y,
            "drac_r_b_x": rb_x, "drac_r_b_y": rb_y,
        })
    return out
