#!/usr/bin/env python3
"""Analytic risk models on one event per scenario family.

Simulates a representative merge, hard-brake, lane-change and follower
event, runs PCAD and DRF over each, rescales both jointly onto the 0-10
rating scale and prints where each model sees the most danger.  With
matplotlib installed the curves are also saved as risk_models.png.
"""

import numpy as np

from riskdecode.calibration import minmax_rescale
from riskdecode.risk_models import (DrfParams, PairTable, PcadParams, drf_risk_series,
                                    pcad_risk_series)
from riskdecode.scenarios import event_by_id, simulate_event

EVENTS = {
    "merge (15 m gap)": 14,
    "hard braking (-5 m/s^2)": 41,
    "slow lane change": 57,
    "close follower": 92,
}


def rescaled_series(trajectories, series_fn, params):
    """Model output per event, min-max scaled jointly across all of them."""
    table = PairTable(list(trajectories.values()))
    return dict(zip(trajectories, table.split(minmax_rescale(series_fn(table, params)))))


def main():
    trajectories = {}
    for label, eid in EVENTS.items():
        spec = event_by_id(eid)
        trajectories[label] = simulate_event(spec)
        print(f"{label}: event {eid}, {spec.scenario}, "
              f"cruise {spec.cruise_speed:.0f} km/h, "
              f"initial gap {spec.initial_distance:.0f} m")

    pcad = rescaled_series(trajectories, pcad_risk_series, PcadParams())
    drf = rescaled_series(trajectories, drf_risk_series, DrfParams())

    print("\npeak risk moments (0-10 scale):")
    for label, traj in trajectories.items():
        kp = int(np.argmax(pcad[label]))
        kd = int(np.argmax(drf[label]))
        print(f"  {label:26s} PCAD {pcad[label][kp]:5.2f} at t={traj.t[kp]:5.1f} s"
              f"   DRF {drf[label][kd]:5.2f} at t={traj.t[kd]:5.1f} s")

    try:
        import matplotlib.pyplot as plt
    except ImportError:
        print("\nmatplotlib not installed, skipping the figure")
        return
    fig, axes = plt.subplots(2, 2, figsize=(10, 6), sharey=True)
    for ax, (label, traj) in zip(axes.ravel(), trajectories.items()):
        ax.plot(traj.t, pcad[label], label="PCAD", lw=1.5)
        ax.plot(traj.t, drf[label], label="DRF", lw=1.5)
        ax.set_title(label, fontsize=10)
        ax.set_xlabel("t [s]")
    axes[0, 0].set_ylabel("risk (0-10)")
    axes[0, 0].legend()
    fig.tight_layout()
    fig.savefig("risk_models.png", dpi=120)
    print("\nwrote risk_models.png")


if __name__ == "__main__":
    main()
