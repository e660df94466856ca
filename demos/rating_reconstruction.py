#!/usr/bin/env python3
"""From a handful of discrete ratings back to a continuous risk curve.

Takes the planted ground truth for one hard-braking event, lets a single
synthetic rater score its clips on the integer 0-10 scale, and rebuilds
the continuous curve with each interpolation method.  With five anchors on
a single pulse the piecewise-linear variant is competitive on raw RMSE;
what the shape-preserving default buys is a smooth curve that never swings
past the rated scores, while the quadratic visibly overshoots.  The figure
(if matplotlib is around) makes that difference plain.
"""

import numpy as np

from riskdecode.reconstruction import load_alignment_table, reconstruct_event
from riskdecode.scenarios import event_by_id
from riskdecode.synthetic import planted_truth, synthetic_ratings

EVENT_ID = 41  # hard braking, mid intensity


def main():
    spec = event_by_id(EVENT_ID)
    truth = planted_truth()[EVENT_ID]
    # one rater, so the rating column runs clip by clip
    ratings = synthetic_ratings({EVENT_ID: truth}, n_participants=1, seed=1)["rating"].tolist()
    print(f"event {EVENT_ID} ({spec.scenario}): one rater's clip scores {ratings}")

    curves = {}
    lo, hi = min(ratings), max(ratings)
    for method in ("pchip", "linear", "quadratic"):
        # the event's ratings as a participants × clips matrix: here one row
        curve = reconstruct_event(EVENT_ID, [ratings], method)
        value = curve.value[0]
        rmse = float(np.sqrt(np.mean((value - truth) ** 2)))
        overshoot = float(np.maximum(value - hi, lo - value).max())
        curves[method] = curve
        print(f"  {method:10s} RMSE vs truth: {rmse:.3f}   "
              f"worst excursion past the ratings: {max(overshoot, 0.0):.3f}")

    try:
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed, skipping the figure")
        return
    grid = curves["pchip"].t
    fig, ax = plt.subplots(figsize=(9, 4))
    ax.plot(grid, truth, "k--", lw=1.2, label="planted truth")
    for method, curve in curves.items():
        ax.plot(curve.t, curve.value[0], lw=1.4, label=method)
    moments = [t for t, _, dup in load_alignment_table().moments(EVENT_ID) if dup == 0]
    ax.plot(moments, ratings, "o", ms=5, color="tab:red", label="clip ratings")
    ax.set_xlabel("t [s]")
    ax.set_ylabel("perceived risk (0-10)")
    ax.legend()
    fig.tight_layout()
    fig.savefig("reconstruction.png", dpi=120)
    print("wrote reconstruction.png")


if __name__ == "__main__":
    main()
