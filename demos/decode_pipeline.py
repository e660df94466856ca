#!/usr/bin/env python3
"""Small end-to-end run: synthetic raters in, decoded risk factors out.

Runs every pipeline stage into --out with a reduced budget (fewer raters,
epochs and calibration draws than the defaults) and then reads the
artifacts back to summarize what the networks learned and which features
drive their predictions.
"""

import argparse
import json
from pathlib import Path

from riskdecode import pipeline


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="demo_run", help="artifact directory")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--participants", type=int, default=8)
    ap.add_argument("--epochs", type=int, default=150)
    ap.add_argument("--draws", type=int, default=50)
    args = ap.parse_args()

    out = Path(args.out)
    result = pipeline.run_all(out, args.seed,
                              participants=args.participants,
                              draws=args.draws, epochs=args.epochs,
                              learning_rate=0.005, n_permutations=100)

    index = result["ingest"]
    print(f"\ningested {index.total_ratings} synthetic ratings from "
          f"{index.n_participants} raters ({index.dropped_pairs} dropped "
          f"by the agreement filter)")

    print("\nper-network validation RMSE:")
    for group, entry in sorted(result["train"].items()):
        print(f"  {group:14s} {entry['final_val_rmse']:.3f} "
              f"({entry['n_rows']} frames, {entry['input_dim']} features)")

    print("\ncalibrated baselines (RMSE against the mean rated curve):")
    for model, res in result["calibrate"].items():
        print(f"  {model:5s} default {res.trace[0]['rmse']:.3f} -> "
              f"best {res.best_rmse:.3f} after {args.draws} draws")

    stats = result["report"]["comparison"].scenario_stats
    families = sorted({fam for fam, _ in stats})
    print("\nmedian absolute error per scenario family:")
    header = "".join(f"{m:>8s}" for m in ("MLP", "PCAD", "DRF"))
    print(f"  {'':6s}{header}")
    for fam in families:
        row = "".join(f"{stats[(fam, m)][0]:8.3f}" for m in ("MLP", "PCAD", "DRF"))
        print(f"  {fam:6s}{row}")

    print("\ntop risk factors per network (mean |attribution|):")
    ranking: dict = {}
    table = pipeline.read_csv(out / "globals.csv")
    for group, rank, name, score in zip(table["scenario"], table["rank"],
                                        table["feature"], table["mean_abs_phi"]):
        ranking.setdefault(group, []).append((rank, name, score))
    for group in sorted(ranking):
        top = sorted(ranking[group])[:3]
        labels = ", ".join(f"{name} ({score:.2f})" for _, name, score in top)
        print(f"  {group:14s} {labels}")

    manifest = json.loads((out / "manifest_outputs.json").read_text())
    print(f"\n{len(manifest['artifacts'])} artifacts under {out}/")


if __name__ == "__main__":
    main()
