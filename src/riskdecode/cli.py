"""Command-line front end for the risk-decoding pipeline.

Stages read and write deterministic artifacts under --out; a config JSON
can override stage knobs (participants, draws, epochs, manifests,
calibration bounds, ingest column profile).  The RISKDECODE_DATA_DIR
environment variable provides the default location of an external
ratings dataset.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import pipeline
from .mlp import TrainingDiverged

log = logging.getLogger("riskdecode")

STAGES = ("generate", "ingest", "reconstruct", "features", "calibrate",
          "train", "predict", "explain", "report", "all")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    return config


def _pick(value, config: dict, key: str, default=None):
    """The command-line value when one was given (0 included), else the config's."""
    return config.get(key, default) if value is None else value


def _default_ratings(args, config) -> Path:
    if args.ratings:
        return Path(args.ratings)
    if config.get("dataset"):
        return Path(config["dataset"])
    data_dir = os.environ.get("RISKDECODE_DATA_DIR")
    if data_dir:
        return Path(data_dir) / "ratings.csv"
    raise SystemExit("ingest needs a ratings path, a config 'dataset' entry, "
                     "or RISKDECODE_DATA_DIR")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskdecode",
        description="Perceived-risk modeling pipeline for automated driving events.")
    parser.add_argument("stage", choices=STAGES, help="pipeline stage to run")
    parser.add_argument("ratings", nargs="?", default=None,
                        help="ratings CSV (ingest stage)")
    parser.add_argument("--out", default="runs", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="run seed")
    parser.add_argument("--scenario", default=None,
                        help="restrict generate/train to one scenario or group")
    parser.add_argument("--config", default=None, help="JSON config overrides")
    parser.add_argument("--synthetic", action="store_true",
                        help="generate rehearsal ratings before ingesting")
    parser.add_argument("--draws", type=int, default=None,
                        help="calibration draw count override")
    parser.add_argument("--epochs", type=int, default=None,
                        help="training epoch override")
    parser.add_argument("--lr", type=float, default=None,
                        help="training learning-rate override")
    parser.add_argument("--events", type=int, nargs="*", default=None,
                        help="event ids to explain")
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    config = _load_config(args.config)
    out = Path(args.out)
    seed = args.seed

    try:
        if args.stage == "generate":
            path = pipeline.run_generate(out, seed, args.scenario)
            log.info("catalog written to %s", path)
        elif args.stage == "ingest":
            if args.synthetic:
                ratings = pipeline.write_synthetic_ratings(
                    out, seed, config.get("participants", 12))
            else:
                ratings = _default_ratings(args, config)
            index = pipeline.run_ingest(out, ratings, seed, config.get("profile"))
            log.info("ingested %d ratings from %d participants (%d invalid rows)",
                     index.total_ratings, index.n_participants, index.invalid_rows)
        elif args.stage == "reconstruct":
            path = pipeline.run_reconstruct(out, seed, config.get("method", "pchip"))
            log.info("curves written to %s", path)
        elif args.stage == "features":
            paths = pipeline.run_features(out, seed, config.get("manifests"))
            log.info("feature tables written for %d networks", len(paths))
        elif args.stage == "train":
            summary = pipeline.run_train(out, seed, args.scenario,
                                         _pick(args.epochs, config, "epochs"),
                                         _pick(args.lr, config, "learning_rate"))
            for group, entry in sorted(summary.items()):
                log.info("%s: train RMSE %.4f validation RMSE %.4f", group,
                         entry["final_train_rmse"], entry["final_val_rmse"])
        elif args.stage == "predict":
            path = pipeline.run_predict(out, seed)
            log.info("predictions written to %s", path)
        elif args.stage == "calibrate":
            draws = _pick(args.draws, config, "draws", 500)
            results = pipeline.run_calibrate(out, seed, draws, config.get("bounds"))
            for model, res in results.items():
                log.info("%s: best RMSE %.4f (default %.4f)", model,
                         res.best_rmse, res.trace[0]["rmse"])
        elif args.stage == "explain":
            path = pipeline.run_explain(out, seed, args.events,
                                        config.get("n_permutations", 200))
            log.info("attributions written to %s", path)
        elif args.stage == "report":
            result = pipeline.run_report(out, seed)
            log.info("report bundle complete: %d artifacts", result["artifacts"])
        else:
            ratings = Path(args.ratings) if args.ratings else None
            pipeline.run_all(out, seed, ratings,
                             n_participants=config.get("participants", 12),
                             draws=_pick(args.draws, config, "draws", 300),
                             epochs=_pick(args.epochs, config, "epochs"),
                             learning_rate=_pick(args.lr, config, "learning_rate"),
                             n_permutations=config.get("n_permutations", 200))
            log.info("full pipeline complete under %s", out)
    except (FileNotFoundError, ValueError, TrainingDiverged) as exc:
        log.error("%s", exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
