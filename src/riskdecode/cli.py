"""Command-line front end for the risk-decoding pipeline.

Each stage command runs one entry of ``pipeline.STAGES`` on the artifacts
under --out, and ``all`` runs every entry in order.  A stage option comes
from its flag, else from the --config JSON, else from the default in the
stage's function.  A flag that sets no option of the stage is an error.
The config may set every stage option except the --scenario and --events
selections; any other key is an error, and so is a count (draws, epochs,
n_permutations, participants) that is not a positive integer, a
learning_rate that is not a positive finite number, a dataset that is not a
string, and a profile, manifests or bounds object that names a column, network
group or model outside its own, or maps one to a value of the wrong type
(profile: strings; manifests: lists of strings; bounds: objects of [low, high]
finite number pairs).  ``ingest``
and ``all`` read ratings from the positional path, else the config's
``dataset``, else ``$RISKDECODE_DATA_DIR/ratings.csv``; --synthetic writes
rehearsal ratings instead.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

from . import pipeline
from .calibration import MODEL_DEFAULTS
from .mlp import TrainingDiverged
from .reconstruction import RATINGS_COLUMNS

log = logging.getLogger("riskdecode")

# --scenario and --events select part of the catalog, which only a flag does
CONFIG_KEYS = pipeline.OPTIONS - {"scenario", "events"}
# the flags that set a stage option of the same name (--lr sets learning_rate)
OPTION_FLAGS = ("seed", "scenario", "draws", "epochs", "learning_rate", "events")
# config keys that count something; a JSON true or 2.5 would reach the stages as a count
COUNT_KEYS = ("draws", "epochs", "n_permutations", "participants")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config {path} is not JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    unknown = sorted(set(config) - CONFIG_KEYS)
    if unknown:
        raise ValueError(f"config {path} has unknown keys {unknown}; "
                         f"known keys: {sorted(CONFIG_KEYS)}")
    for key in COUNT_KEYS:
        value = config.get(key, 1)
        if type(value) is not int or value < 1:
            raise ValueError(f"config {path}: {key} must be a positive integer "
                             f"(was {json.dumps(value)})")
    rate = config.get("learning_rate", 1.0)
    if type(rate) not in (int, float) or not 0 < rate < math.inf:
        raise ValueError(f"config {path}: learning_rate must be a positive finite number "
                         f"(was {json.dumps(rate)})")
    if type(config.get("dataset", "")) is not str:
        raise ValueError(f"config {path}: dataset must be a string "
                         f"(was {json.dumps(config['dataset'])})")

    def is_pair(v) -> bool:  # [low, high]
        return type(v) is list and len(v) == 2 and all(
            type(b) in (int, float) and math.isfinite(b) for b in v)

    for key, names, valid, want in (
            ("profile", RATINGS_COLUMNS, lambda v: type(v) is str, "strings"),
            ("manifests", pipeline.NETWORK_GROUPS,
             lambda v: type(v) is list and all(type(s) is str for s in v), "lists of strings"),
            ("bounds", MODEL_DEFAULTS, lambda v: type(v) is dict and all(map(is_pair, v.values())),
             "objects of [low, high] finite number pairs")):
        value = config.get(key, {})
        if type(value) is not dict or not set(value) <= set(names) or not all(
                map(valid, value.values())):
            raise ValueError(f"config {path}: {key} must map any of {', '.join(names)} "
                             f"to {want} (was {json.dumps(value)})")
    return config


def _dataset(args, options: dict) -> Path | None:
    """The ratings file ``ingest`` reads; None asks for rehearsal ratings."""
    given = args.ratings or options.get("dataset")
    if args.synthetic:
        if given:
            raise SystemExit(f"--synthetic and the ratings path {given} both name a "
                             "ratings source; give one")
        return None
    if given:
        return Path(given)
    data_dir = os.environ.get("RISKDECODE_DATA_DIR")
    if data_dir:
        return Path(data_dir) / "ratings.csv"
    raise SystemExit("ingest needs a ratings path, a config 'dataset' entry, "
                     "RISKDECODE_DATA_DIR or --synthetic")


def _log_train(summary: dict) -> None:
    for group, entry in sorted(summary.items()):
        log.info("%s: train RMSE %.4f validation RMSE %.4f", group,
                 entry["final_train_rmse"], entry["final_val_rmse"])


def _log_calibrate(results: dict) -> None:
    for model, res in results.items():
        log.info("%s: best RMSE %.4f (default %.4f)", model,
                 res.best_rmse, res.trace[0]["rmse"])


# what each stage command logs of its result
SUMMARIES = {
    "generate": lambda path: log.info("catalog written to %s", path),
    "ingest": lambda index: log.info(
        "ingested %d ratings from %d participants (%d invalid rows)",
        index.total_ratings, index.n_participants, index.invalid_rows),
    "reconstruct": lambda path: log.info("curves written to %s", path),
    "features": lambda paths: log.info("feature tables written for %d networks", len(paths)),
    "train": _log_train,
    "predict": lambda path: log.info("predictions written to %s", path),
    "calibrate": _log_calibrate,
    "explain": lambda path: log.info("attributions written to %s", path),
    "report": lambda result: log.info("report bundle complete: %d artifacts",
                                      result["artifacts"]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskdecode",
        description="Perceived-risk modeling pipeline for automated driving events.")
    parser.add_argument("stage", choices=(*pipeline.STAGES, "all"),
                        help="pipeline stage to run")
    parser.add_argument("ratings", nargs="?", default=None,
                        help="ratings CSV (ingest and all)")
    parser.add_argument("--out", default="runs", help="output directory")
    parser.add_argument("--seed", type=int, help="run seed")
    parser.add_argument("--scenario", help="restrict generate/train to the events of one "
                        "family, scenario or network group")
    parser.add_argument("--config", help="JSON config overrides")
    parser.add_argument("--synthetic", action="store_true",
                        help="generate rehearsal ratings before ingesting")
    parser.add_argument("--draws", type=int, help="calibration draw count override")
    parser.add_argument("--epochs", type=int, help="training epoch override")
    parser.add_argument("--lr", type=float, dest="learning_rate", metavar="LR",
                        help="training learning-rate override")
    parser.add_argument("--events", type=int, nargs="*", help="event ids to explain")
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def _stray_flags(args, flags: dict, stages) -> list:
    """The flags given that set no option of any of ``stages``, as typed."""
    taken = {"seed"}.union(*(pipeline.STAGES[stage][1] for stage in stages))
    stray = ["--lr" if k == "learning_rate" else f"--{k}" for k in flags if k not in taken]
    if "dataset" not in taken:  # --synthetic and the ratings path choose the dataset
        stray += ["--synthetic"] if args.synthetic else []
        stray += [f"the ratings path {args.ratings}"] if args.ratings else []
    return stray


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    flags = {k: getattr(args, k) for k in OPTION_FLAGS if getattr(args, k) is not None}
    if args.stage == "all" and args.scenario is not None:
        raise SystemExit("--scenario narrows generate and train only, and the stages "
                         "after them need every network; all cannot take it")
    stages = list(pipeline.STAGES) if args.stage == "all" else [args.stage]
    stray = _stray_flags(args, flags, stages)
    if stray:
        raise SystemExit(f"{args.stage} does not take {', '.join(stray)}")
    out = Path(args.out)

    try:
        if args.seed is not None and args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer (was {args.seed})")
        options = {**_load_config(args.config), **flags}
        if "ingest" in stages:
            options["dataset"] = _dataset(args, options)
        for stage in stages:
            SUMMARIES[stage](pipeline.run_stage(stage, out, options))
    except (FileNotFoundError, ValueError, TrainingDiverged) as exc:
        log.error("%s", exc)
        return 1
    if args.stage == "all":
        log.info("full pipeline complete under %s", out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
