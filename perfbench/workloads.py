"""Workload definitions shared by the orchestrator and the pass worker.

A workload is a list of pipeline stages split into untimed set-up stages and
timed stages, plus the budgets those stages run at.  Every input is derived
from the run seed: the synthetic ratings file is generated from it and every
stage receives it as the pipeline seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

# Stage order of ``riskdecode all --synthetic`` and of the rehearsal fixture.
STAGE_ORDER = ("generate", "synthesize", "ingest", "reconstruct", "features",
               "train", "predict", "calibrate", "explain", "report")

# Learning rate the rehearsal fixture trains with on synthetic ratings.
REHEARSAL_LEARNING_RATE = 0.005


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: tuple
    timed: tuple
    participants: int
    epochs: int = 2
    draws: int = 2
    permutations: int = 4
    probes: bool = False
    passes: int = 1  # least number of untraced full passes per run

    def params(self) -> dict:
        out = asdict(self)
        out["learning_rate"] = REHEARSAL_LEARNING_RATE
        return out


WORKLOADS = {w.name: w for w in (
    # Data path: every stage at the smallest model budget, so catalog
    # simulation, per-frame features, CSV write/parse and digests dominate.
    Workload(
        name="rehearsal",
        why="all ten stages at the smallest model budget; the data path "
            "(simulation, features, CSV IO) dominates",
        setup=(),
        timed=STAGE_ORDER,
        participants=16, epochs=2, draws=2, permutations=4),
    # Ingest at scale: the timed stages run no numeric layer (mlp, explain,
    # risk_models, calibration), so it is the bypass workload for numeric
    # work and the only one where per-row catalog lookups dominate.
    Workload(
        name="ratings_scale",
        why="ingest and reconstruct a large ratings file; the timed stages run "
            "no numeric model layer, catalog lookups per row dominate",
        setup=("generate", "synthesize"),
        timed=("ingest", "reconstruct"),
        participants=32, probes=True),
    # Numeric loops: training (mean and variance phases), PCAD and DRF
    # calibration draws, exact and sampled Shapley on a prepared run.  Its
    # two-thread BLAS sections slow most when other processes share the
    # cores, so each run times two passes.
    Workload(
        name="model_fit",
        why="train, predict, calibrate and explain at a larger model budget on a "
            "run directory prepared in set-up; the numeric loops dominate",
        setup=("generate", "synthesize", "ingest", "reconstruct", "features"),
        timed=("train", "predict", "calibrate", "explain"),
        participants=16, epochs=4, draws=12, permutations=8, passes=2),
)}


def run_stage(pipeline, stage: str, out, seed: int, w: Workload):
    """Call the public pipeline function behind one stage."""
    if stage == "generate":
        return pipeline.run_generate(out, seed)
    if stage == "synthesize":
        return pipeline.write_synthetic_ratings(out, seed, w.participants)
    if stage == "ingest":
        return pipeline.run_ingest(out, out / "ratings.csv", seed)
    if stage == "reconstruct":
        return pipeline.run_reconstruct(out, seed)
    if stage == "features":
        return pipeline.run_features(out, seed)
    if stage == "train":
        return pipeline.run_train(out, seed, epochs=w.epochs,
                                  learning_rate=REHEARSAL_LEARNING_RATE)
    if stage == "predict":
        return pipeline.run_predict(out, seed)
    if stage == "calibrate":
        return pipeline.run_calibrate(out, seed, w.draws)
    if stage == "explain":
        return pipeline.run_explain(out, seed, n_permutations=w.permutations)
    if stage == "report":
        return pipeline.run_report(out, seed)
    raise ValueError(f"unknown stage {stage!r}")
