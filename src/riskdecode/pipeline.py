"""Stage orchestration and deterministic artifact persistence.

Every stage reads only named upstream files, writes UTF-8 CSV/JSON with
floats at 6 decimals, and stamps each artifact with a header carrying the
tool version, the seed, and digests of its inputs.  Re-running a stage
with unchanged inputs reproduces its outputs byte for byte; no artifact
embeds timestamps or machine state.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .calibration import (MODEL_DEFAULTS, MODEL_SERIES, CalibrationJob, calibrate,
                          compare_models, joint_rescale)
from .explain import Baseline, explain_frames, global_importance, mean_head
from .features import (DEFAULT_MANIFESTS, FeatureManifest, NormStats, build_features,
                       zscore_apply, zscore_fit)
from .mlp import MlpConfig, MlpWeights, mlp_predict, mlp_train
from .reconstruction import (RatingRecord, aggregate_curves, filter_ratings,
                             load_alignment_table, reconstruct_participant)
from .scenarios import DT, catalog_trajectory, enumerate_events, event_by_id
from .synthetic import planted_truth, synthetic_ratings

log = logging.getLogger(__name__)

# One network per scenario family, except LC which trains per sub-category
# with the two normal lateral speeds pooled.
NETWORK_GROUPS = {
    "MB": ("MB",),
    "HB": ("HB",),
    "SVM": ("SVM",),
    "LC_normal": ("LC_normal_slow", "LC_normal_fast"),
    "LC_fragmented": ("LC_fragmented",),
    "LC_aborted": ("LC_aborted",),
}

RATINGS_COLUMNS = ("participant_id", "event_id", "clip_index", "rating")


@dataclass(frozen=True)
class DatasetIndex:
    total_ratings: int
    per_family: dict
    n_participants: int
    invalid_rows: int
    dropped_pairs: int


# ---------------------------------------------------------------------------
# deterministic file IO


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:12]


def _header(seed: int, inputs: Sequence[Path]) -> str:
    tags = ",".join(f"{p.name}:{_digest(p)}" for p in inputs) or "-"
    return f"# riskdecode {__version__} seed={seed} inputs={tags}"


def _fmt(value, precise: bool = False) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value)) if precise else f"{float(value):.6f}"
    return str(value)


def write_csv(path: Path, columns: Sequence[str], rows, seed: int,
              inputs: Sequence[Path] = (), precise: bool = False) -> Path:
    """Stamped CSV; ``precise`` keeps full float precision for model state.

    Plot-facing exports round to 6 decimals, but numeric state that is
    read back by later stages (feature matrices, normalization stats,
    network weights) must survive the round trip: some catalog features
    vary only at the 1e-7 level and rounding would flatten them.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_header(seed, inputs) + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v, precise) for v in row])
    return path


def _jsonify(obj, precise: bool):
    if isinstance(obj, (float, np.floating)):
        return float(obj) if precise else round(float(obj), 6)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist(), precise)
    if isinstance(obj, dict):
        return {k: _jsonify(v, precise) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v, precise) for v in obj]
    return obj


def write_json(path: Path, payload: dict, seed: int, inputs: Sequence[Path] = (),
               precise: bool = False) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    tags = ",".join(f"{p.name}:{_digest(p)}" for p in inputs) or "-"
    body = {"meta": {"tool": "riskdecode", "version": __version__,
                     "seed": seed, "inputs": tags}}
    body.update(_jsonify(payload, precise))
    path.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def read_csv(path: Path) -> list:
    """Rows of a stamped CSV as dicts, skipping the header comment."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def require(out: Path, name: str, stage: str) -> Path:
    path = out / name
    if not path.exists():
        raise FileNotFoundError(
            f"{name} is missing under {out}; run the {stage} stage first")
    return path


# ---------------------------------------------------------------------------
# catalog helpers


def _selected_events(scenario: str | None):
    specs = enumerate_events()
    if scenario is None:
        return specs
    chosen = [s for s in specs if scenario in (s.family, s.scenario)]
    if not chosen:
        raise ValueError(f"scenario selector {scenario!r} matches no events")
    return chosen


def _group_events(group: str):
    labels = NETWORK_GROUPS[group]
    return [s for s in enumerate_events() if s.scenario in labels or s.family in labels]


def _group_manifest(group: str, overrides=None) -> FeatureManifest:
    family = _group_events(group)[0].family
    if overrides and group in overrides:
        return FeatureManifest(family, tuple(overrides[group]))
    return DEFAULT_MANIFESTS[family]


# ---------------------------------------------------------------------------
# generate


def run_generate(out: Path, seed: int = 0, scenario: str | None = None) -> Path:
    out = Path(out)
    specs = _selected_events(scenario)
    events = []
    for spec in specs:
        events.append({
            "event_id": spec.event_id,
            "scenario": spec.scenario,
            "family": spec.family,
            "initial_distance": spec.initial_distance,
            "duration": spec.duration,
            "cruise_speed": spec.cruise_speed,
            "braking_intensity": spec.braking_intensity,
            "acc_category": spec.acc_category,
            "anchors": spec.timeline_anchors,
            "n_frames": spec.n_frames,
        })
    write_json(out / "events.json", {"events": events}, seed)
    return out / "events.json"


# ---------------------------------------------------------------------------
# synthetic ratings + ingest


def write_synthetic_ratings(out: Path, seed: int = 0, n_participants: int = 12,
                            rater_sigma: float = 0.5) -> Path:
    """Materialize the offline rehearsal ratings file."""
    out = Path(out)
    truth = planted_truth()
    records = synthetic_ratings(truth, n_participants=n_participants, seed=seed,
                                rater_sigma=rater_sigma)
    rows = [(r.participant_id, r.event_id, r.clip_index, r.rating) for r in records]
    return write_csv(out / "ratings.csv", RATINGS_COLUMNS, rows, seed)


def _read_ratings_file(path: Path, profile: Mapping[str, str] | None):
    """Yield (line_number, RatingRecord-or-error) for every data row."""
    mapping = {c: c for c in RATINGS_COLUMNS}
    if profile:
        mapping.update(profile)
    with open(path, encoding="utf-8") as fh:
        raw = fh.readlines()
    lines = [(i + 1, ln) for i, ln in enumerate(raw) if not ln.startswith("#")]
    if not lines:
        raise ValueError(f"{path} holds no CSV content")
    reader = csv.DictReader([ln for _, ln in lines])
    missing = [mapping[c] for c in RATINGS_COLUMNS if mapping[c] not in (reader.fieldnames or [])]
    if missing:
        raise ValueError(f"{path} lacks required columns {missing} "
                         f"(line {lines[0][0]}: {lines[0][1].strip()!r})")
    table = load_alignment_table()
    known = set(table.event_ids())
    for offset, rec in enumerate(reader):
        line_no = lines[offset + 1][0]
        try:
            pid = int(rec[mapping["participant_id"]])
            eid = int(rec[mapping["event_id"]])
            clip = int(rec[mapping["clip_index"]])
            rating = int(rec[mapping["rating"]])
            if eid not in known:
                raise ValueError(f"unknown event_id {eid}")
            if not 1 <= clip <= table.n_slots(eid):
                raise ValueError(f"clip_index {clip} outside event {eid}'s slots")
            yield line_no, RatingRecord(pid, eid, clip, rating)
        except (KeyError, TypeError, ValueError) as exc:
            yield line_no, exc


def _complete_pairs(rows, table):
    """Split validated (line, record) rows into kept records and (line, reason) rejects.

    A (participant, event) pair is kept only if it rates clips 1..n_slots once each.
    """
    clips: dict = {}
    for _, r in rows:
        clips.setdefault((r.participant_id, r.event_id), Counter())[r.clip_index] += 1
    faults = {}
    for (pid, eid), counts in clips.items():
        problems = [f"clip {c} {'missing' if counts[c] == 0 else 'repeated'}"
                    for c in range(1, table.n_slots(eid) + 1) if counts[c] != 1]
        if problems:
            faults[pid, eid] = f"participant {pid} event {eid} dropped: {', '.join(problems)}"
    kept = [r for _, r in rows if (r.participant_id, r.event_id) not in faults]
    return kept, [(line_no, faults[r.participant_id, r.event_id]) for line_no, r in rows
                  if (r.participant_id, r.event_id) in faults]


def run_ingest(out: Path, ratings_path: Path, seed: int = 0,
               profile: Mapping[str, str] | None = None) -> DatasetIndex:
    out = Path(out)
    ratings_path = Path(ratings_path)
    if not ratings_path.exists():
        raise FileNotFoundError(f"ratings file {ratings_path} does not exist")

    rows, invalid = [], []
    for line_no, item in _read_ratings_file(ratings_path, profile):
        if isinstance(item, RatingRecord):
            rows.append((line_no, item))
        else:
            invalid.append((line_no, str(item)))
    valid, incomplete = _complete_pairs(rows, load_alignment_table())
    invalid = sorted(invalid + incomplete)
    for line_no, reason in invalid[:20]:
        log.warning("ratings line %d rejected: %s", line_no, reason)
    if not valid:
        raise ValueError(f"{ratings_path} holds no valid rating rows")

    by_event: dict = {}
    for r in valid:
        by_event.setdefault(r.event_id, []).append(r)
    kept = []
    for eid in sorted(by_event):
        kept.extend(filter_ratings(by_event[eid]))
    dropped = len(valid) - len(kept)

    per_family: dict = {}
    for r in kept:
        fam = event_by_id(r.event_id).family
        per_family[fam] = per_family.get(fam, 0) + 1
    index = DatasetIndex(
        total_ratings=len(kept),
        per_family=per_family,
        n_participants=len({r.participant_id for r in kept}),
        invalid_rows=len(invalid),
        dropped_pairs=dropped,
    )

    rows = [(r.participant_id, r.event_id, r.clip_index, r.rating)
            for r in sorted(kept, key=lambda r: (r.event_id, r.participant_id, r.clip_index))]
    write_csv(out / "ratings_valid.csv", RATINGS_COLUMNS, rows, seed, [ratings_path])
    write_json(out / "dataset_index.json", {
        "total_ratings": index.total_ratings,
        "per_family": index.per_family,
        "n_participants": index.n_participants,
        "invalid_rows": index.invalid_rows,
        "invalid_detail": [{"line": n, "reason": msg} for n, msg in invalid[:50]],
        "dropped_pairs": index.dropped_pairs,
    }, seed, [ratings_path])
    return index


# ---------------------------------------------------------------------------
# reconstruct


def run_reconstruct(out: Path, seed: int = 0, method: str = "pchip") -> Path:
    out = Path(out)
    ratings = require(out, "ratings_valid.csv", "ingest")
    table = load_alignment_table()

    by_event: dict = {}
    for rec in read_csv(ratings):
        r = RatingRecord(int(rec["participant_id"]), int(rec["event_id"]),
                         int(rec["clip_index"]), int(rec["rating"]))
        by_event.setdefault(r.event_id, {}).setdefault(r.participant_id, []).append(r)

    rows = []
    for eid in sorted(by_event):
        curves = []
        for pid in sorted(by_event[eid]):
            recs = sorted(by_event[eid][pid], key=lambda r: r.clip_index)
            ratings_seq = [r.rating for r in recs]
            curves.append(reconstruct_participant(eid, ratings_seq, table, method))
        agg = aggregate_curves(curves)
        for k in range(agg.t.size):
            rows.append((eid, agg.t[k], agg.mean[k], agg.p25[k], agg.p75[k],
                         agg.std[k], agg.n_participants))
    return write_csv(out / "curves.csv",
                     ("event_id", "t", "mean", "p25", "p75", "std", "n_participants"),
                     rows, seed, [ratings])


# ---------------------------------------------------------------------------
# features


def run_features(out: Path, seed: int = 0,
                 manifest_overrides: Mapping[str, Sequence[str]] | None = None) -> dict:
    out = Path(out)
    events_json = require(out, "events.json", "generate")
    listed = {e["event_id"] for e in
              json.loads(events_json.read_text(encoding="utf-8"))["events"]}

    manifest_meta, norm_meta, paths = {}, {}, {}
    for group in NETWORK_GROUPS:
        specs = [s for s in _group_events(group) if s.event_id in listed]
        if not specs:
            # a matrix left by an earlier, wider run would outlive its normstats
            (out / f"features_{group}.csv").unlink(missing_ok=True)
            continue
        manifest = _group_manifest(group, manifest_overrides)
        blocks, rows = [], []
        for spec in specs:
            matrix = build_features(catalog_trajectory(spec.event_id), manifest)
            blocks.append(matrix)
            for k in range(matrix.shape[0]):
                rows.append((spec.event_id, k * DT, *matrix[k]))
        stats = zscore_fit(np.vstack(blocks), manifest.names)
        paths[group] = write_csv(out / f"features_{group}.csv",
                                 ("event_id", "t", *manifest.names), rows, seed,
                                 [events_json], precise=True)
        manifest_meta[group] = {"family": manifest.scenario,
                                "features": list(manifest.names)}
        norm_meta[group] = {"names": list(stats.names),
                            "mean": stats.mean, "std": stats.std}
    write_json(out / "manifest.json", {"groups": manifest_meta}, seed, [events_json])
    write_json(out / "normstats.json", {"groups": norm_meta}, seed, [events_json],
               precise=True)
    return paths


def _load_normstats(out: Path) -> dict:
    payload = json.loads((out / "normstats.json").read_text(encoding="utf-8"))
    stats = {}
    for group, entry in payload["groups"].items():
        stats[group] = NormStats(tuple(entry["names"]),
                                 np.array(entry["mean"], dtype=float),
                                 np.array(entry["std"], dtype=float))
    return stats


def _load_features(out: Path, group: str):
    """(event_ids, frame times, raw matrix) from one features CSV."""
    rows = read_csv(out / f"features_{group}.csv")
    names = [c for c in rows[0] if c not in ("event_id", "t")]
    eids = np.array([int(r["event_id"]) for r in rows])
    times = np.array([float(r["t"]) for r in rows])
    matrix = np.array([[float(r[c]) for c in names] for r in rows])
    return eids, times, matrix


def _load_mean_curves(out: Path) -> dict:
    curves: dict = {}
    for rec in read_csv(out / "curves.csv"):
        curves.setdefault(int(rec["event_id"]), []).append(float(rec["mean"]))
    return {eid: np.array(vals) for eid, vals in curves.items()}


# ---------------------------------------------------------------------------
# train / predict


def run_train(out: Path, seed: int = 0, scenario: str | None = None,
              epochs: int | None = None,
              learning_rate: float | None = None) -> dict:
    out = Path(out)
    curves_path = require(out, "curves.csv", "reconstruct")
    require(out, "normstats.json", "features")
    stats = _load_normstats(out)
    mean_curves = _load_mean_curves(out)

    groups = [g for g in NETWORK_GROUPS
              if scenario is None or scenario == g or scenario in NETWORK_GROUPS[g]]
    if not groups:
        raise ValueError(f"scenario selector {scenario!r} matches no network group")

    summary, log_rows = {}, []
    for group in groups:
        feats_path = require(out, f"features_{group}.csv", "features")
        eids, _, matrix = _load_features(out, group)
        targets = []
        for eid in sorted(set(eids)):
            if eid not in mean_curves:
                raise ValueError(f"curves.csv lacks event {eid} needed by {group}")
            targets.append(mean_curves[eid])
        y = np.concatenate(targets)
        x = zscore_apply(matrix, stats[group])

        config = MlpConfig(input_dim=x.shape[1],
                           seed=seed + sorted(NETWORK_GROUPS).index(group))
        if epochs is not None:
            config = replace(config, epochs=epochs)
        if learning_rate is not None:
            config = replace(config, learning_rate=learning_rate)
        weights, report = mlp_train(x, y, config)
        summary[group] = {"final_train_rmse": report.final_train_rmse,
                          "final_val_rmse": report.final_val_rmse,
                          "input_dim": x.shape[1], "n_rows": x.shape[0]}
        for epoch in range(report.train_rmse.size):
            log_rows.append((group, epoch + 1,
                             report.train_rmse[epoch], report.val_rmse[epoch]))
        write_json(out / f"weights_{group}.json", {
            "group": group,
            "config": {"input_dim": config.input_dim, "hidden": config.hidden,
                       "dropout_rate": config.dropout_rate, "epochs": config.epochs,
                       "learning_rate": config.learning_rate,
                       "train_fraction": config.train_fraction, "seed": config.seed,
                       "loss_mode": config.loss_mode},
            "weights": {"w1": weights.w1, "b1": weights.b1,
                        "w2": weights.w2, "b2": weights.b2},
            "report": summary[group],
        }, seed, [feats_path, curves_path], precise=True)

    write_csv(out / "training_log.csv", ("group", "epoch", "train_rmse", "val_rmse"),
              log_rows, seed, [curves_path])
    write_json(out / "train_summary.json", {"groups": summary}, seed, [curves_path])
    return summary


def _load_weights(out: Path, group: str) -> MlpWeights:
    path = require(out, f"weights_{group}.json", "train")
    payload = json.loads(path.read_text(encoding="utf-8"))
    w = payload["weights"]
    return MlpWeights(np.array(w["w1"]), np.array(w["b1"]),
                      np.array(w["w2"]), np.array(w["b2"]),
                      seed=payload["config"]["seed"])


def run_predict(out: Path, seed: int = 0) -> Path:
    out = Path(out)
    require(out, "normstats.json", "features")
    stats = _load_normstats(out)
    rows = []
    input_paths = []
    for group in sorted(NETWORK_GROUPS):
        weights = _load_weights(out, group)
        input_paths.append(out / f"weights_{group}.json")
        eids, times, matrix = _load_features(out, group)
        pred = mlp_predict(weights, zscore_apply(matrix, stats[group]))
        for i in range(eids.size):
            rows.append((group, eids[i], times[i], pred.mean[i], pred.variance[i]))
    rows.sort(key=lambda r: (r[1], r[2], r[0]))
    return write_csv(out / "predictions.csv",
                     ("group", "event_id", "t", "mean", "variance"),
                     rows, seed, input_paths)


# ---------------------------------------------------------------------------
# calibrate


def run_calibrate(out: Path, seed: int = 0, draws: int = 500,
                  bounds_overrides: Mapping[str, Mapping[str, tuple]] | None = None) -> dict:
    out = Path(out)
    curves_path = require(out, "curves.csv", "reconstruct")
    targets = _load_mean_curves(out)

    results = {}
    for offset, model in enumerate(("PCAD", "DRF")):
        bounds = (bounds_overrides or {}).get(model)
        job = CalibrationJob(model, targets, draws=draws, seed=seed + offset,
                             bounds=bounds)
        res = calibrate(job)
        results[model] = res
        params = {k: getattr(res.best_params, k) for k in job.resolved_bounds()}
        write_json(out / f"calibration_{model.lower()}.json", {
            "model": model, "draws": draws, "seed": job.seed,
            "best_rmse": res.best_rmse, "best_draw": res.best_draw,
            "default_rmse": res.trace[0]["rmse"], "best_params": params,
        }, seed, [curves_path])
        param_names = list(job.resolved_bounds())
        trace_rows = [(row["draw"], *[row[p] for p in param_names], row["rmse"])
                      for row in res.trace]
        write_csv(out / f"trace_{model.lower()}.csv",
                  ("draw", *param_names, "rmse"), trace_rows, seed, [curves_path])
    return results


# ---------------------------------------------------------------------------
# explain


def run_explain(out: Path, seed: int = 0, events: Sequence[int] | None = None,
                n_permutations: int = 200) -> Path:
    out = Path(out)
    require(out, "normstats.json", "features")
    stats = _load_normstats(out)

    chosen = set(events) if events else None
    shap_rows, globals_rows = [], []
    input_paths = []
    for group in sorted(NETWORK_GROUPS):
        weights = _load_weights(out, group)
        input_paths.append(out / f"weights_{group}.json")
        eids, times, matrix = _load_features(out, group)
        group_events = sorted(set(eids))
        targets = [e for e in group_events if chosen is None or e in chosen]
        if chosen is None:
            targets = targets[:1]  # default: one representative event per network
        if not targets:
            continue
        names = stats[group].names
        model = mean_head(weights)
        baseline = Baseline.from_training(zscore_apply(matrix, stats[group]))
        collected = []
        for eid in targets:
            sel = eids == eid
            raw = matrix[sel]
            normed = zscore_apply(raw, stats[group])
            mode = "exact" if len(names) <= 15 else "sampled"
            result = explain_frames(model, normed, baseline, mode=mode,
                                    n_permutations=n_permutations, seed=seed)
            collected.append(result.attributions)
            t_sel = times[sel]
            for k in range(normed.shape[0]):
                for j, name in enumerate(names):
                    err = "" if result.std_errors is None else result.std_errors[k, j]
                    shap_rows.append((eid, t_sel[k], name, result.attributions[k, j],
                                      raw[k, j], err))
        ranking = global_importance(np.vstack(collected), names)
        for rank, (name, score) in enumerate(ranking, start=1):
            globals_rows.append((group, name, score, rank))

    shap_path = write_csv(out / "shap.csv",
                          ("event_id", "t", "feature", "phi", "feature_value", "std_err"),
                          shap_rows, seed, input_paths)
    write_csv(out / "globals.csv", ("scenario", "feature", "mean_abs_phi", "rank"),
              globals_rows, seed, input_paths)
    return shap_path


# ---------------------------------------------------------------------------
# report


def _model_curves(out: Path, targets: dict) -> dict:
    """Rescaled PCAD/DRF catalog outputs under their calibrated parameters."""
    outputs = {}
    for model in ("PCAD", "DRF"):
        path = require(out, f"calibration_{model.lower()}.json", "calibrate")
        payload = json.loads(path.read_text(encoding="utf-8"))
        params = replace(MODEL_DEFAULTS[model](), **payload["best_params"])
        outputs[model] = joint_rescale(
            {eid: MODEL_SERIES[model](catalog_trajectory(eid), params)
             for eid in sorted(targets)})
    return outputs


def run_report(out: Path, seed: int = 0) -> dict:
    out = Path(out)
    curves_path = require(out, "curves.csv", "reconstruct")
    predictions_path = require(out, "predictions.csv", "predict")
    shap_path = require(out, "shap.csv", "explain")
    globals_path = require(out, "globals.csv", "explain")

    curve_rows = read_csv(curves_path)
    write_csv(out / "report_curves.csv", ("event_id", "t", "mean", "p25", "p75"),
              [(r["event_id"], float(r["t"]), float(r["mean"]),
                float(r["p25"]), float(r["p75"])) for r in curve_rows],
              seed, [curves_path])

    truth = _load_mean_curves(out)
    mlp_out: dict = {}
    pred_lookup: dict = {}
    for rec in read_csv(predictions_path):
        eid = int(rec["event_id"])
        mlp_out.setdefault(eid, []).append(float(rec["mean"]))
        pred_lookup[(eid, round(float(rec["t"]) / DT))] = float(rec["mean"])
    mlp_curves = {eid: np.array(vals) for eid, vals in mlp_out.items()}
    outputs = _model_curves(out, truth)
    outputs["MLP"] = mlp_curves
    report = compare_models(truth, outputs)

    comparison_rows = [(fam, model, *report.scenario_stats[(fam, model)])
                       for fam, model in sorted(report.scenario_stats)]
    write_csv(out / "report_comparison.csv", ("scenario", "model", "median", "q1", "q3"),
              comparison_rows, seed, [curves_path, predictions_path])

    histogram_rows = []
    for model in sorted(report.histograms):
        bin_lo, counts = report.histograms[model]
        for lo, count in zip(bin_lo, counts):
            histogram_rows.append((model, lo, int(count)))
    write_csv(out / "report_histogram.csv", ("model", "bin_lo", "count"),
              histogram_rows, seed, [curves_path, predictions_path])

    write_csv(out / "report_globals.csv", ("scenario", "feature", "mean_abs_phi", "rank"),
              [(r["scenario"], r["feature"], float(r["mean_abs_phi"]), int(r["rank"]))
               for r in read_csv(globals_path)],
              seed, [globals_path])

    heatmap_rows = []
    for rec in read_csv(shap_path):
        eid = int(rec["event_id"])
        t = float(rec["t"])
        predicted = pred_lookup.get((eid, round(t / DT)), "")
        heatmap_rows.append((eid, t, rec["feature"], float(rec["phi"]), predicted))
    write_csv(out / "report_heatmap.csv",
              ("event_id", "t", "feature", "phi", "predicted"),
              heatmap_rows, seed, [shap_path, predictions_path])

    artifacts = sorted(p for p in out.rglob("*")
                       if p.is_file() and p.name != "manifest_outputs.json")
    write_json(out / "manifest_outputs.json", {
        "artifacts": [{"path": str(p.relative_to(out)), "sha256": _digest(p)}
                      for p in artifacts],
    }, seed)
    return {"comparison": report, "artifacts": len(artifacts)}


# ---------------------------------------------------------------------------
# end-to-end convenience


def run_all(out: Path, seed: int = 0, ratings_path: Path | None = None,
            n_participants: int = 12, draws: int = 300,
            epochs: int | None = None,
            learning_rate: float | None = None,
            n_permutations: int = 200) -> dict:
    """Run every stage in order; synthesizes ratings when none are given."""
    out = Path(out)
    run_generate(out, seed)
    if ratings_path is None:
        ratings_path = write_synthetic_ratings(out, seed, n_participants)
    index = run_ingest(out, ratings_path, seed)
    run_reconstruct(out, seed)
    run_features(out, seed)
    summary = run_train(out, seed, epochs=epochs, learning_rate=learning_rate)
    run_predict(out, seed)
    calib = run_calibrate(out, seed, draws=draws)
    run_explain(out, seed, n_permutations=n_permutations)
    report = run_report(out, seed)
    return {"index": index, "train": summary, "calibration": calib, **report}
