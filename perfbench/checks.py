"""Output checks on a pass's run directory, each tied to the stage it judges.

The checks read the stamped artifacts only, so they hold for any version of
the program that keeps the artifact formats.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from collections import defaultdict
from pathlib import Path

DT = 0.1
# Frame totals of the 105-event catalog per scenario family.
FAMILY_FRAMES = {"MB": 8127, "HB": 8127, "SVM": 8127, "LC": 8664}
# Messages of the ingest defects the probes exercise at the time of writing.
KNOWN_DEFECTS = ("participants disagree on the number of clips",
                 "lost every rater to the agreement filter")


def read_rows(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def digests(out: Path) -> dict:
    """sha256 of every file under the run directory, by relative path."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def event_families(out: Path) -> dict:
    return {e["event_id"]: e["family"] for e in read_json(out / "events.json")["events"]}


def check_ingest(out: Path, w) -> list:
    index = read_json(out / "dataset_index.json")
    rows = len(read_rows(out / "ratings.csv"))
    total = index["total_ratings"] + index["dropped_pairs"] + index["invalid_rows"]
    return [("ingest_accounting", total == rows,
             f"kept+dropped+invalid={total}, input rows={rows}")]


def check_reconstruct(out: Path, w) -> list:
    families = event_families(out)
    counts: dict = defaultdict(int)
    for rec in read_rows(out / "curves.csv"):
        counts[families[int(rec["event_id"])]] += 1
    return [("curve_frame_counts", dict(counts) == FAMILY_FRAMES, f"frames per family {dict(counts)}")]


def check_predict(out: Path, w) -> list:
    bad = sum(1 for r in read_rows(out / "predictions.csv")
              if not (math.isfinite(float(r["mean"])) and math.isfinite(float(r["variance"]))))
    return [("predictions_finite", bad == 0, f"{bad} non-finite predictions")]


def check_calibrate(out: Path, w) -> list:
    results = []
    for model in ("pcad", "drf"):
        payload = read_json(out / f"calibration_{model}.json")
        results.append((f"{model}_best_le_default", payload["best_rmse"] <= payload["default_rmse"],
                        f"best {payload['best_rmse']} default {payload['default_rmse']}"))
        rows = len(read_rows(out / f"trace_{model}.csv"))
        results.append((f"{model}_trace_rows", rows == w.draws, f"{rows} trace rows, {w.draws} draws"))
    return results


def check_explain(out: Path, w) -> list:
    """Shapley efficiency: per event, sum(phi) - f(x) is the same on every frame.

    Every value is rounded to 6 decimals in the CSVs, so the spread may reach
    (D + 1) * 1e-6.  Frames whose prediction was clamped to the rating scale
    are skipped, because the clamp is not part of the explained model.
    """
    predicted = {(int(r["event_id"]), round(float(r["t"]) / DT)): float(r["mean"])
                 for r in read_rows(out / "predictions.csv")}
    phi_sum: dict = defaultdict(float)
    width: dict = defaultdict(set)
    for r in read_rows(out / "shap.csv"):
        eid = int(r["event_id"])
        key = (eid, round(float(r["t"]) / DT))
        phi_sum[key] += float(r["phi"])
        width[eid].add(r["feature"])
    gaps: dict = defaultdict(list)
    for (eid, k), total in phi_sum.items():
        pred = predicted[(eid, k)]
        if 0.0 < pred < 10.0:
            gaps[eid].append(total - pred)
    worst = [(eid, max(v) - min(v)) for eid, v in gaps.items()
             if max(v) - min(v) > (len(width[eid]) + 1) * 1e-6 + 1e-9]
    return [("shapley_efficiency", bool(gaps) and not worst,
             f"{len(gaps)} events checked, violations {worst[:3]}")]


STAGE_CHECKS = {
    "ingest": check_ingest,
    "reconstruct": check_reconstruct,
    "predict": check_predict,
    "calibrate": check_calibrate,
    "explain": check_explain,
}


def quality(out: Path, stages) -> dict:
    """Model-quality figures of the stages that ran; deterministic per seed."""
    q = {}
    if "train" in stages:
        groups = read_json(out / "train_summary.json")["groups"]
        q["val_rmse"] = sum(g["final_val_rmse"] for g in groups.values()) / len(groups)
    if "calibrate" in stages:
        q["pcad_rmse"] = read_json(out / "calibration_pcad.json")["best_rmse"]
        q["drf_rmse"] = read_json(out / "calibration_drf.json")["best_rmse"]
    if "explain" in stages:
        errs = [float(r["std_err"]) for r in read_rows(out / "shap.csv") if r["std_err"]]
        if errs:
            q["shap_std_err"] = sum(errs) / len(errs)
    return q


def input_sizes(out: Path) -> dict:
    ratings = read_rows(out / "ratings.csv")
    events = read_json(out / "events.json")["events"]
    return {"rows": len(ratings),
            "participants": len({r["participant_id"] for r in ratings}),
            "events": len({r["event_id"] for r in ratings}),
            "frames": sum(e["n_frames"] for e in events)}


def probe_inputs(ratings: Path, seed: int, probe_dir: Path) -> dict:
    """Three-event slices of a clean ratings file with one defect each.

    ``drop_row``, ``duplicate_row`` and ``rating_11`` hit one row chosen from
    the seed; ``flat_event`` gives every rating of the slice's first event one
    value, so all raters agree perfectly.  Returns the probe name mapped to
    its ratings file.
    """
    lines = ratings.read_text(encoding="utf-8").splitlines(keepends=True)
    head = [ln for ln in lines if ln.startswith("#")] + [
        next(ln for ln in lines if not ln.startswith("#"))]
    rows = [ln.rstrip("\n").split(",") for ln in lines[len(head):]]
    first = sorted({int(r[1]) for r in rows})[:3]
    rows = [r for r in rows if int(r[1]) in first]
    pick = random.Random(seed).randrange(len(rows))
    flat = rows[0][3]
    variants = {
        "drop_row": rows[:pick] + rows[pick + 1:],
        "duplicate_row": rows[:pick + 1] + rows[pick:],
        "rating_11": rows[:pick] + [rows[pick][:3] + ["11"]] + rows[pick + 1:],
        "flat_event": [r[:3] + [flat] if int(r[1]) == first[0] else r for r in rows],
    }
    probe_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, body in variants.items():
        paths[name] = probe_dir / f"{name}.csv"
        paths[name].write_text("".join(head) + "".join(",".join(r) + "\n" for r in body),
                               encoding="utf-8")
    return paths


def probe_outcome(out: Path, ratings: Path) -> str | None:
    """None when ingest kept a curve source for every event of its input."""
    given = {r["event_id"] for r in read_rows(ratings)}
    kept = {r["event_id"] for r in read_rows(out / "ratings_valid.csv")}
    lost = sorted(given - kept, key=int)
    return f"events {', '.join(lost)} lost every rater to the agreement filter" if lost else None
