"""CLI stage wiring: artifacts, dependency errors, overrides, determinism."""

import codecs
import hashlib
import json
import logging
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import table_oracles

import riskdecode
from riskdecode import __version__, pipeline, scenarios
from riskdecode.cli import main
from riskdecode.features import DEFAULT_MANIFESTS
from riskdecode.pipeline import (NETWORK_GROUPS, read_csv, run_all, write_csv,
                                 write_synthetic_ratings)
from riskdecode.reconstruction import load_alignment_table
from riskdecode.scenarios import enumerate_events

BASE = (2, 5, 8, 6, 3)  # rise-fall profile shared by the agreeing raters
ANTI = (8, 5, 2, 4, 7)  # mirrored profile for the rater the filter drops


def write_config(path, **entries):
    path.write_text(json.dumps(entries), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def mb_ratings(tmp_path_factory):
    """Hand-built MB ratings: five agreeing raters, one contrarian, bad rows."""
    table = load_alignment_table()
    lines = ["participant_id,event_id,clip_index,rating"]
    for spec in enumerate_events():
        if spec.family != "MB":
            continue
        slots = table.n_slots(spec.event_id)
        assert slots == len(BASE)
        for pid in range(1, 6):
            shift = pid % 3 - 1
            for slot in range(1, slots + 1):
                lines.append(f"{pid},{spec.event_id},{slot},{BASE[slot - 1] + shift}")
        for slot in range(1, slots + 1):
            lines.append(f"6,{spec.event_id},{slot},{ANTI[slot - 1]}")
    lines.append("7,999,1,5")   # unknown event
    lines.append("7,1,9,5")     # clip index outside the event's slots
    lines.append("7,1,1,15")    # rating off the 0-10 scale
    path = tmp_path_factory.mktemp("ratings") / "mb.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def mini_tree(tmp_path_factory):
    """Full pipeline through the `all` branch at rehearsal-toy scale."""
    out = tmp_path_factory.mktemp("mini")
    cfg = write_config(tmp_path_factory.mktemp("cfg") / "mini.json",
                       participants=4, n_permutations=8, draws=2)
    assert main(["all", "--synthetic", "--out", str(out), "--seed", "1",
                 "--epochs", "2", "--config", cfg]) == 0
    return out


def test_all_branch_builds_every_artifact(mini_tree):
    expected = ["events.json", "ratings.csv", "ratings_valid.csv",
                "dataset_index.json", "curves.csv", "normstats.json",
                "predictions.csv", "training_log.csv",
                "train_summary.json", "calibration_pcad.json",
                "calibration_drf.json", "shap.csv", "globals.csv",
                "report_curves.csv", "report_comparison.csv",
                "report_histogram.csv", "report_heatmap.csv",
                "report_globals.csv", "manifest_outputs.json"]
    for name in expected:
        assert (mini_tree / name).exists(), name
    for group in NETWORK_GROUPS:
        assert (mini_tree / f"features_{group}.csv").exists()
        assert (mini_tree / f"weights_{group}.json").exists()
    summary = json.loads((mini_tree / "train_summary.json").read_text())
    assert sorted(summary["groups"]) == sorted(NETWORK_GROUPS)
    assert len(read_csv(mini_tree / "trace_pcad.csv")["draw"]) == 2
    calib = json.loads((mini_tree / "calibration_pcad.json").read_text())
    assert calib["draws"] == 2


def test_each_stage_writes_the_artifacts_it_declares(tmp_path):
    out = tmp_path / "run"
    options = {"seed": 1, "participants": 4, "epochs": 2, "draws": 2, "n_permutations": 8}
    for stage, (_, _, writes) in pipeline.STAGES.items():
        before = set(os.listdir(out)) if out.exists() else set()
        pipeline.run_stage(stage, out, options)
        assert set(os.listdir(out)) - before == set(writes), stage
    # ingest writes ratings.csv only when it synthesizes the ratings
    other = tmp_path / "other"
    other.mkdir()
    pipeline.run_stage("ingest", other, {"seed": 1, "dataset": out / "ratings.csv"})
    assert sorted(os.listdir(other)) == ["dataset_index.json", "ratings_valid.csv"]


def test_report_lists_no_stray_file(mini_tree, tmp_path, caplog):
    scratch = tmp_path / "tree"
    shutil.copytree(mini_tree, scratch)
    (scratch / "notes.txt").write_text("a stray note\n")
    (scratch / "old").mkdir()
    (scratch / "old" / "x.csv").write_text("a,b\n1,2\n")
    with caplog.at_level(logging.INFO):
        assert main(["report", "--out", str(scratch), "--seed", "1"]) == 0
    assert "report bundle complete: 32 artifacts" in caplog.text
    manifest = scratch / "manifest_outputs.json"
    assert manifest.read_bytes() == (mini_tree / "manifest_outputs.json").read_bytes()


def test_artifact_headers_are_stamped(mini_tree):
    header = (mini_tree / "curves.csv").read_text().splitlines()[0]
    pattern = (rf"^# riskdecode {re.escape(__version__)} seed=1 "
               rf"inputs=ratings_valid\.csv:[0-9a-f]{{12}}$")
    assert re.fullmatch(pattern, header)
    meta = json.loads((mini_tree / "dataset_index.json").read_text())["meta"]
    assert meta["seed"] == 1 and meta["version"] == __version__
    assert meta["inputs"].startswith("ratings.csv:")
    # a stamp names every file its stage read, with that file's current digest; the
    # network stages rebuild their feature matrices from the weights files alone
    networks = [f"weights_{g}.json" for g in sorted(NETWORK_GROUPS)]
    read_by = {
        "predictions.csv": networks,
        "shap.csv": networks,
        "globals.csv": networks,
        "report_comparison.csv": ["curves.csv", "predictions.csv",
                                  "calibration_pcad.json", "calibration_drf.json"],
        **{f"weights_{g}.json": ["normstats.json", "curves.csv"] for g in NETWORK_GROUPS},
    }
    for name, inputs in read_by.items():
        tags = ",".join(f"{n}:{hashlib.sha256((mini_tree / n).read_bytes()).hexdigest()[:12]}"
                        for n in inputs)
        if name.endswith(".json"):
            assert json.loads((mini_tree / name).read_text())["meta"]["inputs"] == tags, name
        else:
            header = (mini_tree / name).read_text().splitlines()[0]
            assert header == f"# riskdecode {__version__} seed=1 inputs={tags}", name


def test_artifacts_read_and_write_as_per_cell_codec(mini_tree, tmp_path):
    tables = sorted(mini_tree.glob("*.csv"))
    assert len(tables) == 20
    for path in tables:
        got = read_csv(path)
        table_oracles.assert_same_columns(got, table_oracles.read_csv(path))
        again = write_csv(tmp_path / path.name, got, seed=1)
        assert again.read_bytes().partition(b"\n")[2] == path.read_bytes().partition(b"\n")[2]
        want = table_oracles.write_csv(tmp_path / "oracle.csv", got, seed=1)
        assert again.read_bytes() == want.read_bytes(), path.name


def test_artifacts_take_the_column_pass(mini_tree, monkeypatch):
    column_pass, passes = pipeline._loadtxt, []
    monkeypatch.setattr(pipeline, "_loadtxt",
                        lambda *args: passes.append(column_pass(*args)) or passes[-1])
    for path in sorted(mini_tree.glob("*.csv")):
        passes.clear()
        read_csv(path)
        assert len(passes) == 1 and passes[0] is not None, path.name


def test_artifacts_take_the_byte_path(mini_tree, monkeypatch, tmp_path):
    byte_path, blocks = pipeline._block_bytes, []
    monkeypatch.setattr(pipeline, "_block_bytes",
                        lambda block: blocks.append(byte_path(block)) or blocks[-1])
    tables = sorted(mini_tree.glob("*.csv"))
    assert len(tables) == 20
    for path in tables:
        blocks.clear()
        table = read_csv(path)
        again = write_csv(tmp_path / path.name, table, seed=1)
        n_rows = len(next(iter(table.values())))
        assert len(blocks) == -(-n_rows // pipeline._ROWS_PER_WRITE), path.name
        assert None not in blocks, path.name
        assert again.read_bytes().partition(b"\n")[2] == path.read_bytes().partition(b"\n")[2]


def test_stage_reruns_are_byte_identical(mini_tree):
    tracked = ["curves.csv", "predictions.csv", "report_comparison.csv",
               "manifest_outputs.json"]
    before = {name: (mini_tree / name).read_bytes() for name in tracked}
    for stage in ("reconstruct", "predict", "report"):
        assert main([stage, "--out", str(mini_tree), "--seed", "1"]) == 0
    for name in tracked:
        assert (mini_tree / name).read_bytes() == before[name], name


def test_explain_event_selection(mini_tree, tmp_path):
    scratch = tmp_path / "tree"
    shutil.copytree(mini_tree, scratch)
    cfg = write_config(tmp_path / "cfg.json", n_permutations=8)
    assert main(["explain", "--out", str(scratch), "--seed", "1",
                 "--events", "1", "28", "--config", cfg]) == 0
    shap = read_csv(scratch / "shap.csv")
    assert set(shap["event_id"].tolist()) == {1, 28}
    # the narrow manifest is enumerated exactly (no error column), the wide
    # one falls back to permutation sampling with a spread estimate
    hb = shap["std_err"][shap["event_id"] == 28]
    mb = shap["std_err"][shap["event_id"] == 1]
    assert all(err == "" for err in hb)
    assert all(float(err) >= 0.0 for err in mb)
    scenarios = set(read_csv(scratch / "globals.csv")["scenario"].tolist())
    assert scenarios == {"MB", "HB"}


def _stamped_inputs(path):
    header = path.read_text(encoding="utf-8").splitlines()[0]
    return [tag.split(":")[0] for tag in header.split("inputs=", 1)[1].split(",")]


@pytest.mark.parametrize("events,stamped", [
    (["28"], ["weights_HB.json"]),
    (["999"], ["-"]),  # the stamp of a stage that read no file
])
def test_explain_reads_only_selected_groups(events, stamped, mini_tree, tmp_path):
    scratch = tmp_path / "tree"
    shutil.copytree(mini_tree, scratch)
    cfg = write_config(tmp_path / "cfg.json", n_permutations=8)
    assert main(["explain", "--out", str(scratch), "--seed", "1",
                 "--events", *events, "--config", cfg]) == 0
    for name in ("shap.csv", "globals.csv"):
        assert _stamped_inputs(scratch / name) == stamped, name


def test_diverging_training_fails_cleanly(mini_tree, tmp_path, caplog):
    scratch = tmp_path / "tree"
    shutil.copytree(mini_tree, scratch)
    argv = ["train", "--out", str(scratch), "--seed", "1", "--lr", "1e6", "--epochs", "3"]
    with caplog.at_level(logging.ERROR), np.errstate(all="ignore"):
        assert main(argv) == 1
    # MB trains first; in float32 its mean fit stays finite for two epochs, then
    # the loss of the third overflows
    message = "group MB: training loss became non-finite at epoch 2 of the mean phase"
    assert message in caplog.text
    # from the command line, stderr holds that one error and no numpy warning
    env = {**os.environ, "PYTHONPATH": str(Path(riskdecode.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-m", "riskdecode.cli", *argv], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 1
    assert run.stderr.splitlines() == [
        f"ERROR riskdecode: {message}; lower the learning rate (was 1000000.0)"]


@pytest.mark.parametrize("lr", ["nan", "1e39"])
def test_an_unusable_learning_rate_prints_one_line(mini_tree, tmp_path, lr):
    # float32 training would take nan as it is and round 1e39 to inf, with a numpy
    # overflow warning; the config refuses both before any group trains
    scratch = tmp_path / "tree"
    shutil.copytree(mini_tree, scratch)
    env = {**os.environ, "PYTHONPATH": str(Path(riskdecode.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-m", "riskdecode.cli", "train", "--out",
                          str(scratch), "--lr", lr], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 1
    assert run.stderr.splitlines() == [
        "ERROR riskdecode: learning_rate must be positive and at most the largest "
        f"float32, 3.4e38 (was {float(lr)})"]
    assert (scratch / "weights_MB.json").read_bytes() == (
        mini_tree / "weights_MB.json").read_bytes()


def test_network_artifacts_do_not_depend_on_blas_threads(mini_tree, tmp_path):
    # the network stages hold BLAS at one thread, so the thread count the
    # environment asks for changes no byte of what they write
    cfg = write_config(tmp_path / "explain.json", n_permutations=8)
    env = {**os.environ, "PYTHONPATH": str(Path(riskdecode.__file__).parents[1])}
    digests = []
    for threads in ("1", "2"):
        tree = tmp_path / f"threads{threads}"
        shutil.copytree(mini_tree, tree)
        for argv in (["train", "--epochs", "2"], ["predict"], ["explain", "--config", cfg]):
            subprocess.run([sys.executable, "-m", "riskdecode.cli", *argv, "--out", str(tree),
                            "--seed", "1"], env={**env, "OPENBLAS_NUM_THREADS": threads},
                           check=True, capture_output=True, timeout=300)
        names = [f"weights_{g}.json" for g in NETWORK_GROUPS]
        digests.append({name: hashlib.sha256((tree / name).read_bytes()).hexdigest()
                        for name in names + ["predictions.csv", "shap.csv", "globals.csv"]})
    assert digests[0] == digests[1]


@pytest.mark.parametrize("stage,flag,message", [
    ("calibrate", "--draws", "calibration needs at least one draw"),
    ("train", "--epochs", "epochs must be at least 1"),
    ("train", "--lr", "learning_rate must be positive"),
])
def test_zero_overrides_reach_validation(stage, flag, message, mini_tree, tmp_path, caplog):
    scratch = tmp_path / "tree"
    shutil.copytree(mini_tree, scratch)
    with caplog.at_level(logging.ERROR):
        assert main([stage, "--out", str(scratch), "--seed", "1", flag, "0"]) == 1
    assert message in caplog.text


def test_ingest_validates_and_filters(mb_ratings, tmp_path):
    assert main(["ingest", str(mb_ratings), "--out", str(tmp_path)]) == 0
    index = json.loads((tmp_path / "dataset_index.json").read_text())
    assert index["total_ratings"] == 27 * 5 * len(BASE)
    assert index["per_family"] == {"MB": 675}
    assert index["n_participants"] == 5
    assert index["invalid_rows"] == 3
    assert index["dropped_pairs"] == 27 * len(BASE)
    reasons = " ".join(d["reason"] for d in index["invalid_detail"])
    assert "unknown event_id 999" in reasons
    assert len(read_csv(tmp_path / "ratings_valid.csv")["rating"]) == 675


def _pair_ratings(path, defect):
    """Events 1 and 2 rated by five agreeing raters; one defect hits rater 2, event 1."""
    lines = ["participant_id,event_id,clip_index,rating"]
    for eid in (1, 2):
        for pid in range(1, 6):
            for slot, base in enumerate(BASE, start=1):
                row = f"{pid},{eid},{slot},{base + pid % 3 - 1}"
                if (pid, eid, slot) == (2, 1, 3):
                    row = {"drop_row": None, "duplicate_row": f"{row}\n{row}",
                           "rating_11": f"{pid},{eid},{slot},11"}[defect]
                if row is not None:
                    lines.append(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("defect,fault,invalid", [
    ("drop_row", "clip 3 missing", 4),
    ("duplicate_row", "clip 3 repeated", 6),
    ("rating_11", "clip 3 missing", 5),
])
def test_ingest_drops_incomplete_pairs(defect, fault, invalid, tmp_path):
    ratings = _pair_ratings(tmp_path / "ratings.csv", defect)
    assert main(["ingest", str(ratings), "--out", str(tmp_path)]) == 0
    index = json.loads((tmp_path / "dataset_index.json").read_text())
    n_rows = len(read_csv(ratings)["rating"])
    assert index["invalid_rows"] == invalid
    assert index["total_ratings"] + index["dropped_pairs"] + index["invalid_rows"] == n_rows
    # every complete pair survives, rater 2 included on event 2
    valid = read_csv(tmp_path / "ratings_valid.csv")
    kept = set(zip(valid["participant_id"].tolist(), valid["event_id"].tolist()))
    assert kept == {(pid, eid) for pid in range(1, 6) for eid in (1, 2)} - {(2, 1)}
    pair_detail = [d for d in index["invalid_detail"] if "participant 2 event 1" in d["reason"]]
    assert len(pair_detail) == invalid - (defect == "rating_11")
    assert all(fault in d["reason"] for d in pair_detail)
    assert [d["line"] for d in index["invalid_detail"]] == sorted(
        d["line"] for d in index["invalid_detail"])


@pytest.mark.parametrize("row,reason", [
    ("2,1,3,-1", "rating must be an integer in 0..10, got -1"),
    ("2,1,3,5.5", "invalid literal for int() with base 10: '5.5'"),
    ("2,1,0,5", "clip_index 0 outside event 1's slots"),
    ("2,1,3", "row has 3 cells, none for column rating"),
    # the columns are int64; a wider id is a reject, not an overflow
    ("99999999999999999999,1,3,5", "participant_id 99999999999999999999 does not fit in 64 bits"),
])
def test_ingest_names_each_row_reject(row, reason, tmp_path):
    ratings = _pair_ratings(tmp_path / "ratings.csv", "drop_row")
    lines = ratings.read_text().splitlines()
    ratings.write_text("\n".join(lines + [row]) + "\n", encoding="utf-8")
    assert main(["ingest", str(ratings), "--out", str(tmp_path)]) == 0
    index = json.loads((tmp_path / "dataset_index.json").read_text())
    assert index["invalid_detail"][-1] == {"line": len(lines) + 1, "reason": reason}
    assert index["invalid_rows"] == 5


# ingest keeps 45 rows of _pair_ratings' "drop_row" file, on lines 3..47 of
# ratings_valid.csv below its stamp and header; the last pair (participant 5, event 2)
# starts on line 43
@pytest.mark.parametrize("damage,message", [
    ("event_999", "line 48: unknown event_id 999"),
    ("rating_5.5", "line 47: invalid literal for int() with base 10: '5.5'"),
    ("no_rating", "lacks required columns ['rating'] "
                  "(line 2: 'participant_id,event_id,clip_index')"),
    # the row breaks its pair too, but it is named by its own line
    ("rating_57", "line 47: rating must be an integer in 0..10, got 57"),
    ("participant_Ǿ", "line 47: invalid literal for int() with base 10: 'Ǿ'"),
    ("clip_9", "line 47: clip_index 9 outside event 2's slots"),
    ("last_row_gone", "line 43: participant 5 event 2 dropped: clip 5 missing"),
], ids=["event_999", "rating_5.5", "no_rating", "rating_57", "participant_Ǿ", "clip_9",
        "last_row_gone"])
def test_reconstruct_refuses_ratings_it_cannot_trust(damage, message, tmp_path, caplog):
    ratings = _pair_ratings(tmp_path / "ratings.csv", "drop_row")
    assert main(["ingest", str(ratings), "--out", str(tmp_path)]) == 0
    valid = tmp_path / "ratings_valid.csv"
    lines = valid.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 47 and lines[42].startswith("5,2,1,")
    if damage == "event_999":
        lines += [f"1,999,{clip},5" for clip in (1, 2, 3)]
    elif damage in ("rating_5.5", "rating_57"):
        lines[-1] = lines[-1].rpartition(",")[0] + "," + damage.partition("_")[2]
    elif damage == "participant_Ǿ":  # a letter loadtxt would read as the id 462
        lines[-1] = "Ǿ," + lines[-1].partition(",")[2]
    elif damage == "clip_9":
        pid, eid, _, rating = lines[-1].split(",")
        lines[-1] = f"{pid},{eid},9,{rating}"
    elif damage == "last_row_gone":
        del lines[-1]
    else:
        lines[1:] = [line.rpartition(",")[0] for line in lines[1:]]
    valid.write_text("\n".join(lines) + "\n", encoding="utf-8")
    caplog.clear()
    with caplog.at_level(logging.ERROR):
        assert main(["reconstruct", "--out", str(tmp_path)]) == 1
    assert [r.getMessage() for r in caplog.records] == [
        f"{valid} {message}; run the ingest stage again"]
    assert not (tmp_path / "curves.csv").exists()


@pytest.mark.parametrize("damage", ["byte_order_mark", "blank_line", "cr_line_ends"])
def test_reconstruct_reads_ratings_as_ingest_does(damage, tmp_path):
    # a byte-order mark, a blank line or \r line ends leave the rows, and so the curves
    ratings = _pair_ratings(tmp_path / "ratings.csv", "drop_row")
    clean, damaged = tmp_path / "clean", tmp_path / "damaged"
    assert main(["ingest", str(ratings), "--out", str(clean)]) == 0
    assert main(["reconstruct", "--out", str(clean)]) == 0
    damaged.mkdir()
    written = (clean / "ratings_valid.csv").read_bytes()
    body = {"byte_order_mark": codecs.BOM_UTF8 + written,  # before the stamp line
            "blank_line": written.replace(b"\r\n5,1,", b"\r\n\r\n5,1,", 1),
            "cr_line_ends": written.replace(b"\r\n", b"\r").replace(b"\n", b"\r")}[damage]
    assert body != written
    (damaged / "ratings_valid.csv").write_bytes(body)
    assert main(["reconstruct", "--out", str(damaged)]) == 0
    curves = [(out / "curves.csv").read_bytes().partition(b"\n")[2] for out in (clean, damaged)]
    assert curves[0] == curves[1] and curves[0].count(b"\n") > 1


def test_ingest_reject_names_its_line_after_a_blank_line(tmp_path):
    ratings = _pair_ratings(tmp_path / "ratings.csv", "drop_row")
    ratings.write_text(ratings.read_text() + "\n7,999,1,5\n", encoding="utf-8")
    n_lines = len(ratings.read_text().splitlines())
    assert main(["ingest", str(ratings), "--out", str(tmp_path)]) == 0
    index = json.loads((tmp_path / "dataset_index.json").read_text())
    assert {"line": n_lines, "reason": "unknown event_id 999"} in index["invalid_detail"]


def test_ingest_accepts_a_byte_order_mark(tmp_path):
    # spreadsheet "CSV UTF-8" exports start the file with U+FEFF
    ratings = write_synthetic_ratings(tmp_path / "plain", seed=3, n_participants=2)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(codecs.BOM_UTF8 + ratings.read_bytes())
    bodies = []
    for source in (ratings, marked):
        out = tmp_path / f"out_{source.stem}"
        assert main(["ingest", str(source), "--out", str(out)]) == 0
        bodies.append((out / "ratings_valid.csv").read_text().splitlines()[1:])
    assert bodies[0] == bodies[1] and len(bodies[0]) > 1


def _digests(out):
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_all_runs_the_stage_commands(tmp_path):
    # every stage option, flag or config key, means the same to all as to its stage
    cfg = write_config(tmp_path / "cfg.json", method="linear",
                       bounds={"PCAD": {"alpha": [3.9, 4.0]}},
                       manifests={"HB": ["dx", "dv_x"]},
                       participants=4, draws=2, n_permutations=4)
    common = ["--seed", "1", "--config", cfg]
    together, staged = tmp_path / "all", tmp_path / "staged"
    assert main(["all", "--synthetic", "--epochs", "2", "--out", str(together), *common]) == 0
    flags = {"ingest": ["--synthetic"], "train": ["--epochs", "2"]}  # each to its stage only
    for stage in ("generate", "ingest", "reconstruct", "features", "calibrate",
                  "train", "predict", "explain", "report"):
        assert main([stage, *flags.get(stage, []), "--out", str(staged), *common]) == 0
    digests = _digests(together)
    assert len(digests) == 33 and "manifest_outputs.json" in digests
    assert digests == _digests(staged)
    # and the overrides took hold
    normstats = json.loads((together / "normstats.json").read_text())
    assert normstats["groups"]["HB"]["names"] == ["dx", "dv_x"]
    drawn = read_csv(together / "trace_pcad.csv")["alpha"][1:]  # draw 0 is the default record
    assert drawn.size == 1 and 3.9 <= drawn[0] <= 4.0
    assert json.loads((together / "dataset_index.json").read_text())["n_participants"] <= 4


def test_all_reads_the_data_dir(tmp_path, monkeypatch):
    data_dir = tmp_path / "data"
    ratings = write_synthetic_ratings(data_dir, seed=3, n_participants=2)
    monkeypatch.setenv("RISKDECODE_DATA_DIR", str(data_dir))
    cfg = write_config(tmp_path / "cfg.json", draws=2, n_permutations=4)
    out = tmp_path / "run"
    assert main(["all", "--out", str(out), "--seed", "1", "--epochs", "2",
                 "--config", cfg]) == 0
    meta = json.loads((out / "dataset_index.json").read_text())["meta"]
    assert meta["inputs"] == f"ratings.csv:{hashlib.sha256(ratings.read_bytes()).hexdigest()[:12]}"
    assert not (out / "ratings.csv").exists()


def test_all_rejects_a_scenario(tmp_path):
    with pytest.raises(SystemExit, match="--scenario"):
        main(["all", "--synthetic", "--scenario", "MB", "--out", str(tmp_path)])
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["generate"], ["all", "--synthetic"]])
def test_a_negative_seed_stops_before_any_stage(argv, tmp_path, caplog):
    with caplog.at_level(logging.INFO):
        assert main([*argv, "--seed", "-1", "--out", str(tmp_path)]) == 1
    assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
        (logging.ERROR, "--seed must be a non-negative integer (was -1)")]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("stage,argv,flag", [
    ("generate", ["--epochs", "3"], "--epochs"),
    ("generate", ["--draws", "9"], "--draws"),
    ("generate", ["--events", "5"], "--events"),
    ("generate", ["--synthetic"], "--synthetic"),
    ("explain", ["--scenario", "MB"], "--scenario"),
    ("train", ["--draws", "2"], "--draws"),
    ("calibrate", ["--lr", "0.1"], "--lr"),
    ("reconstruct", ["ratings.csv"], "the ratings path ratings.csv"),
])
def test_a_stage_rejects_a_flag_it_does_not_take(stage, argv, flag, tmp_path):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as stop:
        main([stage, *argv, "--out", str(out)])
    assert stop.value.code not in (0, None)
    assert str(stop.value) == f"{stage} does not take {flag}"
    assert not out.exists()


@pytest.mark.parametrize("stage", ["ingest", "all"])
@pytest.mark.parametrize("by_config", [False, True])
def test_synthetic_and_a_ratings_path_conflict(stage, by_config, mb_ratings, tmp_path):
    source = ["--config", write_config(tmp_path / "cfg.json", dataset=str(mb_ratings))] \
        if by_config else [str(mb_ratings)]
    with pytest.raises(SystemExit, match=f"--synthetic and the ratings path {mb_ratings}"):
        main([stage, *source, "--synthetic", "--out", str(tmp_path / "run")])
    assert not (tmp_path / "run").exists()


def test_all_simulates_each_catalog_event_once(tmp_path, monkeypatch):
    calls = Counter()
    simulate = scenarios.simulate_event

    def counting(spec):
        calls[spec.event_id] += 1
        return simulate(spec)

    monkeypatch.setattr(scenarios, "simulate_event", counting)
    monkeypatch.setattr(scenarios, "_TRAJECTORIES", {})
    cfg = write_config(tmp_path / "mini.json", participants=4, n_permutations=8, draws=2)
    assert main(["all", "--synthetic", "--out", str(tmp_path / "run"), "--seed", "1",
                 "--epochs", "2", "--config", cfg]) == 0
    assert calls == Counter(spec.event_id for spec in scenarios.CATALOG)
    for k in range(1, len(scenarios.CATALOG) + 1):
        assert scenarios.event_by_id(k) is scenarios.CATALOG[k - 1]


def test_mb_flow_and_missing_group_weights(mb_ratings, tmp_path, caplog):
    out = str(tmp_path)
    assert main(["generate", "--out", out, "--scenario", "MB"]) == 0
    events = json.loads((tmp_path / "events.json").read_text())["events"]
    assert len(events) == 27
    assert not (tmp_path / "trajectories").exists()
    assert main(["ingest", str(mb_ratings), "--out", out]) == 0
    assert main(["reconstruct", "--out", out]) == 0
    assert len(read_csv(tmp_path / "curves.csv")["t"]) == 27 * 301
    assert main(["features", "--out", out]) == 0
    # features builds only the groups whose events generate listed
    assert [p.name for p in tmp_path.glob("features_*.csv")] == ["features_MB.csv"]
    assert main(["train", "--out", out, "--scenario", "MB", "--epochs", "2"]) == 0
    weights = json.loads((tmp_path / "weights_MB.json").read_text())
    assert weights["config"]["epochs"] == 2
    summary = json.loads((tmp_path / "train_summary.json").read_text())
    assert list(summary["groups"]) == ["MB"]
    # prediction spans every network, so the missing groups are called out
    with caplog.at_level(logging.ERROR):
        assert main(["predict", "--out", out]) == 1
    assert "run the train stage first" in caplog.text


def test_generate_scenario_takes_a_network_group(tmp_path):
    assert main(["generate", "--out", str(tmp_path), "--scenario", "LC_normal"]) == 0
    events = json.loads((tmp_path / "events.json").read_text())["events"]
    assert [e["event_id"] for e in events] == [
        s.event_id for s in enumerate_events()
        if s.scenario in ("LC_normal_slow", "LC_normal_fast")]
    assert len(events) == 12


def test_train_scenario_takes_a_family(mini_tree, tmp_path):
    scratch = tmp_path / "tree"
    shutil.copytree(mini_tree, scratch)
    assert main(["train", "--out", str(scratch), "--seed", "1", "--scenario", "LC",
                 "--epochs", "1"]) == 0
    lc_groups = ["LC_aborted", "LC_fragmented", "LC_normal"]
    # the log holds this run's epochs, the summary every network predict reads
    assert sorted(set(read_csv(scratch / "training_log.csv")["group"].tolist())) == lc_groups
    summary = json.loads((scratch / "train_summary.json").read_text())
    assert sorted(summary["groups"]) == sorted(NETWORK_GROUPS)
    for group in NETWORK_GROUPS:  # the other networks are left as they were
        name = f"weights_{group}.json"
        changed = (scratch / name).read_bytes() != (mini_tree / name).read_bytes()
        assert changed == (group in lc_groups), name
        if not changed:  # their stored report, at the summary's 6 decimals
            report = json.loads((scratch / name).read_text())["report"]
            assert summary["groups"][group] == {
                k: round(v, 6) if isinstance(v, float) else v for k, v in report.items()}
            assert f"{name}:" in summary["meta"]["inputs"]


@pytest.mark.parametrize("stage", ["predict", "explain"])
@pytest.mark.parametrize("damage", ["missing", "narrowed", "unlisted"])
def test_network_stages_name_a_faulty_feature_table(stage, damage, mini_tree, tmp_path, caplog):
    scratch = tmp_path / "tree"
    shutil.copytree(mini_tree, scratch)
    if damage == "missing":  # features over HB alone leaves the other groups unfitted
        assert main(["generate", "--out", str(scratch), "--scenario", "HB"]) == 0
        assert main(["features", "--out", str(scratch), "--seed", "1"]) == 0
    elif damage == "unlisted":  # as an earlier version wrote it, without each group's events
        normstats = json.loads((scratch / "normstats.json").read_text())
        for entry in normstats["groups"].values():
            del entry["event_ids"]
        (scratch / "normstats.json").write_text(json.dumps(normstats))
    else:  # a narrowed features rerun leaves MB's network trained on the wider manifest
        narrow = write_config(tmp_path / "narrow.json", manifests={"MB": ["dx", "dv_x"]})
        assert main(["features", "--out", str(scratch), "--seed", "1", "--config", narrow]) == 0
    if damage != "narrowed":  # train reads normstats.json, and MB trains first
        caplog.clear()
        with caplog.at_level(logging.ERROR):
            assert main(["train", "--out", str(scratch), "--seed", "1"]) == 1
        assert [r.levelno for r in caplog.records] == [logging.ERROR]
        remedy = (r"train the groups it lists \(HB\) with train --scenario, or run the "
                  r"generate and features stages over the events of MB" if damage == "missing"
                  else r"run the features stage with its events listed")
        assert re.fullmatch(r"normstats\.json under .* lists no events for group MB; " + remedy,
                            caplog.records[0].getMessage())
    # predict and explain read each network's inputs from its weights file alone
    cfg = write_config(tmp_path / "cfg.json", n_permutations=8)
    assert main([stage, "--out", str(scratch), "--seed", "1", "--config", cfg]) == 0
    for name in {"predict": ["predictions.csv"], "explain": ["shap.csv", "globals.csv"]}[stage]:
        assert (scratch / name).read_bytes() == (mini_tree / name).read_bytes(), name


def test_network_stages_ignore_a_reordered_features_rerun(mini_tree, tmp_path):
    scratch = tmp_path / "tree"
    shutil.copytree(mini_tree, scratch)
    # MB's 21 names in reverse: the width holds, so only the weights' own copy of the
    # names keeps each column where the network was trained to find it
    reordered = list(reversed(DEFAULT_MANIFESTS["MB"].names))
    cfg = write_config(tmp_path / "cfg.json", n_permutations=8, manifests={"MB": reordered})
    for stage in ("features", "predict", "explain"):
        assert main([stage, "--out", str(scratch), "--seed", "1", "--config", cfg]) == 0
    normstats = json.loads((scratch / "normstats.json").read_text())
    assert normstats["groups"]["MB"]["names"] == reordered
    for name in ("predictions.csv", "shap.csv", "globals.csv"):
        bodies = [(tree / name).read_bytes().partition(b"\n")[2] for tree in (scratch, mini_tree)]
        assert bodies[0] == bodies[1], name


# what each fault says of the file: train reads MB's entry in normstats.json, and
# predict and explain read HB's weights file, the first each of them reads
NETWORK_INPUT_FAULTS = {
    "not_json": "Expecting property name enclosed in double quotes",
    "no_std": "no 'std' key",
    "no_weights": "no 'weights' key",
    "no_normstats": "no 'normstats' key",
    "event_999": "event ids [999] are not {group} catalog events",
    "event_twice": "event ids [{first}] are listed more than once",
    "zero_std": "std must be positive for every feature",
    "nan_mean": "mean must be finite for every feature",
    "inf_std": "std must be finite for every feature",
    "unknown_name": "names outside the feature vocabulary: ['speed']",
    "short_b1": "inconsistent layer shapes",
    "nan_w1": "weights must be finite",
    "short_names": "10 feature names for the 11 rows of w1",
}


@pytest.mark.parametrize("stage,fault", [
    *[("train", fault) for fault in ("not_json", "no_std", "event_999", "event_twice",
                                     "zero_std", "nan_mean", "inf_std", "unknown_name")],
    *[(stage, fault) for stage in ("predict", "explain")
      for fault in NETWORK_INPUT_FAULTS if fault != "no_std"],
])
def test_network_stages_name_a_faulty_input_file(stage, fault, mini_tree, tmp_path, caplog):
    scratch = tmp_path / "tree"
    shutil.copytree(mini_tree, scratch)
    group, name, writer = (("MB", "normstats.json", "features") if stage == "train"
                           else ("HB", "weights_HB.json", "train"))
    path = scratch / name
    payload = json.loads(path.read_text())
    entry = payload["groups"][group] if stage == "train" else payload["normstats"]
    if fault in ("no_weights", "no_normstats"):  # the latter as earlier versions wrote it
        del payload[fault[3:]]
    elif fault == "no_std":
        del entry["std"]
    elif fault == "event_999":
        entry["event_ids"][-1] = 999
    elif fault == "event_twice":
        entry["event_ids"][-1] = entry["event_ids"][0]
    elif fault == "zero_std":
        entry["std"][0] = 0.0
    elif fault == "nan_mean":  # json writes NaN and Infinity, and reads them back
        entry["mean"][0] = float("nan")
    elif fault == "inf_std":
        entry["std"][0] = float("inf")
    elif fault == "unknown_name":
        entry["names"][0] = "speed"
    elif fault == "short_b1":
        payload["weights"]["b1"].pop()
    elif fault == "nan_w1":
        payload["weights"]["w1"][0][0] = float("nan")
    elif fault == "short_names":
        for key in ("names", "mean", "std"):
            entry[key].pop()
    path.write_text("{" if fault == "not_json" else json.dumps(payload))
    caplog.clear()
    with caplog.at_level(logging.ERROR):
        assert main([stage, "--out", str(scratch), "--seed", "1"]) == 1
    assert [r.levelno for r in caplog.records] == [logging.ERROR]
    detail = NETWORK_INPUT_FAULTS[fault].format(group=group, first=entry["event_ids"][0])
    assert re.fullmatch(rf"{re.escape(str(path))} holds no usable inputs for group {group} "
                        rf"\(.*{re.escape(detail)}.*\); run the {writer} stage again",
                        caplog.records[0].getMessage())


@pytest.mark.parametrize("stage", ["predict", "explain"])
def test_network_stages_refuse_weights_that_are_not_float32(stage, mini_tree, tmp_path,
                                                            caplog):
    # one value off float32, as versions that trained in float64 wrote every value
    scratch = tmp_path / "tree"
    shutil.copytree(mini_tree, scratch)
    path = scratch / "weights_HB.json"
    payload = json.loads(path.read_text())
    payload["weights"]["w2"][3][1] = 0.1
    path.write_text(json.dumps(payload))
    caplog.clear()
    with caplog.at_level(logging.ERROR):
        assert main([stage, "--out", str(scratch), "--seed", "1"]) == 1
    assert [r.getMessage() for r in caplog.records] == [
        f"{path} holds no usable inputs for group HB (w2 holds values that are not float32, "
        f"as earlier versions wrote them); run the train stage again"]


def test_trained_weights_load_back_bit_for_bit(mini_tree):
    for group in NETWORK_GROUPS:
        stored = json.loads((mini_tree / f"weights_{group}.json").read_text())["weights"]
        weights = pipeline._network(mini_tree, group)[1]
        for name, values in stored.items():
            loaded = getattr(weights, name)
            assert loaded.dtype == np.float32, (group, name)
            # every stored value is a float32, and the loaded array holds exactly it
            assert np.array(values).astype(np.float32).astype(float).tolist() == values
            assert loaded.astype(float).tolist() == values, (group, name)


N_FRAMES_1 = scenarios.event_by_id(1).n_frames
# each damage to an input another stage wrote: the file, the stage that writes it, and
# what the one ERROR line says of it, or by stage where stages say it apart; {row} is
# the damaged data row, by event and time
READ_FAULTS = {
    "curves_no_mean": ("curves.csv", "reconstruct", r"lacks the mean column"),
    "curves_nan_mean": ("curves.csv", "reconstruct",
                        r"{row} holds '' in column mean, not a number"),
    "curves_mean_57": ("curves.csv", "reconstruct", r"{row} holds mean 57\.0, outside 0\.\.10"),
    "curves_empty": ("curves.csv", "reconstruct", r"holds no header row"),
    "curves_header_only": ("curves.csv", "reconstruct", r"holds a header and no data rows"),
    # each event's rows sorted by mean, as a spreadsheet sort leaves them; {frame} is the
    # frame whose place the damaged row takes, and {at} that frame's time
    "curves_sorted_by_mean": ("curves.csv", "reconstruct",
                              r"{row} is out of time order: its event's frame {frame} lies "
                              r"at t {at}"),
    # event 1's rows moved after event 105's
    "curves_event_1_last": ("curves.csv", "reconstruct",
                            r"{row} follows a row of event 105: rows must run event by event "
                            r"in rising id order"),
    # a stray byte on the file's fourth line, its second data row
    "curves_not_utf8": ("curves.csv", "reconstruct",
                        r"line 4 holds the byte 0xff, which is not UTF-8 \(invalid start byte\)"),
    "curves_lacks_event_1": ("curves.csv", "reconstruct", {
        "train": r"lacks event 1 needed by MB",
        "calibrate": r"holds no usable calibration targets \(targets missing MB events: \[1\]\)"}),
    "curves_event_1_short": ("curves.csv", "reconstruct",
                             rf"lacks event 1 at its {N_FRAMES_1} frames "
                             rf"\(it holds {N_FRAMES_1 - 1} rows of it\)"),
    "curves_event_999": ("curves.csv", "reconstruct",
                         r"holds rows of event 999, which is not a catalog event"),
    "events_not_json": ("events.json", "generate", r"holds no usable event list \(.+\)"),
    "events_999": ("events.json", "generate",
                   r"lists ids that are not catalog events: \[999\]"),
    "events_str_1": ("events.json", "generate",
                     r"lists ids that are not catalog events: \['1'\]"),
    "events_true": ("events.json", "generate",
                    r"lists ids that are not catalog events: \[True\]"),
    "drf_not_json": ("calibration_drf.json", "calibrate",
                     r"holds no usable DRF parameters \(Expecting property name .+\)"),
    "pcad_unknown_param": ("calibration_pcad.json", "calibrate",
                           r"holds no usable PCAD parameters "
                           r"\(.*unexpected keyword argument 'speed'\)"),
    "pcad_nan_param": ("calibration_pcad.json", "calibrate",
                       r"holds no usable PCAD parameters \(model outputs must be finite\)"),
    "pcad_no_best_params": ("calibration_pcad.json", "calibrate",
                            r"holds no usable PCAD parameters \(no 'best_params' key\)"),
    "predictions_no_mean": ("predictions.csv", "predict", r"lacks the mean column"),
    "predictions_stamp_only": ("predictions.csv", "predict", r"holds no header row"),
    "predictions_mean_57": ("predictions.csv", "predict",
                            r"{row} holds mean 57\.0, outside 0\.\.10"),
    # event 1's rows in reverse time order
    "predictions_event_1_reversed": ("predictions.csv", "predict",
                                     r"{row} is out of time order: its event's frame {frame} "
                                     r"lies at t {at}"),
    "predictions_lack_event_1": ("predictions.csv", "predict",
                                 rf"lacks event 1 at its {N_FRAMES_1} frames "
                                 r"\(it holds 0 rows of it\)"),
    "predictions_event_1_short": ("predictions.csv", "predict",
                                  rf"lacks event 1 at its {N_FRAMES_1} frames "
                                  rf"\(it holds {N_FRAMES_1 - 1} rows of it\)"),
    "ratings_valid_header_only": ("ratings_valid.csv", "ingest", r"holds no rating rows"),
    # data row 4: a "nan" score, as another tool writes NaN; a scenario no network has;
    # the rank of the row above it
    "globals_nan_score": ("globals.csv", "explain",
                          r"{row} holds mean_abs_phi nan, not a finite score of at least 0"),
    "globals_foreign_scenario": ("globals.csv", "explain",
                                 r"{row} names a scenario that is not a network group"),
    "globals_rank_twice": ("globals.csv", "explain",
                           r"{row} holds rank 3, but the ranks of scenario HB run 1\.\.11, "
                           r"each once"),
    "shap_t_400": ("shap.csv", "explain", r"{row} lies outside the event's predicted frames"),
    "shap_t_negative": ("shap.csv", "explain",
                        r"{row} lies outside the event's predicted frames"),
    # a network that a narrowed train leaves in place
    "kept_not_json": ("weights_HB.json", "train",
                      r"holds no usable training report for group HB \(Expecting .+\)"),
    "kept_no_report": ("weights_HB.json", "train",
                       r"holds no usable training report for group HB \(no 'report' key\)"),
}


@pytest.mark.parametrize("stage,fault", [
    *[(stage, fault) for fault in ("curves_no_mean", "curves_nan_mean", "curves_mean_57",
                                   "curves_empty", "curves_header_only", "curves_sorted_by_mean",
                                   "curves_event_1_last", "curves_not_utf8",
                                   "curves_event_1_short", "curves_event_999")
      for stage in ("train", "calibrate", "report")],
    ("train", "curves_lacks_event_1"),
    ("calibrate", "curves_lacks_event_1"),
    *[("features", fault) for fault in ("events_not_json", "events_999", "events_str_1",
                                        "events_true")],
    *[("report", fault) for fault in READ_FAULTS
      if not fault.startswith(("curves", "events", "kept", "ratings"))],
    ("reconstruct", "ratings_valid_header_only"),
    ("train", "kept_not_json"),
    ("train", "kept_no_report"),
])
def test_stages_name_a_faulty_input_file(stage, fault, mini_tree, tmp_path, caplog):
    scratch = tmp_path / "tree"
    shutil.copytree(mini_tree, scratch)
    name, writer, detail = READ_FAULTS[fault]
    if isinstance(detail, dict):
        detail = detail[stage]
    path = scratch / name
    row = 0
    if fault.endswith("not_json"):
        path.write_text("{")
    elif fault == "curves_empty":
        path.write_bytes(b"")
    elif fault == "predictions_stamp_only":
        path.write_bytes(path.read_bytes().partition(b"\n")[0] + b"\n")
    elif fault.endswith("header_only"):  # the stamp and header lines
        path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:2]))
    elif fault == "curves_not_utf8":
        lines = path.read_bytes().split(b"\n")
        lines[3] = lines[3].replace(b",", b"\xff,", 1)
        path.write_bytes(b"\n".join(lines))
    elif name.endswith(".json"):
        payload = json.loads(path.read_text())
        if fault.startswith("events"):  # in place of event 1, which MB's network would lose
            payload["events"][0]["event_id"] = {"events_999": 999, "events_str_1": "1",
                                                "events_true": True}[fault]
        elif fault == "pcad_unknown_param":
            payload["best_params"]["speed"] = 1.0
        elif fault == "pcad_nan_param":
            payload["best_params"]["alpha"] = float("nan")
        else:
            del payload["report" if fault == "kept_no_report" else "best_params"]
        path.write_text(json.dumps(payload))
    else:
        table = read_csv(path)
        if fault.endswith("no_mean"):
            del table["mean"]
        elif fault in ("curves_lacks_event_1", "predictions_lack_event_1"):
            table = {c: column[table["event_id"] != 1] for c, column in table.items()}
        elif fault.endswith("event_1_short"):  # its last frame dropped
            last = np.flatnonzero(table["event_id"] == 1)[-1]
            table = {c: np.delete(column, last) for c, column in table.items()}
        elif fault == "curves_event_999":  # a copy of the last row, as event 999
            table = {c: np.append(column, column[-1]) for c, column in table.items()}
            table["event_id"][-1] = 999
        elif fault.endswith(("sorted_by_mean", "reversed", "last")):
            order = np.arange(table["mean"].size)
            if fault == "curves_sorted_by_mean":
                order = np.lexsort((table["mean"], table["event_id"]))
            elif fault == "curves_event_1_last":
                order = np.argsort(table["event_id"] == 1, kind="stable")
            else:
                order[table["event_id"] == 1] = order[table["event_id"] == 1][::-1]
            table = {c: column[order] for c, column in table.items()}
            row = np.flatnonzero(order != np.arange(order.size))[0]  # the first row moved
            if fault == "curves_event_1_last":  # the first row after a higher event's
                row = np.flatnonzero(np.diff(table["event_id"]) < 0)[0] + 1
        elif fault.startswith("globals"):
            row = 3
            if fault == "globals_nan_score":
                table["mean_abs_phi"] = table["mean_abs_phi"].astype(str)
                table["mean_abs_phi"][row] = "nan"
            elif fault == "globals_foreign_scenario":
                table["scenario"][row] = "ZZZ"
            else:
                table["rank"][row] = table["rank"][row - 1]
        elif fault.endswith(("nan_mean", "mean_57")):
            row = 3
            table["mean"][row] = np.nan if fault == "curves_nan_mean" else 57.0
        else:
            table["t"][row] = 400.0 if fault == "shap_t_400" else -0.1
        write_csv(path, table, seed=1)
        table = read_csv(path)
        if "event_id" not in table:  # globals.csv
            detail = detail.format(row=re.escape(f"data row {row + 1} (scenario "
                                                 f"{table['scenario'][row]}, feature "
                                                 f"{table['feature'][row]})"))
        else:
            frame = row - np.flatnonzero(table["event_id"] == table["event_id"][row])[0]
            detail = detail.format(frame=frame, at=re.escape(f"{frame * scenarios.DT:g}"),
                                   row=re.escape(f"data row {row + 1} (event "
                                                 f"{table['event_id'][row]}, t {table['t'][row]})"))
    flags = {"train": ["--epochs", "2"], "calibrate": ["--draws", "2"]}.get(stage, [])
    if fault.startswith("kept"):
        flags += ["--scenario", "MB"]
    caplog.clear()
    with caplog.at_level(logging.ERROR):
        assert main([stage, "--out", str(scratch), "--seed", "1", *flags]) == 1
    assert [r.levelno for r in caplog.records] == [logging.ERROR]
    assert re.fullmatch(rf"{re.escape(str(path))} {detail}; run the {writer} stage again",
                        caplog.records[0].getMessage())
    if stage == "train":  # it stops before it trains anything
        for name in ("weights_MB.json", "training_log.csv"):
            assert (scratch / name).read_bytes() == (mini_tree / name).read_bytes(), name


def test_a_failing_report_keeps_the_old_report_tables(mini_tree, tmp_path, caplog):
    scratch = tmp_path / "tree"
    shutil.copytree(mini_tree, scratch)
    # curves.csv without its last event, which report would leave out of its comparison,
    # so a report_curves.csv written from it would differ
    curves = scratch / "curves.csv"
    last = f"{scenarios.CATALOG[-1].event_id},".encode()
    curves.write_bytes(b"".join(line for line in curves.read_bytes().splitlines(keepends=True)
                                if not line.startswith(last)))
    predictions = scratch / "predictions.csv"
    predictions.write_bytes(predictions.read_bytes().partition(b"\n")[0] + b"\n")
    with caplog.at_level(logging.ERROR):
        assert main(["report", "--out", str(scratch), "--seed", "1"]) == 1
    assert [r.getMessage() for r in caplog.records] == [
        f"{predictions} holds no header row; run the predict stage again"]
    for name in pipeline.STAGES["report"][2]:
        assert (scratch / name).read_bytes() == (mini_tree / name).read_bytes(), name


def test_report_accepts_a_shap_table_without_rows(mini_tree, tmp_path):
    scratch = tmp_path / "tree"
    shutil.copytree(mini_tree, scratch)
    # an event outside the catalog selects no network: explain writes headers alone
    assert main(["explain", "--out", str(scratch), "--seed", "1", "--events", "999"]) == 0
    assert read_csv(scratch / "shap.csv")["event_id"].size == 0
    assert main(["report", "--out", str(scratch), "--seed", "1"]) == 0
    heatmap = read_csv(scratch / "report_heatmap.csv")
    assert list(heatmap) == ["event_id", "t", "feature", "phi", "predicted"]
    assert all(column.size == 0 for column in heatmap.values())


def test_network_stages_read_no_feature_table(mini_tree, tmp_path):
    scratch = tmp_path / "tree"
    shutil.copytree(mini_tree, scratch)
    for path in scratch.glob("features_*.csv"):
        path.unlink()
    cfg = write_config(tmp_path / "cfg.json", n_permutations=8)
    assert main(["predict", "--out", str(scratch), "--seed", "1"]) == 0
    assert main(["explain", "--out", str(scratch), "--seed", "1", "--config", cfg]) == 0
    for name in ("predictions.csv", "shap.csv", "globals.csv"):
        assert (scratch / name).read_bytes() == (mini_tree / name).read_bytes(), name


def test_network_stages_take_their_events_from_normstats(mini_tree, tmp_path):
    scratch = tmp_path / "tree"
    shutil.copytree(mini_tree, scratch)
    # a narrower generate rewrites events.json; the fitted statistics still list
    # both normal lane changes, and training rebuilds exactly those
    assert main(["generate", "--out", str(scratch), "--scenario", "LC_normal_slow"]) == 0
    assert main(["train", "--out", str(scratch), "--seed", "1", "--scenario", "LC_normal",
                 "--epochs", "2"]) == 0
    name = "weights_LC_normal.json"
    assert (scratch / name).read_bytes() == (mini_tree / name).read_bytes()


def test_training_pairs_each_frame_with_its_own_event(mini_tree, tmp_path, monkeypatch):
    scratch = tmp_path / "tree"
    shutil.copytree(mini_tree, scratch)
    normstats = json.loads((scratch / "normstats.json").read_text())
    listed = normstats["groups"]["MB"]["event_ids"][::-1]  # out of catalog order
    normstats["groups"]["MB"]["event_ids"] = listed
    (scratch / "normstats.json").write_text(json.dumps(normstats))
    fitted = []

    def capture(x, y, config):
        fitted.append(y)
        raise pipeline.TrainingDiverged("stopped after the first group")

    monkeypatch.setattr(pipeline, "mlp_train", capture)
    assert main(["train", "--out", str(scratch), "--seed", "1", "--scenario", "MB"]) == 1
    curves = read_csv(scratch / "curves.csv")
    want = np.concatenate([curves["mean"][curves["event_id"] == eid] for eid in listed])
    assert fitted[0].tobytes() == want.tobytes()


def test_features_refuses_an_events_file_that_lists_no_events(tmp_path, caplog):
    assert main(["generate", "--out", str(tmp_path)]) == 0
    events_json = tmp_path / "events.json"
    payload = json.loads(events_json.read_text())
    events_json.write_text(json.dumps({**payload, "events": []}))
    caplog.clear()
    with caplog.at_level(logging.ERROR):
        assert main(["features", "--out", str(tmp_path)]) == 1
    assert [r.getMessage() for r in caplog.records] == [
        f"{events_json} lists no events; run the generate stage again"]
    assert not (tmp_path / "normstats.json").exists()


def test_narrowed_features_drop_stale_group_matrices(tmp_path):
    out = str(tmp_path)
    assert main(["generate", "--out", out]) == 0
    assert main(["features", "--out", out]) == 0
    assert (tmp_path / "features_HB.csv").exists()
    assert main(["generate", "--out", out, "--scenario", "MB"]) == 0
    assert main(["features", "--out", out]) == 0
    assert [p.name for p in tmp_path.glob("features_*.csv")] == ["features_MB.csv"]
    normstats = json.loads((tmp_path / "normstats.json").read_text())
    assert list(normstats["groups"]) == ["MB"]


@pytest.mark.parametrize("stage,needs", [
    ("reconstruct", "run the ingest stage first"),
    ("features", "run the generate stage first"),
    ("train", "run the reconstruct stage first"),
    ("predict", "run the train stage first"),
    ("calibrate", "run the reconstruct stage first"),
    ("explain", "run the train stage first"),
    ("report", "run the reconstruct stage first"),
])
def test_missing_dependency_messages(stage, needs, tmp_path, caplog):
    with caplog.at_level(logging.ERROR):
        assert main([stage, "--out", str(tmp_path)]) == 1
    assert needs in caplog.text


def test_ingest_needs_a_source(tmp_path, monkeypatch, caplog):
    empty = tmp_path / "data"
    empty.mkdir()
    for stage in ("ingest", "all"):  # all finds its ratings as ingest does
        out = str(tmp_path / stage)
        monkeypatch.delenv("RISKDECODE_DATA_DIR", raising=False)
        with pytest.raises(SystemExit, match="ingest needs a ratings path"):
            main([stage, "--out", out])
        monkeypatch.setenv("RISKDECODE_DATA_DIR", str(empty))
        caplog.clear()
        with caplog.at_level(logging.ERROR):
            assert main([stage, "--out", out]) == 1
        assert "does not exist" in caplog.text


def test_synthetic_ingest_branch(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", participants=3)
    out = tmp_path / "run"
    assert main(["ingest", "--synthetic", "--out", str(out),
                 "--config", cfg]) == 0
    assert (out / "ratings.csv").exists()
    index = json.loads((out / "dataset_index.json").read_text())
    assert index["n_participants"] <= 3


def test_bad_selector_and_config(tmp_path, caplog):
    with caplog.at_level(logging.ERROR):
        assert main(["generate", "--out", str(tmp_path),
                     "--scenario", "UFO"]) == 1
    assert "matches no events" in caplog.text
    bad = tmp_path / "cfg.json"
    bad.write_text("[1, 2]", encoding="utf-8")
    # a malformed config is one error line naming the file, not a traceback
    typo = write_config(tmp_path / "typo.json", n_permutation=8)
    not_json = tmp_path / "broken.json"
    not_json.write_text("{draws: 2", encoding="utf-8")
    for stage, config, message in [
        ("generate", bad, "JSON object"),
        # a misspelt key is named, with its file and the keys that exist
        ("explain", typo, rf"config {re.escape(typo)} has unknown keys "
                          r"\['n_permutation'\]; known keys: .*'n_permutations'"),
        ("generate", not_json, rf"config {re.escape(str(not_json))} is not JSON: "),
        ("generate", tmp_path / "missing.json", r"No such file or directory: .*missing\.json"),
    ]:
        caplog.clear()
        with caplog.at_level(logging.ERROR):
            assert main([stage, "--out", str(tmp_path), "--config", str(config)]) == 1
        assert [r.levelno for r in caplog.records] == [logging.ERROR]
        assert re.search(message, caplog.records[0].getMessage())
    for option in ("n_permutation", "scenario"):
        with pytest.raises(TypeError, match=rf"run_all takes no options \['{option}'\]"):
            run_all(tmp_path, **{option: 8})


BOUNDS = "bounds must map any of PCAD, DRF to objects of [low, high] finite number pairs (was "
MANIFESTS = ("manifests must map any of MB, HB, SVM, LC_normal, LC_fragmented, LC_aborted to "
             "lists of strings (was ")


@pytest.mark.parametrize("argv,entry,message", [
    (["explain"], '"n_permutations": 2.5', "n_permutations must be a positive integer (was 2.5)"),
    (["explain"], '"n_permutations": 0', "n_permutations must be a positive integer (was 0)"),
    (["train"], '"epochs": "3"', 'epochs must be a positive integer (was "3")'),
    (["calibrate"], '"draws": true', "draws must be a positive integer (was true)"),
    (["ingest", "--synthetic"], '"participants": -2',
     "participants must be a positive integer (was -2)"),
    (["train"], '"learning_rate": 0', "learning_rate must be a positive finite number (was 0)"),
    (["train"], '"learning_rate": "0.01"',
     'learning_rate must be a positive finite number (was "0.01")'),
    (["train"], '"learning_rate": NaN', "learning_rate must be a positive finite number (was NaN)"),
    (["train"], '"learning_rate": true',
     "learning_rate must be a positive finite number (was true)"),
    (["ingest"], '"dataset": 5', "dataset must be a string (was 5)"),
    (["calibrate"], '"bounds": {"PCAD": [1]}', BOUNDS + '{"PCAD": [1]})'),
    (["calibrate"], '"bounds": {"PCAD": {"alpha": [1, 2, 3]}}',
     BOUNDS + '{"PCAD": {"alpha": [1, 2, 3]}})'),
    (["calibrate"], '"bounds": {"XYZ": {"alpha": [1, 2]}}', BOUNDS + '{"XYZ": {"alpha": [1, 2]}})'),
    (["calibrate"], '"bounds": []', BOUNDS + "[])"),
    (["features"], '"manifests": {"XX": ["dx"]}', MANIFESTS + '{"XX": ["dx"]})'),
    (["features"], '"manifests": []', MANIFESTS + "[])"),
    (["ingest", "--synthetic"], '"profile": {"ratingz": "x"}',
     "profile must map any of participant_id, event_id, clip_index, rating to strings "
     '(was {"ratingz": "x"})'),
], ids=["fractional_count", "zero_count", "string_count", "boolean_count", "negative_count",
        "zero_rate", "string_rate", "nan_rate", "boolean_rate", "number_dataset",
        "list_model_bounds", "three_bounds", "unknown_model_bounds", "list_bounds",
        "unknown_group_manifest", "list_manifests", "unknown_profile_column"])
def test_a_config_value_of_the_wrong_type_is_one_error_line(argv, entry, message, tmp_path,
                                                            caplog):
    # a count or rate of the wrong JSON type once ended in a TypeError traceback, ran
    # one draw for true, or was refused without naming the config file; a dataset,
    # profile, manifests or bounds value of the wrong shape ended in a traceback, in a
    # bare "too many values to unpack", or went unread while the stage exited 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{" + entry + "}", encoding="utf-8")
    with caplog.at_level(logging.ERROR):
        assert main([*argv, "--out", str(tmp_path / "run"), "--config", str(cfg)]) == 1
    assert [r.getMessage() for r in caplog.records] == [f"config {cfg}: {message}"]
