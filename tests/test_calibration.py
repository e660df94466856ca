"""Calibration search and model comparison: scoring, coverage, tie rules."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from risk_oracles import drf_series, pcad_series

from riskdecode.calibration import (DRF_BOUNDS, HISTOGRAM_BIN_WIDTH, LOG_UNIFORM_PARAMS,
                                    MODEL_DEFAULTS, PCAD_BOUNDS, CalibrationJob, calibrate,
                                    compare_models, minmax_rescale, rmse)
from riskdecode.risk_models import PcadParams, pcad_risk_series
from riskdecode.scenarios import enumerate_events, event_by_id, simulate_event

N_MB = 301
N_LC = 361


@pytest.fixture(scope="module")
def mb_trajectories():
    return {e.event_id: simulate_event(e)
            for e in enumerate_events() if e.family == "MB"}


def default_pcad_targets(trajectories):
    """Jointly rescaled default-parameter outputs, split back per event."""
    ids = sorted(trajectories)
    raw = [pcad_risk_series(trajectories[eid], PcadParams()) for eid in ids]
    scaled = minmax_rescale(np.concatenate(raw))
    targets, start = {}, 0
    for eid, series in zip(ids, raw):
        targets[eid] = scaled[start:start + series.size]
        start += series.size
    return targets


def test_rmse():
    assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))
    with pytest.raises(ValueError):
        rmse([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        rmse([], [])


def test_minmax_rescale():
    out = minmax_rescale([2.0, 4.0, 6.0])
    assert np.allclose(out, [0.0, 5.0, 10.0])
    # joint scaling keeps cross-collection ordering
    joint = minmax_rescale(np.array([[1.0, 3.0], [2.0, 5.0]]))
    assert joint.max() == 10.0 and joint.min() == 0.0
    assert joint[0, 1] > joint[1, 0]
    with pytest.raises(ValueError):
        minmax_rescale([])
    with pytest.raises(ValueError):
        minmax_rescale([1.0, np.inf])
    with pytest.raises(ValueError):
        minmax_rescale([2.0, 2.0, 2.0])


def test_job_validation():
    targets = {1: np.zeros(N_MB)}
    with pytest.raises(ValueError):
        CalibrationJob("TTC", targets, draws=5, seed=0)
    with pytest.raises(ValueError):
        CalibrationJob("PCAD", targets, draws=0, seed=0)
    with pytest.raises(ValueError):
        CalibrationJob("PCAD", {}, draws=5, seed=0)


def test_bounds_validation():
    targets = {1: np.zeros(N_MB)}
    with pytest.raises(ValueError, match="unknown"):
        CalibrationJob("PCAD", targets, 5, 0, bounds={"gamma": (0.0, 1.0)})
    with pytest.raises(ValueError, match="lower < upper"):
        CalibrationJob("PCAD", targets, 5, 0, bounds={"alpha": (2.0, 1.0)})
    with pytest.raises(ValueError, match="finite"):
        CalibrationJob("PCAD", targets, 5, 0, bounds={"alpha": (0.0, np.inf)})
    # scale parameters are drawn log-uniformly and need positive floors
    with pytest.raises(ValueError, match="positive"):
        CalibrationJob("PCAD", targets, 5, 0, bounds={"sigma_n_x": (0.0, 2.0)})


def test_coverage_requires_whole_family(mb_trajectories):
    targets = default_pcad_targets(mb_trajectories)
    partial = {eid: targets[eid] for eid in list(sorted(targets))[:5]}
    job = CalibrationJob("PCAD", partial, draws=1, seed=0)
    with pytest.raises(ValueError, match="missing MB events"):
        calibrate(job, mb_trajectories)
    bad_shape = dict(targets)
    bad_shape[1] = targets[1][:-1]
    job = CalibrationJob("PCAD", bad_shape, draws=1, seed=0)
    with pytest.raises(ValueError, match="shape"):
        calibrate(job, mb_trajectories)


def test_calibrate_scores_defaults_as_draw_zero(mb_trajectories):
    targets = default_pcad_targets(mb_trajectories)
    job = CalibrationJob("PCAD", targets, draws=4, seed=3)
    result = calibrate(job, mb_trajectories)
    # targets came from the defaults, so draw 0 is already perfect
    assert result.best_draw == 0
    assert result.best_rmse == pytest.approx(0.0, abs=1e-12)
    defaults = PcadParams()
    for name in job.resolved_bounds():
        assert result.trace[0][name] == getattr(defaults, name)
    assert len(result.trace) == 4
    assert result.best_params == defaults


def test_calibrate_picks_running_minimum(mb_trajectories):
    rng = np.random.default_rng(0)
    targets = {eid: rng.uniform(0.0, 10.0, size=N_MB)
               for eid in mb_trajectories}
    job = CalibrationJob("PCAD", targets, draws=8, seed=1)
    result = calibrate(job, mb_trajectories)
    scores = [row["rmse"] for row in result.trace]
    assert result.best_rmse == min(scores)
    assert result.best_draw == int(np.argmin(scores))
    for name, value in vars(result.best_params).items():
        assert result.trace[result.best_draw].get(name, value) == value


def test_calibrate_ties_go_to_the_earliest_draw(mb_trajectories):
    # the joint rescale cancels a pure output gain, so a c_sev-only search
    # scores every draw identically and the default draw must win
    targets = default_pcad_targets(mb_trajectories)
    job = CalibrationJob("DRF", targets, draws=5, seed=2,
                         bounds={"c_sev": (1.0, 100.0)})
    result = calibrate(job, mb_trajectories)
    scores = [row["rmse"] for row in result.trace]
    assert np.ptp(scores) <= 1e-12
    assert result.best_draw == 0


def test_calibrate_degenerate_output_never_wins(mb_trajectories):
    # neighbours 10 km away: identically zero risk cannot be rescaled
    far = {eid: replace(traj, neighbours=tuple(
               replace(n, x=n.x + 10000.0) for n in traj.neighbours))
           for eid, traj in mb_trajectories.items()}
    targets = {eid: np.full(N_MB, 5.0) for eid in far}
    job = CalibrationJob("PCAD", targets, draws=3, seed=0)
    result = calibrate(job, far)
    assert all(row["rmse"] == np.inf for row in result.trace)
    assert result.best_rmse == np.inf
    assert result.best_params == PcadParams()


def oracle_trace(job, trajectories, reference):
    """The search loop scored event by event with a per-event reference series."""
    ids = sorted(job.targets)
    target = np.concatenate([job.targets[eid] for eid in ids])
    defaults = MODEL_DEFAULTS[job.model]()
    bounds = job.resolved_bounds()
    rng = np.random.default_rng(job.seed)
    trace = []
    for draw in range(job.draws):
        if draw == 0:
            record = {name: getattr(defaults, name) for name in bounds}
        else:
            record = {name: float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
                      if name in LOG_UNIFORM_PARAMS else float(rng.uniform(lo, hi))
                      for name, (lo, hi) in bounds.items()}
        params = replace(defaults, **record)
        raw = np.concatenate([reference(trajectories[eid], params) for eid in ids])
        score = rmse(minmax_rescale(raw), target) if raw.max() > raw.min() else math.inf
        trace.append({"draw": draw, **record, "rmse": score})
    return trace


@pytest.mark.parametrize("model, bounds, reference", [
    ("PCAD", {**PCAD_BOUNDS, "t_h": (2.0, 20.0)}, pcad_series),
    ("DRF", {**DRF_BOUNDS, "grid_dx": (0.3, 1.0)}, drf_series),
])
def test_calibrate_trace_matches_per_event_loop(mb_trajectories, model, bounds, reference):
    rng = np.random.default_rng(4)
    targets = {eid: rng.uniform(0.0, 10.0, size=N_MB) for eid in mb_trajectories}
    job = CalibrationJob(model, targets, draws=6, seed=5, bounds=bounds)
    result = calibrate(job, mb_trajectories)
    assert list(result.trace) == oracle_trace(job, mb_trajectories, reference)


def test_compare_models_stats_and_histograms():
    truth = np.zeros(N_MB + N_LC)
    outputs = {
        "A": np.r_[np.full(N_MB, 1.0), np.full(N_LC, 0.5)],
        "B": np.full(N_MB + N_LC, 2.0),
    }
    report = compare_models([1, 55], truth, outputs)
    assert report.scenario_stats[("MB", "A")] == (1.0, 1.0, 1.0)
    assert report.scenario_stats[("LC", "A")] == (0.5, 0.5, 0.5)
    assert report.scenario_stats[("LC", "B")][0] == 2.0
    lows, counts = report.histograms["A"]
    assert lows.size == counts.size == int(10.0 / report.bin_width)
    assert counts[np.searchsorted(lows, 1.0)] == N_MB
    assert counts[np.searchsorted(lows, 0.5)] == N_LC
    assert counts.sum() == N_MB + N_LC


def compare_models_per_event(truth, outputs):
    """``compare_models``'s statistics from per-event error arrays, concatenated per
    family and per model."""
    event_ids = sorted(truth)
    abs_errors = {model: {eid: np.abs(np.asarray(outputs[model][eid], dtype=float)
                                      - np.asarray(truth[eid], dtype=float))
                          for eid in event_ids}
                  for model in sorted(outputs)}
    scenario_stats = {}
    for family in sorted({event_by_id(eid).family for eid in event_ids}):
        family_ids = [eid for eid in event_ids if event_by_id(eid).family == family]
        for model in sorted(outputs):
            pooled = np.concatenate([abs_errors[model][eid] for eid in family_ids])
            q1, q3 = np.percentile(pooled, [25.0, 75.0])
            scenario_stats[(family, model)] = (float(np.median(pooled)), float(q1), float(q3))
    edges = np.arange(0.0, 10.0 + HISTOGRAM_BIN_WIDTH, HISTOGRAM_BIN_WIDTH)
    histograms = {}
    for model in sorted(outputs):
        pooled = np.concatenate([abs_errors[model][eid] for eid in event_ids])
        histograms[model] = (edges[:-1].copy(), np.histogram(pooled, bins=edges)[0])
    return scenario_stats, histograms


@pytest.mark.parametrize("seed", range(4))
def test_compare_models_matches_per_event_loop(seed):
    # three or four families, two or three models; quarter-step values tie many
    # errors, on the histogram's bin edges too
    rng = np.random.default_rng(seed)
    event_ids = [1, 2, 28, 55, 56, 79][:4 + 2 * (seed % 2)]
    frames = {eid: event_by_id(eid).n_frames for eid in event_ids}
    truth = {eid: rng.integers(0, 41, n) / 4.0 for eid, n in frames.items()}
    outputs = {model: {eid: rng.integers(0, 41, n) / 4.0 for eid, n in frames.items()}
               for model in ("MLP", "DRF", "PCAD")[:2 + seed // 2]}
    report = compare_models(event_ids, np.concatenate(list(truth.values())),
                            {model: np.concatenate(list(series.values()))
                             for model, series in outputs.items()})
    stats, histograms = compare_models_per_event(truth, outputs)
    assert report.scenario_stats == stats
    assert list(report.scenario_stats) == list(stats)
    assert list(report.histograms) == list(histograms)
    for model, (lows, counts) in histograms.items():
        assert report.histograms[model][0].tobytes() == lows.tobytes(), model
        assert report.histograms[model][1].tobytes() == counts.tobytes(), model


def test_compare_models_validation():
    truth = np.zeros(N_MB)
    with pytest.raises(ValueError):
        compare_models([], np.zeros(0), {"A": np.zeros(0)})
    with pytest.raises(ValueError):
        compare_models([1], truth, {})
    with pytest.raises(ValueError,
                       match=rf"truth series has shape \({N_MB},\), expected \({2 * N_MB},\)"):
        compare_models([1, 2], truth, {"A": np.zeros(2 * N_MB)})
    with pytest.raises(ValueError, match="shape"):
        compare_models([1], truth, {"A": np.zeros(N_MB - 1)})
    with pytest.raises(ValueError, match="finite"):
        compare_models([1], truth, {"A": np.full(N_MB, np.nan)})
    with pytest.raises(ValueError, match="leaves"):
        compare_models([1], truth, {"A": np.full(N_MB, 11.0)})
