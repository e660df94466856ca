"""Release gate: the numbered acceptance criteria, one verdict line each.

Each test evaluates every part of its criterion, prints a single
``criterion N: PASS/FAIL`` line on the real stdout (so it survives pytest
capture), and only then asserts.  The expensive end-to-end rehearsal run
comes from the session fixture and is shared with the unit suite.
"""

import os
import time
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from riskdecode.calibration import CalibrationJob, calibrate, minmax_rescale
from riskdecode.explain import Baseline, explain_jobs, mean_head, shap_exact, shap_sampled
from riskdecode.features import GAP_FLOOR, drac
from riskdecode.mlp import MlpConfig, gradient_check, mlp_init, mlp_train
from riskdecode.pipeline import NETWORK_GROUPS, read_csv, run_ingest
from riskdecode.reconstruction import (crossval_interp, interp_linear,
                                       interp_pchip, interp_quadratic_monotone)
from riskdecode.risk_models import (DrfParams, PcadParams, avoidance_detail,
                                    drf_probability, drf_risk,
                                    pcad_risk_series)
from riskdecode.scenarios import (FrameState, VehicleState, enumerate_events,
                                  event_by_id, simulate_event)

from test_reconstruction import ANCHORS, exact_slope_at, gamma_pulse
from test_risk_models import ZERO_SIGMA, kernel_frame, oracle_exit_distance

RMSE_BAND = (0.2, 0.7)


def _verdict(capsys, number: int, ok: bool, detail: str):
    with capsys.disabled():
        print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}",
              flush=True)
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_catalog_fidelity(capsys):
    start = time.perf_counter()
    specs = enumerate_events()
    elapsed = time.perf_counter() - start
    counts = {}
    for spec in specs:
        counts[spec.family] = counts.get(spec.family, 0) + 1
    sizes_ok = (counts == {"MB": 27, "HB": 27, "LC": 24, "SVM": 27}
                and len(specs) == 105)
    grids_ok = True
    for family in ("MB", "HB", "SVM"):
        sub = [s for s in specs if s.family == family]
        combos = {(s.initial_distance, s.cruise_speed, s.braking_intensity)
                  for s in sub}
        grids_ok &= combos == set(product((5.0, 15.0, 25.0),
                                          (80.0, 100.0, 120.0),
                                          (-2.0, -5.0, -8.0)))
    lc = [s for s in specs if s.family == "LC"]
    grids_ok &= {s.initial_distance for s in lc} == {5.0, 15.0}
    grids_ok &= {s.cruise_speed for s in lc} == {100.0}
    grids_ok &= {s.acc_category for s in lc} == {"cautious", "mild", "aggressive"}
    ok = sizes_ok and grids_ok and elapsed < 1.0
    _verdict(capsys, 1, ok,
             f"105 events, family sizes {counts}, grids complete, "
             f"enumerated in {elapsed * 1000:.0f} ms")


def test_criterion_02_sample_counts(capsys, rehearsal):
    curve_counts: dict = {}
    for eid in read_csv(rehearsal.out / "curves.csv")["event_id"].tolist():
        fam = event_by_id(eid).family
        curve_counts[fam] = curve_counts.get(fam, 0) + 1
    feature_counts: dict = {}
    for group in NETWORK_GROUPS:
        fam = "LC" if group.startswith("LC") else group
        n = len(read_csv(rehearsal.out / f"features_{group}.csv")["t"])
        feature_counts[fam] = feature_counts.get(fam, 0) + n
    expected = {"MB": 8127, "HB": 8127, "SVM": 8127, "LC": 8664}
    ok = curve_counts == expected and feature_counts == expected
    _verdict(capsys, 2, ok,
             f"curve samples {curve_counts}, feature samples {feature_counts}")


def test_criterion_03_drac_oracle_equivalence(capsys):
    rng = np.random.default_rng(23)
    mismatches = 0
    for draw in range(1000):
        v_s = float(rng.uniform(0.0, 40.0))
        v_n = float(rng.uniform(0.0, 40.0))
        gap = float(rng.uniform(0.0, 0.1 if draw % 10 == 0 else 80.0))
        gap_rate = 0.0 if draw % 7 == 0 else float(rng.uniform(-15.0, 15.0))
        if gap_rate >= 0.0:
            expected = 0.0
        else:
            d = v_s - v_n
            expected = d * d / max(gap, GAP_FLOOR)
        if drac(v_s, v_n, gap, gap_rate) != expected:
            mismatches += 1
    _verdict(capsys, 3, mismatches == 0,
             f"1000 randomized states bit-identical to the closed form "
             f"({mismatches} mismatches)")


def test_criterion_04_pcad_geometry(capsys):
    rng = np.random.default_rng(17)
    start = time.perf_counter()
    on_course = 0
    worst_rel = 0.0
    safe_violations = 0
    for draw in range(200):
        dx = float(rng.uniform(6.0, 40.0) * rng.choice([-1.0, 1.0]))
        dy = float(rng.uniform(0.0, 12.0) * rng.choice([-1.0, 1.0]))
        if draw % 2:
            bearing = np.arctan2(dy, dx) + rng.uniform(-0.3, 0.3)
            speed = rng.uniform(2.0, 25.0)
            wx, wy = float(speed * np.cos(bearing)), float(speed * np.sin(bearing))
        else:
            wx = float(rng.uniform(-25.0, 25.0))
            wy = float(rng.uniform(-8.0, 8.0))
        detail = avoidance_detail(kernel_frame(dx, dy, wx, wy), ZERO_SIGMA)
        reference = oracle_exit_distance(wx, wy, dx, dy, 4.5, 2.0, ZERO_SIGMA.t_h)
        if reference == 0.0:
            safe_violations += detail.difficulty != 0.0
        else:
            on_course += 1
            worst_rel = max(worst_rel, abs(detail.difficulty - reference)
                            / max(reference, 1e-3))
    elapsed = time.perf_counter() - start
    sweeps_ok = True
    for speed in (8.0, 15.0, 22.0):
        values = [avoidance_detail(kernel_frame(g, 0.0, speed, 0.0),
                                   ZERO_SIGMA).difficulty
                  for g in np.linspace(6.0, 60.0, 60)]
        sweeps_ok &= bool(np.all(np.diff(values) <= 1e-9))
    ok = (worst_rel <= 0.05 and safe_violations == 0 and on_course > 30
          and sweeps_ok and elapsed < 60.0)
    _verdict(capsys, 4, ok,
             f"{on_course} collision courses, worst rel err {worst_rel:.4f}, "
             f"{safe_violations} safe-state violations, sweeps monotone, "
             f"{elapsed:.1f} s")


def test_criterion_05_drf_identities(capsys):
    params = DrfParams()
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 60.0, size=200)
    y = rng.uniform(0.0, 8.0, size=200)
    sym = np.max(np.abs(drf_probability(x, y, 20.0, params)
                        - drf_probability(x, -y, 20.0, params)))
    preview = 20.0 * params.t_la
    root = np.max(np.abs(drf_probability(preview, y, 20.0, params)))
    ratio = (drf_probability(0.0, params.c_width, 20.0, params)
             / drf_probability(0.0, 0.0, 20.0, params))
    width = abs(ratio - np.exp(-0.5))
    subject = VehicleState(0.0, 0.0, 20.0, 0.0, 0.0, 0.0)
    frame = FrameState(subject, (VehicleState(30.0, 1.0, 15.0, 0.0, 0.0, 0.0),))
    lin = abs(drf_risk(frame, replace(params, c_sev=173.0))
              - 1.73 * drf_risk(frame, params))
    sweep = [drf_risk(FrameState(subject,
                                 (VehicleState(d, 0.0, 15.0, 0.0, 0.0, 0.0),)),
                      params)
             for d in np.linspace(10.0, 60.0, 51)]
    monotone = bool(np.all(np.diff(sweep) <= 1e-12)) and sweep[0] > 0.0
    ok = max(sym, root, width, lin) <= 1e-12 and monotone
    _verdict(capsys, 5, ok,
             f"symmetry {sym:.1e}, preview root {root:.1e}, width {width:.1e}, "
             f"severity linearity {lin:.1e}, dead-ahead sweep nonincreasing")


def test_criterion_06_interpolation(capsys):
    anchor_t = np.array([a[0] for a in ANCHORS])
    anchor_v = np.array([a[1] for a in ANCHORS])
    reproduction = 0.0
    for interp in (interp_linear, interp_quadratic_monotone, interp_pchip):
        reproduction = max(reproduction,
                           np.max(np.abs(interp(ANCHORS, anchor_t) - anchor_v)))
    grid = np.linspace(0.0, 30.0, 3001)
    values = interp_pchip(ANCHORS, grid)
    overshoot = max(anchor_v.min() - values.min(), values.max() - anchor_v.max())
    slopes = max(abs(exact_slope_at(0.0, +1.0)), abs(exact_slope_at(30.0, -1.0)),
                 abs(exact_slope_at(18.0, +1.0)))
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 30.0, 31)
    errors = {"pchip": [], "linear": [], "quadratic": []}
    for _ in range(200):
        truth = gamma_pulse(rng, t)
        for method in errors:
            errors[method].append(crossval_interp(method, truth))
    medians = {m: float(np.median(v)) for m, v in errors.items()}
    ordered = medians["pchip"] < medians["linear"] < medians["quadratic"]
    ok = (reproduction <= 1e-9 and overshoot <= 1e-9 and slopes <= 1e-9
          and ordered)
    _verdict(capsys, 6, ok,
             f"anchor reproduction {reproduction:.1e}, overshoot {overshoot:.1e}, "
             f"end/pole slopes {slopes:.1e}, crossval medians "
             f"{medians['pchip']:.3f} < {medians['linear']:.3f} "
             f"< {medians['quadratic']:.3f}")


def test_criterion_07_mlp_numerics(capsys, rehearsal):
    rng = np.random.default_rng(9)
    small = mlp_init(MlpConfig(input_dim=3, hidden=8, seed=4))
    grad_err = gradient_check(small, rng.normal(size=(12, 3)),
                              np.clip(rng.normal(5.0, 1.0, size=12), 0.0, 10.0))
    rng_fit = np.random.default_rng(3)
    x = rng_fit.normal(size=(32, 5))
    y = np.clip(x @ np.array([0.8, -0.6, 0.5, 0.3, -0.4]) + 5.0, 0.0, 10.0)
    config = MlpConfig(input_dim=5, epochs=2000, seed=11,
                       dropout_rate=1e-6, learning_rate=0.005)
    _, report = mlp_train(x, y, config)
    overfit = report.final_train_rmse
    rerun_cfg = MlpConfig(input_dim=5, hidden=32, epochs=30, seed=5)
    w1, r1 = mlp_train(x, y, rerun_cfg)
    w2, r2 = mlp_train(x, y, rerun_cfg)
    deterministic = (np.array_equal(w1.w1, w2.w1)
                     and np.array_equal(w1.w2, w2.w2)
                     and np.array_equal(r1.val_rmse, r2.val_rmse))
    train_time = rehearsal.timings["train"]
    ok = (grad_err < 1e-4 and overfit < 0.02 and deterministic
          and train_time < 600.0)
    _verdict(capsys, 7, ok,
             f"gradient check {grad_err:.1e}, overfit RMSE {overfit:.4f}, "
             f"bit-exact rerun {deterministic}, six networks trained in "
             f"{train_time:.0f} s")


def test_criterion_08_synthetic_rehearsal(capsys, rehearsal):
    val = {group: entry["final_val_rmse"]
           for group, entry in rehearsal.train.items()}
    in_band = all(RMSE_BAND[0] <= v <= RMSE_BAND[1] for v in val.values())
    stats = rehearsal.report["comparison"].scenario_stats
    families = sorted({fam for fam, _ in stats})
    beats = all(stats[(fam, "MLP")][0] < stats[(fam, "PCAD")][0]
                and stats[(fam, "MLP")][0] < stats[(fam, "DRF")][0]
                for fam in families)
    ok = in_band and beats and len(val) == len(NETWORK_GROUPS)
    summary = ", ".join(f"{g} {v:.3f}" for g, v in sorted(val.items()))
    _verdict(capsys, 8, ok,
             f"validation RMSE in [0.2, 0.7]: {summary}; MLP median beats "
             f"PCAD and DRF in {families}")


def test_criterion_09_shapley(capsys):
    model = mean_head(mlp_init(MlpConfig(input_dim=12, hidden=24, seed=6)))
    rng = np.random.default_rng(42)
    baseline = Baseline(rng.normal(size=12) * 0.1)
    frames = rng.normal(size=(20, 12))
    result = explain_jobs([(model, frames, baseline)])[0]
    local = np.max(np.abs(result.base_value + result.attributions.sum(axis=1)
                          - result.predicted))
    w = rng.normal(size=12)
    linear = lambda z: np.asarray(z) @ w + 2.0
    x = frames[0]
    linear_err = np.max(np.abs(shap_exact(linear, x, baseline)
                               - w * (x - baseline.values)))
    phi = shap_exact(model, x, baseline)
    sampled, _ = shap_sampled(model, x, baseline, 2000, 0)
    deviation = np.max(np.abs(sampled - phi)) / np.max(np.abs(phi))
    # consistency pair: adding a main effect of feature 0 must raise its
    # attribution and leave the inert feature at zero
    pair_base = Baseline(np.zeros(3))
    point = np.ones(3)
    f_a = lambda z: np.asarray(z)[:, 0] * np.asarray(z)[:, 1]
    f_b = lambda z: f_a(z) + 0.5 * np.asarray(z)[:, 0]
    phi_a = shap_exact(f_a, point, pair_base)
    phi_b = shap_exact(f_b, point, pair_base)
    consistent = (phi_b[0] > phi_a[0]
                  and abs(phi_b[1] - phi_a[1]) <= 1e-12
                  and abs(phi_a[2]) <= 1e-12 and abs(phi_b[2]) <= 1e-12)
    ok = (local <= 1e-9 and linear_err <= 1e-9 and deviation <= 0.05
          and consistent)
    _verdict(capsys, 9, ok,
             f"local accuracy {local:.1e}, linear equivalence {linear_err:.1e}, "
             f"sampled deviation {deviation:.3f} of max |phi|, consistency pair ok")


def test_criterion_10_calibration_recovery(capsys):
    specs = [s for s in enumerate_events() if s.family == "MB"]
    trajectories = {s.event_id: simulate_event(s) for s in specs}
    planted = replace(PcadParams(), sigma_n_x=1.2, sigma_s_y=0.36,
                      t_s_a=0.75, alpha=2.3)
    ids = sorted(trajectories)
    raw = [pcad_risk_series(trajectories[eid], planted) for eid in ids]
    flat = minmax_rescale(np.concatenate(raw))
    targets, pos = {}, 0
    for eid, series in zip(ids, raw):
        targets[eid] = flat[pos:pos + series.size]
        pos += series.size
    start = time.perf_counter()
    result = calibrate(CalibrationJob("PCAD", targets, draws=5000, seed=11),
                       trajectories)
    elapsed = time.perf_counter() - start
    default_rmse = result.trace[0]["rmse"]
    ok = (result.best_rmse <= 0.1 and result.best_rmse <= default_rmse
          and elapsed < 300.0)
    _verdict(capsys, 10, ok,
             f"planted recovery RMSE {result.best_rmse:.4f} (default "
             f"{default_rmse:.4f}) in {result.best_draw + 1} draws, "
             f"{elapsed:.0f} s")


def test_criterion_11_external_dataset(capsys, tmp_path):
    data_dir = os.environ.get("RISKDECODE_DATA_DIR")
    ratings = Path(data_dir) / "ratings.csv" if data_dir else None
    if ratings is None or not ratings.exists():
        with capsys.disabled():
            print("criterion 11: SKIP - external ratings dataset not provided",
                  flush=True)
        pytest.skip("RISKDECODE_DATA_DIR does not point at a ratings.csv")
    from riskdecode import pipeline
    from riskdecode.synthetic import REHEARSAL_EPOCHS, REHEARSAL_LEARNING_RATE

    index = run_ingest(tmp_path, ratings, seed=0)
    counts_ok = index.total_ratings == 141628
    pipeline.run_generate(tmp_path, 0)
    pipeline.run_reconstruct(tmp_path, 0)
    pipeline.run_features(tmp_path, 0)
    summary = pipeline.run_train(tmp_path, 0, epochs=REHEARSAL_EPOCHS,
                                 learning_rate=REHEARSAL_LEARNING_RATE)
    published = {"HB": 0.2777, "SVM": 0.2470}
    rmse_ok = all(abs(summary[g]["final_val_rmse"] - v) <= 0.15
                  for g, v in published.items())
    ok = counts_ok and rmse_ok
    _verdict(capsys, 11, ok,
             f"{index.total_ratings} valid ratings, HB "
             f"{summary['HB']['final_val_rmse']:.4f}, SVM "
             f"{summary['SVM']['final_val_rmse']:.4f}")
